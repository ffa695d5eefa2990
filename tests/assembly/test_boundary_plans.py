"""Boundary plans == the per-side loops they replaced, values and charges.

``project_dirichlet_per_side`` and the two ``pressure_bc_per_side*``
functions are the loops that lived in ``assembly/global_system.py`` and
in the three Navier-Stokes solvers before :class:`DirichletPlan` and
:class:`EdgeBatch`; they are kept here as the reference.  Values must
agree to 1e-13 (scaled) and every OpCounter label's (flops, bytes)
exactly, on straight, curved, mixed and periodic meshes.

On the numpy/BLAS build the goldens were recorded on, real-valued
results are also *bit-identical* (the plans issue, per side, the
BLAS/LAPACK calls the loops issued): the ALE solver's PCG iteration
counts, which ``benchmarks/e2e/golden.json`` pins, drift by several per
cent after a last-bit change of its boundary data.  That rests on how
numpy dispatches stacked matmul/solve, which no numpy release promises,
so those assertions carry the ``same_bits`` marker: outside tier-1, run
by the CI bench job next to the e2e goldens with numpy pinned.
"""

import numpy as np
import pytest

from repro.assembly.boundary import EdgeBatch, build_edge_quadrature
from repro.assembly.global_system import project_dirichlet
from repro.assembly.operators import elemental_mass
from repro.assembly.space import FunctionSpace
from repro.linalg.counters import OpCounter, charge
from repro.mesh.generators import bluff_body_mesh, rectangle_quads
from repro.ns.ale import ALENavierStokes2D
from repro.spectral.basis import bubble
from repro.spectral.jacobi import gauss_jacobi

from .._meshes import annulus_mesh, rectangle_tris
from ..linalg._vector_kernels import dgemv
from ..mesh._metric_oracle import old_edge_physical_points, old_edge_quadrature
from . import _dofmap_oracle as dmo
from ._assembled_oracle import edge_load, element_geom, scatter_add
from .test_batched_equivalence import mixed_mesh

# -- the per-side references -------------------------------------------------------


def project_dirichlet_per_side(space, tags, fn):
    mesh, dm = space.mesh, space.dofmap
    P = space.order
    values: dict[int, float] = {}
    xg, wg = gauss_jacobi(P + 2)
    nb = P - 1
    bub = np.array([bubble(k, xg) for k in range(nb)])
    mass_1d = (bub * wg) @ bub.T
    charge(2.0 * nb * nb * xg.size, 8.0 * (2 * nb * xg.size + nb * nb), "edge-mass")
    sides = [s for t in tags for s in mesh.boundary_sides(t)]
    for ei, le in sides:
        elem = mesh.elements[ei]
        a, b = elem.edge_vertices(le)
        lo, hi = (a, b) if a < b else (b, a)
        xa, xb = mesh.vertices[lo], mesh.vertices[hi]
        ga, gb = float(fn(*xa)), float(fn(*xb))
        values[dmo.vertex_dof(dm, lo)] = ga
        values[dmo.vertex_dof(dm, hi)] = gb
        ex, ey = old_edge_physical_points(mesh, ei, le, xg)
        g = np.array([float(fn(x, y)) for x, y in zip(ex, ey)])
        lin = 0.5 * (1 - xg) * ga + 0.5 * (1 + xg) * gb
        rhs = bub @ (wg * (g - lin))
        charge(2.0 * nb * xg.size + 2.0 * nb**3 / 3.0, 8.0 * nb * (xg.size + nb), "edge-project")
        coeff = np.linalg.solve(mass_1d, rhs)
        eid = dmo.elem_edge_id(dm, ei, le)
        for k, dof in enumerate(dm.edge_dofs(eid)):
            values[int(dof)] = float(coeff[k])
    dofs = np.array(sorted(values), dtype=np.int64)
    return dofs, np.array([values[d] for d in dofs])


def merged_per_tag(space, tags, fns):
    """One per-side projection per tag, merged with ``dict.update`` (the
    last tag wins a shared dof) — what ``_dirichlet_values`` did."""
    values: dict[int, float] = {}
    for tag, fn in zip(tags, fns):
        dofs, vals = project_dirichlet_per_side(space, (tag,), fn)
        values.update(zip(dofs.tolist(), vals.tolist()))
    dofs = np.array(sorted(values), dtype=np.int64)
    return dofs, np.array([values[d] for d in dofs])


def edge_setup_per_side(space, tags):
    """The solvers' set-up loop: edge quadrature per tag and one local
    mass inverse per distinct boundary element."""
    quads = {tag: old_edge_quadrature(space, space.mesh.boundary_sides(tag)) for tag in tags}
    minv: dict[int, np.ndarray] = {}
    for tag_quads in quads.values():
        for eq in tag_quads:
            if eq.elem not in minv:
                m = elemental_mass(dmo.expansion(space.dofmap, eq.elem), element_geom(space, eq.elem))
                minv[eq.elem] = np.linalg.inv(m)
    return quads, minv


def pressure_bc_per_side(space, quads, minv, bcs, rhs_p, w_extrap, nu, scale, t_new):
    """``NavierStokes2D._add_pressure_bc`` as it was."""
    dm = space.dofmap
    for tag, tag_quads in quads.items():
        fu, fv = bcs[tag]
        for eq in tag_quads:
            ei = eq.elem
            exp = dmo.expansion(dm, ei)
            gf = element_geom(space, ei)
            tmp = np.empty(exp.phi.shape[0])
            dgemv(1.0, exp.phi, gf.jw * w_extrap[ei], 0.0, tmp)
            w_loc = np.empty_like(tmp)
            dgemv(1.0, minv[ei], tmp, 0.0, w_loc)
            dwdx = np.empty(eq.npts)
            dwdy = np.empty(eq.npts)
            dgemv(1.0, eq.dphi_x, w_loc, 0.0, dwdx, trans=True)
            dgemv(1.0, eq.dphi_y, w_loc, 0.0, dwdy, trans=True)
            n_curl = eq.nx * dwdy - eq.ny * dwdx
            ubn = np.array(
                [
                    float(fu(x, y, t_new)) * nx + float(fv(x, y, t_new)) * ny
                    for x, y, nx, ny in zip(eq.x, eq.y, eq.nx, eq.ny)
                ]
            )
            term = -nu * n_curl - scale * ubn
            scatter_add(dm, ei, edge_load(eq, term), rhs_p)


def pressure_bc_per_side_mode(
    space, quads, minv, bcs, rhs, m, k, wx_e, wy_e, wz_e, nu, scale, t_new
):
    """``NekTarF._add_pressure_bc`` (one Fourier mode) as it was."""

    def charge_zgemv(mat):
        rows, cols = mat.shape
        charge(4.0 * rows * cols, 8.0 * rows * cols + 16.0 * (rows + cols), "zgemv")

    dm = space.dofmap
    kk = 1j * k
    for tag, tag_quads in quads.items():
        fu, fv = bcs[tag]
        for eq in tag_quads:
            ei = eq.elem
            exp = dmo.expansion(dm, ei)
            gf = element_geom(space, ei)
            mi = minv[ei]
            for mat in (exp.phi, mi, exp.phi, mi, exp.phi, mi):
                charge_zgemv(mat)
            wz_loc = mi @ (exp.phi @ (gf.jw * wz_e[ei]))
            wx_loc = mi @ (exp.phi @ (gf.jw * wx_e[ei]))
            wy_loc = mi @ (exp.phi @ (gf.jw * wy_e[ei]))
            for mat in (eq.dphi_x, eq.dphi_y, eq.phi, eq.phi):
                charge_zgemv(mat)
            dwz_dx = eq.dphi_x.T @ wz_loc
            dwz_dy = eq.dphi_y.T @ wz_loc
            wx_edge = eq.phi.T @ wx_loc
            wy_edge = eq.phi.T @ wy_loc
            n_curl = eq.nx * (dwz_dy - kk * wy_edge) + eq.ny * (kk * wx_edge - dwz_dx)
            ubn = np.array(
                [
                    complex(fu(m, x, y, t_new)) * nx + complex(fv(m, x, y, t_new)) * ny
                    for x, y, nx, ny in zip(eq.x, eq.y, eq.nx, eq.ny)
                ]
            )
            term = -nu * n_curl - scale * ubn
            charge_zgemv(eq.phi)
            local = eq.phi @ (eq.jw * term)
            np.add.at(rhs, dmo.elem_dofs(dm)[ei], dmo.elem_signs(dm)[ei] * local)


# -- cases ---------------------------------------------------------------------------


def tagged_mixed_mesh():
    mesh = mixed_mesh()
    sides = mesh.boundary_sides()
    mesh.boundary_tags = {"a": sides[:2], "b": sides[2:]}
    return mesh


def make_space(case: str):
    """(space, tags) of one named case; tags that meet share a corner."""
    if case == "quad":
        return FunctionSpace(rectangle_quads(3, 2, 0.0, 1.5, 0.0, 1.0), 5), ("left", "bottom", "top")
    if case == "tri":
        return FunctionSpace(rectangle_tris(2, 2), 4), ("bottom", "right")
    if case == "mixed":
        return FunctionSpace(tagged_mixed_mesh(), 6), ("a", "b")
    if case == "curved-wall":
        mesh = bluff_body_mesh(m=2, nr=1, curved=True)
        return FunctionSpace(mesh, 5), ("inflow", "wall", "side")
    if case == "curved-annulus":
        return FunctionSpace(annulus_mesh(6, 1), 4), ("inner", "outer")
    if case == "periodic":
        mesh = rectangle_quads(3, 2, 0.0, 1.0, 0.0, 1.0)
        space = FunctionSpace(mesh, 4, periodic=[("left", "right")])
        return space, ("bottom", "top")
    raise ValueError(case)


CASES = ["quad", "tri", "mixed", "curved-wall", "curved-annulus", "periodic"]


def g1(x, y):
    return np.sin(1.3 * x) * np.cos(0.7 * y) + 0.25 * x * y


def g2(x, y):
    return 2.0 - x + max(0.0, y - 0.3) ** 2  # branches on a scalar


def label_charges(counter: OpCounter) -> dict:
    return {k: (f, b) for k, (f, b, _) in counter.by_label.items()}


def assert_same_charges(got: OpCounter, ref: OpCounter) -> None:
    assert (got.flops, got.bytes) == (ref.flops, ref.bytes)
    assert label_charges(got) == label_charges(ref)


def assert_close(got, ref, tol=1e-13):
    scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=tol * scale)


# -- Dirichlet plan -------------------------------------------------------------------


@pytest.mark.parametrize("case", CASES)
def test_project_dirichlet_matches_per_side(case):
    space, tags = make_space(case)
    with OpCounter() as ref_ops:
        ref_dofs, ref_vals = project_dirichlet_per_side(space, tags, g1)
    with OpCounter() as ops:
        dofs, vals = project_dirichlet(space, tags, g1)
    np.testing.assert_array_equal(dofs, ref_dofs)
    assert_close(vals, ref_vals)
    assert_same_charges(ops, ref_ops)
    # The cached plan gives the same answer (and charges) again.
    with OpCounter() as again:
        _, vals2 = project_dirichlet(space, tags, g1)
    np.testing.assert_array_equal(vals2, vals)
    assert_same_charges(again, ref_ops)


@pytest.mark.same_bits
@pytest.mark.parametrize("case", CASES)
def test_project_dirichlet_same_bits(case):
    space, tags = make_space(case)
    _, ref_vals = project_dirichlet_per_side(space, tags, g1)
    _, vals = project_dirichlet(space, tags, g1)
    np.testing.assert_array_equal(vals, ref_vals)


@pytest.mark.parametrize("case", CASES)
def test_later_tag_wins_shared_corner(case):
    """Two tags, two functions: the dof of a shared corner vertex takes
    the later tag's value, as ``dict.update`` made it."""
    space, tags = make_space(case)
    fns = [g1, g2, g1][: len(tags)]
    with OpCounter() as ref_ops:
        ref_dofs, ref_vals = merged_per_tag(space, tags, fns)
    plan = space.dirichlet_plan(tags)
    with OpCounter() as ops:
        vals = plan.project_by_tag(fns)
    np.testing.assert_array_equal(plan.dofs, ref_dofs)
    assert_close(vals, ref_vals)
    assert_same_charges(ops, ref_ops)
    if case == "quad":
        # Vertex (0, 0) is on "left" and "bottom"; "bottom" comes later.
        corner = dmo.vertex_dof(
            space.dofmap, int(np.argmin(np.hypot(*space.mesh.vertices.T)))
        )
        assert vals[np.searchsorted(plan.dofs, corner)] == g2(0.0, 0.0) != g1(0.0, 0.0)


def test_complex_projection_charges_both_parts():
    """Complex data is one sweep but is charged, per tag, as the real
    and the imaginary projection NekTar-F used to make."""
    space, tags = make_space("quad")
    amp = lambda x, y: complex(g1(x, y), g2(x, y))  # noqa: E731
    # The old loop went tag by tag (re, im, re, im ...); same totals.
    with OpCounter() as ref_ops:
        re = merged_per_tag(space, tags, [lambda x, y: amp(x, y).real] * 3)[1]
        im = merged_per_tag(space, tags, [lambda x, y: amp(x, y).imag] * 3)[1]
    with OpCounter() as ops:
        got = space.dirichlet_plan(tags).project_by_tag([amp] * 3, dtype=np.complex128)
    assert_close(got.real, re)
    assert_close(got.imag, im)
    assert_same_charges(ops, ref_ops)


def test_charge_projection_is_one_zero_projection():
    space, tags = make_space("curved-wall")
    with OpCounter() as ref_ops:
        project_dirichlet_per_side(space, tags, lambda x, y: 0.0)
    with OpCounter() as ops:
        space.dirichlet_plan(tags).charge_projection()
    assert_same_charges(ops, ref_ops)


def test_ale_plan_follows_the_moving_mesh():
    """Every mesh move makes a new space, so a plan is never stale."""
    mesh = rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0)
    tags = ("bottom", "left")  # sorted, as the solver holds them
    xbc = lambda x, y, t: x + 0.5 * y  # noqa: E731  (sees the translation)
    ns = ALENavierStokes2D(
        mesh, 3, nu=0.05, dt=0.05,
        velocity_bcs={tag: (xbc, lambda x, y, t: 0.0) for tag in tags},
        pressure_dirichlet=("right",),
        motion=lambda x0, y0, t: (x0 + 0.4 * t, y0),
    )
    first_space = ns.space
    before = ns.vel_solver.bc_plan.project(g1)
    ns.run(2)
    assert ns.space is not first_space
    assert ns.vel_solver.bc_plan is ns.space.dirichlet_plan(tags)
    ref_dofs, ref_vals = project_dirichlet_per_side(ns.space, tags, g1)
    np.testing.assert_array_equal(ns.vel_solver.bc_plan.dofs, ref_dofs)
    assert_close(ns.vel_solver.bc_plan.project(g1), ref_vals)
    assert np.max(np.abs(ref_vals - before)) > 1e-3
    # The velocity solve saw the boundary data of the moved boundary.
    t = ns.t
    _, want = merged_per_tag(ns.space, tags, [lambda x, y: xbc(x, y, t)] * 2)
    assert_close(ns.u_hat[ref_dofs], want)


# -- pressure-BC edge batch -------------------------------------------------------------


def bc_pair(seed: float):
    return (
        lambda x, y, t: np.sin(x + seed) * t + 0.1 * y,
        lambda x, y, t: max(0.0, y) * np.cos(t) - seed * x,
    )


def pressure_bc_both_ways(case):
    """(got, ref, ops, ref_ops) of the real surface term, batch and loop."""
    space, tags = make_space(case)
    rng = np.random.default_rng(7)
    w = rng.standard_normal((space.nelem, space.nq))
    bcs = {tag: bc_pair(0.3 * i) for i, tag in enumerate(tags)}
    nu, scale, t_new = 0.02, 1.5 / 5e-3, 0.37

    with OpCounter() as ref_setup:
        quads, minv = edge_setup_per_side(space, tags)
    with OpCounter() as setup:
        batch = EdgeBatch(space, tags)
    assert_same_charges(setup, ref_setup)

    ref = rng.standard_normal(space.ndof)
    got = ref.copy()
    with OpCounter() as ref_ops:
        pressure_bc_per_side(space, quads, minv, bcs, ref, w, nu, scale, t_new)
    with OpCounter() as ops:
        ubn = batch.normal_component([bcs[tag] for tag in tags], t_new)
        batch.add_pressure_bc(got, w, ubn, nu, scale)
    return got, ref, ops, ref_ops


@pytest.mark.parametrize("case", CASES)
def test_pressure_bc_matches_per_side(case):
    got, ref, ops, ref_ops = pressure_bc_both_ways(case)
    assert_close(got, ref)
    assert_same_charges(ops, ref_ops)


@pytest.mark.same_bits  # not "mixed": grouping by kind reorders the scatter there
@pytest.mark.parametrize("case", [c for c in CASES if c != "mixed"])
def test_pressure_bc_same_bits(case):
    got, ref, _, _ = pressure_bc_both_ways(case)
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("case", ["quad", "mixed", "curved-wall"])
def test_pressure_bc_modes_match_per_side(case):
    space, tags = make_space(case)
    rng = np.random.default_rng(11)
    modes, k = [0, 3], np.array([0.0, 1.5])

    def field():
        shape = (len(modes), space.nelem, space.nq)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    wx, wy, wz = field(), field(), field()
    bcs = {
        tag: (
            lambda m, x, y, t, s=0.2 * i: complex(np.sin(x + s) * t, m * y),
            lambda m, x, y, t, s=0.2 * i: (1 + m) * max(0.0, y - s) + 0.5j * x,
        )
        for i, tag in enumerate(tags)
    }
    nu, scale, t_new = 0.05, 1.0 / 2e-3, 0.11
    quads, minv = edge_setup_per_side(space, tags)
    batch = EdgeBatch(space, tags)

    ref = rng.standard_normal((2, space.ndof)) + 0j
    got = ref.copy()
    with OpCounter() as ref_ops:
        for i, m in enumerate(modes):
            pressure_bc_per_side_mode(
                space, quads, minv, bcs, ref[i], m, k[i], wx[i], wy[i], wz[i], nu, scale, t_new
            )
    with OpCounter() as ops:
        ubn = np.array(
            [
                batch.normal_component(
                    [
                        tuple(lambda x, y, t, f=f, m=m: f(m, x, y, t) for f in bcs[tag])
                        for tag in tags
                    ],
                    t_new,
                    dtype=np.complex128,
                )
                for m in modes
            ]
        )
        batch.add_pressure_bc_modes(got, k, wx, wy, wz, ubn, nu, scale)
    assert_close(got, ref)
    assert_same_charges(ops, ref_ops)


# -- process-wide reference tables -----------------------------------------------------


def clear_reference_tables():
    """Put the interpreter back to "no space built yet": every table that
    depends on the reference element alone is tabulated once per process."""
    from repro.assembly.boundary import _edge_lift, _edge_points, _reference_edges
    from repro.mesh.mapping import quadrature_reference
    from repro.spectral.jacobi import _gauss_jacobi

    for cached in (_gauss_jacobi, quadrature_reference, _edge_points, _reference_edges, _edge_lift):
        cached.cache_clear()


def geometry_bytes(case: str) -> dict:
    space, tags = make_space(case)
    batch = EdgeBatch(space, tags)
    fields = {"xq": space.xq, "yq": space.yq, "x": batch.x, "y": batch.y}
    fields.update({f"jw{i}": b.geom.jw for i, b in enumerate(space.batches())})
    fields.update({f"dxi{i}": b.geom.dxi_dx for i, b in enumerate(space.batches())})
    for gi, g in enumerate(batch.groups):
        for name in ("phi", "dphi_x", "dphi_y", "nx", "ny", "jw", "ejw", "minv"):
            fields[f"group{gi}.{name}"] = getattr(g, name)
    return {name: np.ascontiguousarray(a).tobytes() for name, a in fields.items()}


@pytest.mark.parametrize("case", CASES)
def test_space_built_after_a_process_mate_has_the_fresh_interpreter_bytes(case):
    clear_reference_tables()
    fresh = geometry_bytes(case)
    # Other spaces come and go — other orders, kinds and curved maps, and
    # one that is used — and leave the shared tables as they found them.
    for other in CASES:
        space, tags = make_space(other)
        EdgeBatch(space, tags)
        space.operator_apply("helmholtz", np.ones(space.ndof), 2.0)
    assert geometry_bytes(case) == fresh


def test_reference_edge_tables_are_read_only():
    from repro.assembly.boundary import _edge_lift, _edge_points, _reference_edges
    from repro.mesh.mapping import quadrature_reference

    space, tags = make_space("mixed")
    g = build_edge_quadrature(space, space.mesh.boundary_sides(tags[0]))[0]
    kind = space.dofmap.stacks[g.stack].kind
    # A group holds its sides' rows of the shared table, copied out of it.
    assert not np.shares_memory(g.phi, _reference_edges(kind, space.order, space.order + 2)[1])
    for kind in ("tri", "quad"):
        xi1, xi2, shape = quadrature_reference(kind, 8)
        edge_xi1, edge_xi2, edge_shape = _edge_points(kind, 8)
        w, *basis = _reference_edges(kind, 6, 8)
        lift = _edge_lift(6)
        for arr in (xi1, xi2, *shape, edge_xi1, edge_xi2, *edge_shape, w, *basis, *lift):
            assert not arr.flags.writeable
