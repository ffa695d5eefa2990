import numpy as np
import pytest

from repro.assembly.condensation import CondensedOperator, MassProjector
from repro.assembly.global_system import project_dirichlet
from repro.assembly.space import FunctionSpace
from repro.linalg import blas
from repro.linalg.counters import OpCounter
from repro.mesh.generators import bluff_body_mesh, rectangle_quads, wing_mesh
from repro.solvers.helmholtz import HelmholtzDirect

from .._meshes import rectangle_tris
from ..linalg._snapshot import snapshot
from ._assembled_oracle import (
    AssembledOperator,
    StoredMatrices,
    element_geom,
    elemental_helmholtz,
)
from ._dofmap_oracle import expansion
from .test_batched_equivalence import mixed_mesh


def build(mesh, order, lam, tags):
    space = FunctionSpace(mesh, order)
    mats = StoredMatrices(
        space.dofmap,
        [elemental_helmholtz(expansion(space.dofmap, e), element_geom(space, e), lam) for e in range(space.nelem)],
    )
    dofs, _ = (
        project_dirichlet(space, tags, lambda x, y: 0.0)
        if tags
        else (np.array([], dtype=np.int64), None)
    )
    return space, mats, dofs


@pytest.mark.parametrize(
    "mesh_fn,order",
    [
        (lambda: rectangle_quads(3, 2), 4),
        (lambda: rectangle_tris(2, 2), 5),
        (lambda: bluff_body_mesh(m=3, nr=1), 3),
    ],
)
def test_condensed_matches_full_banded(mesh_fn, order):
    mesh = mesh_fn()
    tags = (
        ("left",) if "left" in mesh.boundary_tags else ("inflow", "wall")
    )
    space, mats, dofs = build(mesh, order, 1.5, tags)
    full = AssembledOperator(space, mats, dofs)
    cond = CondensedOperator(space, mats, dofs)
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(space.ndof)
    g = rng.standard_normal(dofs.size)
    np.testing.assert_allclose(
        cond.solve(rhs, g), full.solve(rhs, g), rtol=1e-8, atol=1e-8
    )


def test_condensed_without_dirichlet():
    space, mats, _ = build(rectangle_quads(2, 2), 3, 2.0, ())
    cond = CondensedOperator(space, mats)
    full = AssembledOperator(space, mats)
    rhs = np.random.default_rng(1).standard_normal(space.ndof)
    np.testing.assert_allclose(cond.solve(rhs), full.solve(rhs), rtol=1e-8)


def test_condensed_boundary_bandwidth_smaller():
    mesh = bluff_body_mesh(m=4, nr=2)
    space, mats, dofs = build(mesh, 5, 1.0, ("inflow",))
    cond = CondensedOperator(space, mats, dofs)
    full = AssembledOperator(space, mats, dofs)
    assert cond.bandwidth < full.bandwidth
    # And the condensed system itself is much smaller.
    assert space.dofmap.nboundary < space.ndof


def test_interior_dirichlet_rejected():
    space, mats, _ = build(rectangle_quads(2, 2), 4, 1.0, ())
    interior_dof = space.dofmap.interior_offset
    with pytest.raises(ValueError):
        CondensedOperator(space, mats, [interior_dof])


def test_rhs_shape_check():
    space, mats, _ = build(rectangle_quads(1, 1), 3, 1.0, ())
    cond = CondensedOperator(space, mats)
    with pytest.raises(ValueError):
        cond.solve(np.ones(3))


def test_all_boundary_dirichlet_degenerate_case():
    # 1x1 mesh with every side Dirichlet: no free boundary dofs remain.
    space, mats, dofs = build(
        rectangle_quads(1, 1), 3, 1.0, ("left", "right", "top", "bottom")
    )
    cond = CondensedOperator(space, mats, dofs)
    assert cond.solver is None
    rhs = np.random.default_rng(2).standard_normal(space.ndof)
    g = np.zeros(dofs.size)
    full = AssembledOperator(space, mats, dofs)
    np.testing.assert_allclose(cond.solve(rhs, g), full.solve(rhs, g), rtol=1e-9)


def test_solve_charges_small_dense_ops():
    # The condensed solve's per-element work shows up as small dgemv and
    # Cholesky charges — the paper's "small n" regime.
    space, mats, dofs = build(rectangle_quads(3, 3), 6, 1.0, ("left",))
    cond = CondensedOperator(space, mats, dofs)
    with OpCounter() as c:
        cond.solve(np.ones(space.ndof), np.zeros(dofs.size))
    assert "sc-chol" in c.by_label
    assert "dgemv" in c.by_label
    assert "dpbtrs" in c.by_label  # the boundary banded sweep


# -- one solve body: a vector is a one-row block ------------------------------

MESHES = {
    "quad": lambda: rectangle_quads(3, 2),
    "tri": lambda: rectangle_tris(2, 2),
    "mixed": mixed_mesh,
}
# Prescribed boundary dofs: none, every third, all (``solver is None``).
PRESCRIBED = {"none": lambda nb: [], "some": lambda nb: range(0, nb, 3), "all": range}


def label_charges(counter):
    return snapshot(counter).label_charges()


@pytest.mark.parametrize("bc", PRESCRIBED)
@pytest.mark.parametrize("mesh", MESHES)
def test_vector_solve_is_the_one_row_block_solve(mesh, bc):
    space = FunctionSpace(MESHES[mesh](), 5)
    mats = space.elemental_matrices("helmholtz", 1.5)
    cond = CondensedOperator(space, mats, PRESCRIBED[bc](space.dofmap.nboundary))
    assert (cond.solver is None) == (bc == "all")
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(space.ndof)
    g = rng.standard_normal(cond.dirichlet.size)
    with OpCounter() as c_vec:
        u = cond.solve(rhs, g)
    with OpCounter() as c_row:
        u_row = cond.solve(rhs[None], g[None])[0]
    assert u.shape == (space.ndof,)
    assert np.array_equal(u, u_row)
    assert label_charges(c_vec) == label_charges(c_row)


@pytest.mark.parametrize("mesh", MESHES)
def test_projector_substitution_is_the_mass_solve_to_rounding(mesh):
    """The substitution body FunctionSpace.forward keeps: the condensed
    mass solve's answer to rounding, and the same (flops, bytes) under
    every label."""
    space = FunctionSpace(MESHES[mesh](), 5)
    rhs = np.random.default_rng(3).standard_normal(space.ndof)
    projector = MassProjector(space)
    op = CondensedOperator(space, space.elemental_matrices("mass"))
    with OpCounter() as c_sub:
        u_sub = projector.solve(rhs)
    with OpCounter() as c_vec:
        u = op.solve(rhs)
    np.testing.assert_allclose(u, u_sub, rtol=0.0, atol=1e-12 * np.abs(u_sub).max())
    assert label_charges(c_vec) == label_charges(c_sub)
    assert (c_vec.flops, c_vec.bytes) == (c_sub.flops, c_sub.bytes)


@pytest.mark.parametrize("condense", [True, False])
def test_dirichlet_values_shape_is_a_typed_error(condense):
    space = FunctionSpace(rectangle_quads(2, 2), 4)
    solver = HelmholtzDirect(space, 1.0, ("left", "top"))
    nd = solver.dirichlet_dofs.size
    solve_rhs = solver.solve_rhs
    if not condense:  # the full-banded reference takes the same values
        solve_rhs = AssembledOperator(space, solver.elem_mats, solver.dirichlet_dofs).solve
    rng = np.random.default_rng(4)
    rhs, g = rng.standard_normal((3, space.ndof)), rng.standard_normal((3, nd))
    for bad_rhs, bad in [
        (rhs[0], np.zeros(nd + 1)),  # vector, wrong length
        (rhs[0], 0.0),  # scalar
        (rhs[0], g),  # a block of values for one vector
        (rhs, np.zeros(nd + 1)),
        (rhs, 0.0),
        (rhs, g[:2]),  # block, wrong row count
        (rhs, g[:, :-1]),
    ]:
        with pytest.raises(ValueError, match="dirichlet_values shape mismatch"):
            solve_rhs(bad_rhs, bad)
    # None is zero, a vector is shared by every row, a block is a row per RHS.
    same = np.testing.assert_array_equal
    same(solve_rhs(rhs, None), solve_rhs(rhs, np.zeros(nd)))
    same(solve_rhs(rhs[0], None), solve_rhs(rhs[0], np.zeros(nd)))
    same(solve_rhs(rhs, g[0]), solve_rhs(rhs, np.tile(g[0], (3, 1))))
    np.testing.assert_allclose(  # one row of a block: another BLAS kernel, not bits
        solve_rhs(rhs, g)[2], solve_rhs(rhs[2], g[2]), rtol=0.0, atol=1e-11
    )


# -- FunctionSpace.forward keeps the substitution arithmetic, bit for bit -----


def cho_solve_group_reference(low, b):
    """The stacked forward + backward substitution sweep as
    ``CondensedOperator._cho_solve_group`` ran it before the one-body
    solve: Aii^{-1} b for one group, row by row."""
    ni = low.shape[-1]
    y = np.empty_like(b)
    for i in range(ni):
        y[:, i] = (b[:, i] - np.einsum("gk,gk->g", low[:, i, :i], y[:, :i])) / low[:, i, i]
    out = np.empty_like(b)
    for i in range(ni - 1, -1, -1):
        out[:, i] = (
            y[:, i] - np.einsum("gk,gk->g", low[:, i + 1 :, i], out[:, i + 1 :])
        ) / low[:, i, i]
    return out


def forward_reference(space, values):
    """The L2 projection as ``FunctionSpace.forward`` computed it when
    ``ale_cg``'s golden PCG counts were recorded: condensed mass solve
    with the interior sweep run twice (condense, back-substitute)."""
    op = MassProjector(space)
    rhs = space.load_vector(values)
    gb = rhs[: op.nb_glob].copy()
    for grp in op._groups:
        if grp["ni"]:
            tmp = cho_solve_group_reference(grp["factor"], rhs[grp["idofs"]])
            corr = np.zeros((grp["ng"], grp["nb"]))
            blas.dgemv_batched(1.0, grp["abi"], tmp, 0.0, corr)
            np.subtract.at(gb, grp["bdofs"], grp["bsigns"] * corr)
    u = np.zeros(space.ndof)
    x = np.empty(op.free.size)
    x[op.perm] = op.solver.solve(gb[op.free][op.perm])
    u[op.free] = x
    for grp in op._groups:
        if grp["ni"]:
            ub = grp["bsigns"] * u[grp["bdofs"]]
            ui = cho_solve_group_reference(grp["factor"], rhs[grp["idofs"]])
            blas.dgemv_batched(-1.0, grp["aii_inv_aib"], ub, 1.0, ui)
            u[grp["idofs"]] = ui
    return u


@pytest.mark.same_bits
@pytest.mark.parametrize(
    "mesh_fn,order",
    [(lambda: wing_mesh(m=6, nr=1), 3), (mixed_mesh, 5)],
    ids=["ale_cg-wing", "mixed"],
)
def test_forward_same_bits_as_the_two_sweep_substitution(mesh_fn, order):
    space = FunctionSpace(mesh_fn(), order)
    xq, yq = space.coords()
    values = np.sin(1.3 * xq) * np.cos(0.7 * yq) + 0.1 * xq * yq
    got = space.forward(values)
    assert np.array_equal(got, forward_reference(space, values))
    assert np.array_equal(space.forward(np.stack([values, 2.0 * values]))[0], got)
