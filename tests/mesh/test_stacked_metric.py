"""The stacked metric == the per-element and per-side walks it replaced.

``GeomFactors.compute`` over a kind stack, each batch's ``geom`` and
``FunctionSpace.xq`` / ``yq``, ``DirichletPlan``'s sample points and
target dofs, the edge quadrature's kind groups and the ``EdgeBatch``
operands are compared with the one-element /
one-side bodies frozen in :mod:`._metric_oracle`, on the flapping-wing
mesh at order 3 (``ale_cg``'s geometry), the curved bluff-body mesh at
order 5 and a mixed tri/quad mesh whose kinds interleave in element
order.

Values agree to 1e-13 (scaled) and integers exactly on any numpy.  On
the goldens' numpy build they are also bit-identical — each stacked
``np.matmul`` runs, per row, the gemv a one-element map runs — and the
ALE solver's pinned PCG counts depend on that, so those asserts carry
the ``same_bits`` marker.
"""

import numpy as np
import pytest

from repro.assembly.boundary import EdgeBatch, build_edge_quadrature
from repro.assembly.space import FunctionSpace
from repro.linalg.counters import OpCounter, set_kernel_sampler
from repro.mesh.curved import element_stack
from repro.mesh.generators import bluff_body_mesh, wing_mesh
from repro.mesh.mapping import GeomFactors
from repro.mesh.mesh2d import Mesh2D

from ._metric_oracle import (
    old_dirichlet_arrays,
    old_edge_batch,
    old_edge_quadrature,
    old_geom_factors,
    old_space_metric,
)
from ._topology_oracle import element_coords


def mixed_grid() -> Mesh2D:
    """A 4 x 3 grid of perturbed cells, alternately one quad and two
    triangles, boundary sides tagged by the side of the box they lie on."""
    nx, ny = 4, 3
    xs, ys = np.meshgrid(np.linspace(0.0, 2.0, nx + 1), np.linspace(0.0, 1.0, ny + 1))
    verts = np.stack([xs.ravel(), ys.ravel()], axis=1)
    inner = (xs.ravel() > 0) & (xs.ravel() < 2) & (ys.ravel() > 0) & (ys.ravel() < 1)
    verts[inner] += 0.05 * np.stack([np.sin(7.0 * verts[inner, 1]), np.cos(5.0 * verts[inner, 0])], 1)
    vid = lambda i, j: j * (nx + 1) + i  # noqa: E731
    elems = []
    for j in range(ny):
        for i in range(nx):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            elems += [(a, b, c, d)] if (i + j) % 2 == 0 else [(a, b, c), (a, c, d)]
    mesh = Mesh2D(verts, elems)
    tags: dict[str, list] = {"left": [], "right": [], "bottom": [], "top": []}
    for ei, le in mesh.boundary_sides():
        mx, my = mesh.vertices[list(mesh.elements[ei].edge_vertices(le))].mean(axis=0)
        tag = "left" if mx < 1e-9 else "right" if mx > 2 - 1e-9 else "bottom" if my < 0.5 else "top"
        tags[tag].append((ei, le))
    mesh.boundary_tags = tags
    return mesh


#: name -> (mesh factory, order, pressure-BC tags in solver order).
CASES = {
    "wing-p3": (lambda: wing_mesh(m=6, nr=1), 3, ("inflow", "wall")),
    "curved-bluff-p5": (lambda: bluff_body_mesh(m=2, nr=1, curved=True), 5, ("inflow", "side", "wall")),
    "mixed-p4": (mixed_grid, 4, ("bottom", "left", "top")),
}


def pairs(case: str):
    """``(name, stacked, per-element)`` for every compared array."""
    make, order, tags = CASES[case]
    space = FunctionSpace(make(), order)
    mesh, dm = space.mesh, space.dofmap
    out = []
    jw, dxi, xq, yq = old_space_metric(space)
    out += [("xq", space.xq, xq), ("yq", space.yq, yq)]
    for i, (st, b) in enumerate(zip(dm.stacks, space.batches())):
        gf = b.geom
        out += [
            (f"geom{i}.jw", gf.jw, np.array([jw[e] for e in st.elems])),
            (f"geom{i}.dxi_dx", gf.dxi_dx, np.array([dxi[e] for e in st.elems])),
            (f"geom{i}.x", gf.x, xq[st.elems]),
            (f"geom{i}.y", gf.y, yq[st.elems]),
        ]
        # One element's call is a stack of one.
        e = int(st.elems[-1])
        one = GeomFactors.compute(st.exp, *element_stack(mesh, [e]))
        out += [(f"one{i}.jw", one.jw[0], jw[e]), (f"one{i}.dxi_dx", one.dxi_dx[0], dxi[e])]
    for tag in mesh.boundary_tags:
        plan = space.dirichlet_plan((tag,))
        x, y, targets = old_dirichlet_arrays(space, tag)
        out += [(f"plan.{tag}.x", plan._x, x), (f"plan.{tag}.y", plan._y, y)]
        out += [(f"plan.{tag}.targets", plan._targets, targets)]
    plan = space.dirichlet_plan(tags)
    parts = [old_dirichlet_arrays(space, tag) for tag in tags]
    for k, name in enumerate(("_x", "_y", "_targets")):
        out.append((f"plan{tags}.{name}", getattr(plan, name), np.concatenate([p[k] for p in parts])))
    flat = np.concatenate([p[2] for p in parts]).ravel()
    out.append((f"plan{tags}.dofs", plan.dofs, np.unique(flat)))
    sides = [s for tag in tags for s in mesh.boundary_sides(tag)]
    refs = old_edge_quadrature(space, sides)
    groups = build_edge_quadrature(space, sides)
    assert sorted(k for g in groups for k in g.sel.tolist()) == list(range(len(sides)))
    for g in groups:
        for r, k in enumerate(g.sel.tolist()):
            ref = refs[k]
            assert (g.elems[r], g.les[r]) == (ref.elem, ref.local_edge)
            assert (g.stack, g.rows[r]) == (dm.locate([ref.elem])[0], dm.locate([ref.elem])[1][0])
            for name in ("x", "y", "nx", "ny", "jw", "phi", "dphi_x", "dphi_y"):
                out.append((f"side{k}.{name}", getattr(g, name)[r], getattr(ref, name)))
    batch, ref = EdgeBatch(space, tags), old_edge_batch(space, tags)
    assert batch._slices == ref._slices
    for name in ("x", "y", "nx", "ny"):
        out.append((f"batch.{name}", getattr(batch, name), getattr(ref, name)))
    assert len(batch.groups) == len(ref.groups)
    for gi, (g, r) in enumerate(zip(batch.groups, ref.groups)):
        for name in ("sel", "elems", "dofs", "signs", "ejw", "minv", "phi", "dphi_x", "dphi_y", "nx", "ny", "jw"):
            out.append((f"group{gi}.{name}", getattr(g, name), getattr(r, name)))
    return out


@pytest.mark.parametrize("case", CASES)
def test_stacked_metric_matches_the_per_element_walk(case):
    for name, got, ref in pairs(case):
        assert got.shape == ref.shape, name
        if np.issubdtype(ref.dtype, np.integer):
            np.testing.assert_array_equal(got, ref, err_msg=name)
        else:
            scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * scale, err_msg=name)


@pytest.mark.same_bits
@pytest.mark.parametrize("case", CASES)
def test_stacked_metric_same_bits(case):
    for name, got, ref in pairs(case):
        assert got.shape == ref.shape, name
        np.testing.assert_array_equal(got, ref, err_msg=name)


def recorded(fn):
    """``(charge sequence, OpCounter)`` of ``fn()``."""
    seen = []
    set_kernel_sampler(lambda flops, nbytes, label: seen.append((flops, nbytes, label)))
    try:
        with OpCounter() as ops:
            fn()
    finally:
        set_kernel_sampler(None)
    return seen, ops


@pytest.mark.parametrize("case", CASES)
def test_edge_batch_setup_charges_the_per_element_masses(case):
    """One counted mass matrix per distinct element, in first-appearance
    order: the same charges, in the same order, as the per-side set-up."""
    make, order, tags = CASES[case]
    space = FunctionSpace(make(), order)
    seq, ops = recorded(lambda: EdgeBatch(space, tags))
    ref_seq, ref_ops = recorded(lambda: old_edge_batch(space, tags))
    assert seq and seq == ref_seq
    assert (ops.flops, ops.bytes, ops.by_label) == (ref_ops.flops, ref_ops.bytes, ref_ops.by_label)


def test_one_element_and_a_stack_share_the_path():
    """A one-element call keeps its unstacked shapes."""
    mesh = wing_mesh(m=6, nr=1)
    space = FunctionSpace(mesh, 3)
    exp = space.dofmap.stacks[0].exp
    gf = GeomFactors.compute(exp, element_coords(mesh, 5))
    assert gf.jw.shape == (exp.weights.size,)
    assert gf.dxi_dx.shape == (2, 2, exp.weights.size)
    ref_jw, ref_dxi = old_geom_factors(exp, element_coords(mesh, 5))
    np.testing.assert_allclose(gf.jw, ref_jw, rtol=1e-14)
    np.testing.assert_allclose(gf.dxi_dx, ref_dxi, rtol=0.0, atol=1e-13)


def test_an_inverted_row_fails_the_stack():
    mesh = wing_mesh(m=6, nr=1)
    exp = FunctionSpace(mesh, 3).dofmap.stacks[0].exp
    coords, _ = element_stack(mesh, range(4))
    coords[2] = coords[2, ::-1]  # clockwise
    with pytest.raises(ValueError, match="inverted"):
        GeomFactors.compute(exp, coords)
