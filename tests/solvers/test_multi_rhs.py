"""Property tests: multi-RHS solves == column-by-column reference.

The multi-RHS engine (batched condensation, one multi-RHS ``dpbtrs``,
one PCG per row) must be a pure wall-clock optimisation: on randomised
mixed tri/quad meshes across orders 2..8, a row-stacked solve must match
solving the columns one by one to 1e-12 and charge byte-for-byte
identical OpCounter flop/byte totals (in total and per label; call
counts legitimately differ).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.condensation import CondensedOperator
from repro.assembly.space import FunctionSpace
from repro.linalg.counters import OpCounter
from repro.mesh.generators import rectangle_quads
from repro.mesh.mesh2d import Mesh2D
from repro.solvers.helmholtz import HelmholtzCG

from .._meshes import rectangle_tris
from ..assembly._assembled_oracle import AssembledOperator


def mixed_mesh() -> Mesh2D:
    """One quad + two tris sharing edges (and so edge-sign flips)."""
    verts = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]], dtype=np.float64
    )
    return Mesh2D(verts, [(0, 1, 2, 3), (1, 4, 2), (4, 5, 2)])


def make_mesh(kind: int) -> Mesh2D:
    if kind == 0:
        return rectangle_quads(2, 2)
    if kind == 1:
        return rectangle_tris(2, 2)
    return mixed_mesh()


def assert_same_charges(cm: OpCounter, cc: OpCounter) -> None:
    """Stacked and per-column totals must be byte-for-byte identical."""
    assert cm.flops == cc.flops
    assert cm.bytes == cc.bytes
    assert set(cm.by_label) == set(cc.by_label)
    for label, (fc, bc, _) in cc.by_label.items():
        fm, bm, _ = cm.by_label[label]
        assert fm == fc, (label, fm, fc)
        assert bm == bc, (label, bm, bc)


def assert_matches_columns(op, rhs, dv):
    """op.solve on the stack == op.solve per column, with equal charges."""
    nrhs = rhs.shape[0]
    with OpCounter() as cm:
        um = op.solve(rhs, dv)
    with OpCounter() as cc:
        if dv is None:
            uc = np.stack([op.solve(rhs[i]) for i in range(nrhs)])
        elif dv.ndim == 1:
            uc = np.stack([op.solve(rhs[i], dv) for i in range(nrhs)])
        else:
            uc = np.stack([op.solve(rhs[i], dv[i]) for i in range(nrhs)])
    scale = float(np.max(np.abs(uc))) or 1.0
    np.testing.assert_allclose(um, uc, rtol=0.0, atol=1e-12 * max(1.0, scale))
    assert_same_charges(cm, cc)


@given(
    st.integers(0, 2),
    st.integers(2, 8),
    st.integers(2, 6),
    st.sampled_from(["none", "shared", "per-rhs"]),
    st.integers(0, 10_000),
)
@settings(max_examples=12, deadline=None)
def test_condensed_multi_rhs_matches_columns(kind, order, nrhs, bc, seed):
    mesh = make_mesh(kind)
    space = FunctionSpace(mesh, order)
    mats = space.elemental_matrices("helmholtz", 0.8)
    rng = np.random.default_rng(seed)
    bnd = space.dofmap.boundary_dofs()
    dofs = () if bc == "none" else bnd[: max(1, bnd.size // 3)]
    op = CondensedOperator(space, mats, dofs)
    rhs = rng.standard_normal((nrhs, space.ndof))
    if bc == "none":
        dv = None
    elif bc == "shared":
        dv = rng.standard_normal(len(dofs))
    else:
        dv = rng.standard_normal((nrhs, len(dofs)))
    assert_matches_columns(op, rhs, dv)


@given(
    st.integers(0, 2),
    st.integers(2, 8),
    st.integers(2, 6),
    st.sampled_from(["none", "shared", "per-rhs"]),
    st.integers(0, 10_000),
)
@settings(max_examples=12, deadline=None)
def test_assembled_multi_rhs_matches_columns(kind, order, nrhs, bc, seed):
    mesh = make_mesh(kind)
    space = FunctionSpace(mesh, order)
    mats = space.elemental_matrices("helmholtz", 1.3)
    rng = np.random.default_rng(seed)
    bnd = space.dofmap.boundary_dofs()
    dofs = () if bc == "none" else bnd[: max(1, bnd.size // 3)]
    op = AssembledOperator(space, mats, dofs)
    rhs = rng.standard_normal((nrhs, space.ndof))
    if bc == "none":
        dv = None
    elif bc == "shared":
        dv = rng.standard_normal(len(dofs))
    else:
        dv = rng.standard_normal((nrhs, len(dofs)))
    assert_matches_columns(op, rhs, dv)


@given(
    st.integers(0, 1),
    st.integers(2, 8),
    st.integers(2, 5),
    st.integers(0, 10_000),
)
@settings(max_examples=10, deadline=None)
def test_cg_multi_rhs_matches_columns(kind, order, nrhs, seed):
    """A row-stacked CG solve: per-column iterates, counts, and charges
    must match solo PCG exactly."""
    mesh = make_mesh(kind)
    space = FunctionSpace(mesh, order)
    solver = HelmholtzCG(space, 0.5, ("left", "top"))
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((nrhs, space.ndof))
    dv = rng.standard_normal((nrhs, solver.dirichlet_dofs.size))
    with OpCounter() as cm:
        um = solver.solve_rhs(rhs, dv)
    iters_m = solver.last_iterations
    with OpCounter() as cc:
        uc = np.stack(
            [solver.solve_rhs(rhs[i], dv[i]) for i in range(nrhs)]
        )
    scale = float(np.max(np.abs(uc))) or 1.0
    np.testing.assert_allclose(um, uc, rtol=0.0, atol=1e-12 * max(1.0, scale))
    assert_same_charges(cm, cc)
    assert iters_m <= 10 * solver.free.size + 100
    assert iters_m > 0


def test_condensed_multi_rhs_zero_column():
    """An all-zero column rides along without perturbing its neighbours."""
    space = FunctionSpace(mixed_mesh(), 5)
    mats = space.elemental_matrices("helmholtz", 1.0)
    op = CondensedOperator(space, mats)
    rng = np.random.default_rng(7)
    rhs = rng.standard_normal((3, space.ndof))
    rhs[1] = 0.0
    u = op.solve(rhs)
    np.testing.assert_allclose(u[1], 0.0, atol=1e-14)
    np.testing.assert_allclose(
        u[0], op.solve(rhs[0]), rtol=0.0, atol=1e-12
    )


def test_cg_multi_rhs_zero_column():
    space = FunctionSpace(rectangle_quads(2, 2), 4)
    solver = HelmholtzCG(space, 1.0, ("left",))
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal((3, space.ndof))
    rhs[1] = 0.0
    u = solver.solve_rhs(rhs, np.zeros((3, solver.dirichlet_dofs.size)))
    np.testing.assert_allclose(u[1], 0.0, atol=1e-14)
