"""Elemental operator apply / diagonal / CG vs the assembled references.

The sum-factorised apply must agree with the assembled matrix to
solver precision across orders 4..12 on quad meshes, fall back cleanly
on mixed quad/tri meshes, and cost decisively fewer flops per apply;
:class:`HelmholtzCG` on it must reach :class:`HelmholtzDirect`'s answer
on every element mix, and a row-stacked block must be its rows.
"""

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.linalg.counters import OpCounter
from repro.mesh.generators import rectangle_quads
from repro.mesh.mesh2d import Mesh2D
from repro.obs import tracer as obs
from repro.solvers.helmholtz import HelmholtzCG, HelmholtzDirect

from .._meshes import rectangle_tris
from ..assembly._assembled_oracle import AssembledOperator, assemble
from ..linalg._snapshot import snapshot


def mixed_mesh() -> Mesh2D:
    verts = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]], dtype=np.float64
    )
    tags = {"left": [(0, 3)], "bottom": [(0, 0), (1, 0)]}
    return Mesh2D(verts, [(0, 1, 2, 3), (1, 4, 2), (4, 5, 2)], tags)


@pytest.mark.parametrize("order", [4, 6, 8, 10, 12])
@pytest.mark.parametrize("kind,lam", [("mass", 0.0), ("laplacian", 0.0), ("helmholtz", 2.5)])
def test_operator_apply_matches_assembled(order, kind, lam):
    space = FunctionSpace(rectangle_quads(2, 2, 0.0, 1.0, 0.5, 2.0), order)
    assert space.sumfact  # all-quad mesh defaults on
    a = assemble(space, space.elemental_matrices(kind, lam))
    rng = np.random.default_rng(order)
    u = rng.standard_normal(space.ndof)
    got = space.operator_apply(kind, u, lam)
    want = a @ u
    scale = float(np.max(np.abs(want))) or 1.0
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10 * max(1.0, scale))
    # Diagonal (Jacobi preconditioner) agrees too.
    np.testing.assert_allclose(
        space.operator_diagonal(kind, lam),
        np.asarray(a.diagonal()),
        rtol=1e-10,
        atol=1e-10,
    )


def test_operator_apply_batches_leading_axes():
    space = FunctionSpace(rectangle_quads(2, 1), 5)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((3, space.ndof))
    block = space.operator_apply("helmholtz", u, 1.0)
    for i in range(3):
        np.testing.assert_array_equal(
            block[i], space.operator_apply("helmholtz", u[i], 1.0)
        )


def test_operator_apply_mixed_mesh_fallback():
    """Explicit sumfact on a mixed mesh: quad batches go matrix-free,
    tri batches through cached tabulated stacks — same assembled answer."""
    space = FunctionSpace(mixed_mesh(), 6, sumfact=True)
    a = assemble(space, space.elemental_matrices("helmholtz", 1.0))
    rng = np.random.default_rng(11)
    u = rng.standard_normal(space.ndof)
    want = a @ u
    scale = float(np.max(np.abs(want))) or 1.0
    np.testing.assert_allclose(
        space.operator_apply("helmholtz", u, 1.0),
        want,
        rtol=0.0,
        atol=1e-10 * max(1.0, scale),
    )
    np.testing.assert_allclose(
        space.operator_diagonal("helmholtz", 1.0),
        np.asarray(a.diagonal()),
        rtol=1e-10,
        atol=1e-10,
    )


MESHES = {
    "quad": lambda: rectangle_quads(2, 2, 0.0, 1.0, 0.5, 2.0),
    "tri": lambda: rectangle_tris(2, 2),
    "mixed": mixed_mesh,
}


@pytest.mark.parametrize("mesh", MESHES)
def test_operator_apply_matches_assembled_matvec(mesh):
    """The space answers the matvec itself on every element mix: the
    same product as the CSR reference, the same Jacobi diagonal."""
    space = FunctionSpace(MESHES[mesh](), 6)
    assert space.sumfact == (mesh == "quad")
    ref = AssembledOperator(space, space.elemental_matrices("helmholtz", 1.5))
    u = np.random.default_rng(13).standard_normal(space.ndof)
    want = ref.matvec(u)
    np.testing.assert_allclose(
        space.operator_apply("helmholtz", u, 1.5),
        want,
        rtol=0.0,
        atol=1e-10 * max(1.0, float(np.max(np.abs(want)))),
    )
    np.testing.assert_allclose(
        space.operator_diagonal("helmholtz", 1.5),
        np.asarray(ref.a_full.diagonal()),
        rtol=1e-10,
        atol=1e-10,
    )


@pytest.mark.parametrize("order", [4, 6, 8, 10, 12])
def test_helmholtz_cg_matrix_free_matches_dense(order):
    """CG on the elemental apply and the condensed direct solve reach the
    same answer to a manufactured problem."""
    lam = 3.0
    u_exact = lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)  # noqa: E731
    f = lambda x, y: (2 * np.pi**2 + lam) * u_exact(x, y)  # noqa: E731
    space = FunctionSpace(rectangle_quads(2, 2, 0, 1, 0, 1), order)
    tags = ("left", "right")
    u_cg, u_d = (
        s.solve_rhs(s.rhs_for(f), s.bc_plan.project(u_exact))
        for s in (HelmholtzCG(space, lam, tags), HelmholtzDirect(space, lam, tags))
    )
    scale = float(np.max(np.abs(u_d))) or 1.0
    np.testing.assert_allclose(u_cg, u_d, rtol=0.0, atol=1e-7 * scale)


def test_helmholtz_cg_matrix_free_block_solve():
    """Multi-RHS path: the block solve returns the same solutions as
    column-by-column direct solves."""
    lam = 1.5
    space = FunctionSpace(rectangle_quads(2, 2), 6)
    tags = ("left", "right", "top", "bottom")
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal((3, space.ndof))
    cg = HelmholtzCG(space, lam, tags)
    direct = HelmholtzDirect(space, lam, tags)
    dv = rng.standard_normal((3, cg.dirichlet_dofs.size))
    u_cg = cg.solve_rhs(rhs, dv)
    u_d = np.stack([direct.solve_rhs(rhs[i], dv[i]) for i in range(3)])
    scale = float(np.max(np.abs(u_d))) or 1.0
    np.testing.assert_allclose(u_cg, u_d, rtol=0.0, atol=1e-7 * scale)


def test_helmholtz_cg_matrix_free_on_mixed_mesh():
    """Sum-factorisation on a mixed mesh exercises the tri fallback
    inside operator_apply; solutions match the direct solver."""
    lam = 2.0  # lam > 0: the all-Neumann problem is non-singular
    space = FunctionSpace(mixed_mesh(), 5, sumfact=True)
    f = lambda x, y: np.sin(x) * np.cos(y)  # noqa: E731
    u_cg = HelmholtzCG(space, lam).solve(f)
    u_d = HelmholtzDirect(space, lam).solve(f)
    scale = float(np.max(np.abs(u_d))) or 1.0
    np.testing.assert_allclose(u_cg, u_d, rtol=0.0, atol=1e-7 * scale)


def _counted_solves(solve):
    """Run ``solve`` under a counter and a tracer: its result, the
    per-label charges and the iteration count of every PCG it ran."""
    tr = obs.Tracer()
    with obs.install(tr), OpCounter() as c:
        out = solve()
    iters = [e.args["iterations"] for e in tr.events if e.name == "pcg"]
    return out, snapshot(c).label_charges(), iters


@pytest.mark.parametrize("mesh", ["tri", "mixed"])
def test_helmholtz_cg_on_triangles_converges_and_a_block_is_its_rows(mesh):
    """Off the quad meshes CG still never assembles: it reaches the
    direct answer through counted ``dgemv`` applies, and a row-stacked
    block is exactly ``nrhs`` single solves (a zero row included)."""
    lam, tags = 1.5, ("left", "bottom")
    space = FunctionSpace(MESHES[mesh](), 6)
    cg = HelmholtzCG(space, lam, tags, tol=1e-13)
    rng = np.random.default_rng(17)
    rhs = rng.standard_normal((4, space.ndof))
    rhs[2] = 0.0
    dv = rng.standard_normal((4, cg.dirichlet_dofs.size))
    dv[2] = 0.0

    u_block, block_charges, block_iters = _counted_solves(lambda: cg.solve_rhs(rhs, dv))
    assert cg.last_iterations == max(block_iters)
    u_rows, row_charges, row_iters = _counted_solves(
        lambda: np.stack([cg.solve_rhs(rhs[i], dv[i]) for i in range(4)])
    )
    assert np.array_equal(u_block, u_rows)
    assert block_iters == row_iters and block_iters[2] == 0
    assert block_charges == row_charges
    assert "dgemv" in block_charges
    assert not {"spmv", "dirichlet-lift"} & set(block_charges)

    u_d = HelmholtzDirect(space, lam, tags).solve_rhs(rhs, dv)
    np.testing.assert_allclose(u_block, u_d, rtol=0.0, atol=1e-9 * np.abs(u_d).max())


def _apply_charges(order, sumfact):
    space = FunctionSpace(rectangle_quads(2, 2), order, sumfact=sumfact)
    u = np.ones(space.ndof)
    if not sumfact:
        space._dense_batch_mats(0, "helmholtz", 1.0)  # build outside the count
    with OpCounter() as c:
        space.operator_apply("helmholtz", u, 1.0)
    return c.flops, c.bytes


def test_matrix_free_apply_complexity_class():
    """Golden scaling pin: doubling the order multiplies the
    sum-factorised apply flops cubically (< 8x) but the dense tabulated
    apply quartically (> 10x); at order 12 the matrix-free apply also
    streams well under the dense matrices' bytes."""
    f6, _ = _apply_charges(6, True)
    f12, b12 = _apply_charges(12, True)
    g6, _ = _apply_charges(6, False)
    g12, c12 = _apply_charges(12, False)
    assert f12 / f6 < 8.0  # O(p^3): ~2^3 per order doubling
    assert g12 / g6 > 10.0  # O(p^4): ~2^4 per order doubling
    assert b12 < 0.6 * c12  # memory-bound win at paper-relevant order
