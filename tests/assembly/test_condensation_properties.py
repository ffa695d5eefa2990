"""Property tests: condensed vs full solves on randomised problems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.condensation import CondensedOperator
from repro.assembly.space import FunctionSpace
from repro.mesh.generators import rectangle_quads

from .._meshes import rectangle_tris
from ._assembled_oracle import (
    AssembledOperator,
    StoredMatrices,
    assemble,
    element_geom,
    elemental_helmholtz,
)
from ._dofmap_oracle import expansion


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(2, 5),
    st.floats(0.0, 10.0),
    st.booleans(),
    st.integers(0, 1000),
)
@settings(max_examples=25, deadline=None)
def test_condensed_equals_full_random(nx, ny, order, lam, tris, seed):

    mesh = rectangle_tris(nx, ny) if tris else rectangle_quads(nx, ny)
    space = FunctionSpace(mesh, order)
    mats = [
        elemental_helmholtz(expansion(space.dofmap, e), element_geom(space, e), lam)
        for e in range(space.nelem)
    ]
    rng = np.random.default_rng(seed)
    # Random boundary Dirichlet subset.
    bnd = space.dofmap.boundary_dofs()
    take = rng.random(bnd.size) < 0.4
    dofs = bnd[take]
    if lam < 1e-8 and not (dofs < space.dofmap.n_vertex_dofs).any():
        # Pinning only edge modes leaves the pure-Neumann null space
        # intact (the constant has zero edge-mode coefficients), so the
        # operator is only SPD (to working precision — tiny lam is as
        # singular as lam == 0) if at least one vertex dof is pinned.
        vertex_bnd = bnd[bnd < space.dofmap.n_vertex_dofs]
        dofs = np.unique(np.append(dofs, vertex_bnd[:1]))
    g = rng.standard_normal(dofs.size)
    rhs = rng.standard_normal(space.ndof)
    full = AssembledOperator(space, mats, dofs).solve(rhs, g)
    cond = CondensedOperator(space, StoredMatrices(space.dofmap, mats), dofs).solve(rhs, g)
    np.testing.assert_allclose(cond, full, rtol=1e-6, atol=1e-6)


@given(st.integers(2, 6), st.integers(0, 50))
@settings(max_examples=15, deadline=None)
def test_condensed_solve_is_exact_inverse(order, seed):
    """A u = rhs: apply the assembled operator to the condensed solution
    and recover the rhs (free dofs)."""

    mesh = rectangle_quads(2, 2)
    space = FunctionSpace(mesh, order)
    mats = [
        elemental_helmholtz(expansion(space.dofmap, e), element_geom(space, e), 1.0)
        for e in range(space.nelem)
    ]
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(space.ndof)
    cond = CondensedOperator(space, StoredMatrices(space.dofmap, mats))
    u = cond.solve(rhs)
    a = assemble(space, mats)
    np.testing.assert_allclose(a @ u, rhs, rtol=1e-7, atol=1e-7)
