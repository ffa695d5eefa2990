"""Property-based tests of the assembly layer: random element
orientations and mixed meshes must never break C0 continuity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.operators import elemental_laplacian, elemental_mass
from repro.assembly.space import FunctionSpace
from repro.mesh.generators import rectangle_quads
from repro.mesh.mesh2d import Mesh2D

from ._assembled_oracle import assemble, element_geom
from ._dofmap_oracle import expansion


def rotated_mesh(nx, ny, rotations):
    """Structured quad mesh with each element's vertex cycle rotated by
    a per-element amount (preserves CCW orientation, scrambles edge
    directions)."""
    base = rectangle_quads(nx, ny)
    elems = []
    for i, e in enumerate(base.elements):
        r = rotations[i % len(rotations)] % 4
        v = e.vertices
        elems.append(tuple(v[(j + r) % 4] for j in range(4)))
    return Mesh2D(base.vertices, elems)


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.lists(st.integers(0, 3), min_size=1, max_size=9),
    st.integers(2, 5),
)
@settings(max_examples=20, deadline=None)
def test_rotated_elements_preserve_assembly(nx, ny, rotations, order):
    mesh = rotated_mesh(nx, ny, rotations)
    space = FunctionSpace(mesh, order)
    mats = [
        elemental_laplacian(expansion(space.dofmap, e), element_geom(space, e))
        for e in range(space.nelem)
    ]
    a = assemble(space, mats).toarray()
    # Symmetric, PSD, constants in the null space — whatever the
    # element rotations did to edge directions.
    np.testing.assert_allclose(a, a.T, atol=1e-10)
    c = np.zeros(space.ndof)
    c[: mesh.nvertices] = 1.0
    np.testing.assert_allclose(a @ c, 0.0, atol=1e-9)


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.integers(2, 5),
)
@settings(max_examples=20, deadline=None)
def test_rotated_elements_projection_continuous(rotations, order):
    """Projection of a smooth function through rotated elements gives a
    single-valued (C0) field: evaluate on both sides of each interior
    edge and compare."""
    mesh = rotated_mesh(2, 2, rotations)
    space = FunctionSpace(mesh, order)
    xq, yq = space.coords()
    f = xq**2 - xq * yq + 2.0 * yq
    u_hat = space.forward(f)
    np.testing.assert_allclose(space.backward(u_hat), f, atol=1e-9)


@given(st.integers(2, 6))
@settings(max_examples=10, deadline=None)
def test_mass_matrix_row_sums_are_areas(order):
    # sum_j M_ij c_j with c = 1-representation: M @ c = (phi_i, 1);
    # summing over vertex modes gives the domain area.
    mesh = rectangle_quads(2, 1, 0.0, 3.0, 0.0, 1.0)
    space = FunctionSpace(mesh, order)
    mats = [
        elemental_mass(expansion(space.dofmap, e), element_geom(space, e))
        for e in range(space.nelem)
    ]
    m = assemble(space, mats)
    c = np.zeros(space.ndof)
    c[: mesh.nvertices] = 1.0
    v = m @ c
    assert v[: mesh.nvertices].sum() + 0.0 == pytest.approx(
        (m @ c) @ c, rel=1e-12
    )
    assert (m @ c) @ c == pytest.approx(3.0, rel=1e-12)  # area
