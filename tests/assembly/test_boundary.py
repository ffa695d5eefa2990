import numpy as np
import pytest

from repro.assembly.boundary import build_edge_quadrature
from repro.assembly.space import FunctionSpace
from repro.mesh.generators import bluff_body_mesh, rectangle_quads

from .._meshes import rectangle_tris
from ..spectral._eval_basis import eval_basis
from ._assembled_oracle import edge_load


def test_edge_lengths_unit_square():
    space = FunctionSpace(rectangle_quads(1, 1, 0, 2, 0, 3), 3)
    quads = build_edge_quadrature(space, space.mesh.boundary_sides())
    total = sum(eq.jw.sum() for eq in quads)
    assert total == pytest.approx(2 * (2 + 3))


def test_outward_normals_unit_square():
    space = FunctionSpace(rectangle_quads(1, 1), 3)
    for tag, (nx, ny) in {
        "bottom": (0, -1),
        "right": (1, 0),
        "top": (0, 1),
        "left": (-1, 0),
    }.items():
        (eq,) = build_edge_quadrature(space, space.mesh.boundary_sides(tag))
        np.testing.assert_allclose(eq.nx, nx, atol=1e-13)
        np.testing.assert_allclose(eq.ny, ny, atol=1e-13)
        # unit normals
        np.testing.assert_allclose(np.hypot(eq.nx, eq.ny), 1.0)


def test_outward_normals_triangles():
    space = FunctionSpace(rectangle_tris(1, 1), 3)
    quads = build_edge_quadrature(space, space.mesh.boundary_sides())
    # All normals point away from the square's centre (0, 0).
    for eq in quads:
        dots = eq.nx * eq.x + eq.ny * eq.y
        assert np.all(dots > 0)


def test_normals_on_cylinder_wall():
    space = FunctionSpace(bluff_body_mesh(m=3, nr=1), 3)
    quads = build_edge_quadrature(space, space.mesh.boundary_sides("wall"))
    for eq in quads:
        # Outward from the fluid = towards the cylinder centre.
        dots = eq.nx * eq.x + eq.ny * eq.y
        assert np.all(dots < 0)
    # Total wall length approximates the circle perimeter (polygonal).
    total = sum(eq.jw.sum() for eq in quads)
    assert total == pytest.approx(2 * np.pi * 0.5, rel=0.03)


def test_divergence_theorem():
    # int_domain div F = oint F . n for F = (x, y) (div = 2).
    mesh = rectangle_quads(2, 2, 0, 1, 0, 1)
    space = FunctionSpace(mesh, 4)
    quads = build_edge_quadrature(space, space.mesh.boundary_sides())
    surface = sum(
        eq.integrate(eq.x * eq.nx + eq.y * eq.ny) for eq in quads
    )
    area = space.integrate(np.ones((space.nelem, space.nq)))
    assert surface == pytest.approx(2.0 * area, rel=1e-12)


def test_edge_basis_matches_volume_tabulation():
    # phi at edge points must agree with eval_basis of the expansion.
    space = FunctionSpace(rectangle_tris(1, 1), 4)
    quads = build_edge_quadrature(space, space.mesh.boundary_sides())
    for eq in quads:
        exp = space.dofmap.expansion(eq.elem)
        assert eq.phi.shape == (exp.nmodes, eq.npts)
        # trace of the constant (sum of vertex modes) is 1 on the edge.
        ones = sum(eq.phi[i] for i in exp.vertex_modes)
        np.testing.assert_allclose(ones, 1.0, atol=1e-12)


def test_edge_load_constant():
    space = FunctionSpace(rectangle_quads(1, 1), 3)
    (eq,) = build_edge_quadrature(space, space.mesh.boundary_sides("bottom"))
    load = edge_load(eq, np.ones(eq.npts))
    exp = space.dofmap.expansion(eq.elem)
    # Vertex-mode entries sum to the edge length.
    assert sum(load[i] for i in exp.vertex_modes) == pytest.approx(2.0)


def test_dphi_tables_match_fd_along_edge():
    space = FunctionSpace(rectangle_quads(1, 1), 3)
    (eq,) = build_edge_quadrature(space, space.mesh.boundary_sides("left"))
    exp = space.dofmap.expansion(eq.elem)
    # For the identity-mapped reference square, physical == reference.
    h = 1e-6
    xi2 = eq.y  # left edge: xi1 = -1, param = xi2 (mesh is [-1,1]^2)
    f1 = eval_basis(exp, np.full_like(xi2, -1.0) + h, xi2)
    f0 = eval_basis(exp, np.full_like(xi2, -1.0), xi2)
    fd = (f1 - f0) / h
    np.testing.assert_allclose(eq.dphi_x, fd, atol=1e-4, rtol=1e-3)
