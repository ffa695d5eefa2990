from types import SimpleNamespace

import numpy as np
import pytest

from repro.assembly.boundary import build_edge_quadrature
from repro.assembly.space import FunctionSpace
from repro.linalg import blas
from repro.mesh.generators import bluff_body_mesh, rectangle_quads

from .._meshes import rectangle_tris
from ..spectral._eval_basis import eval_basis
from ._assembled_oracle import edge_load


def one_side(space, tag):
    """The one side of ``tag`` as an ``EdgeQuadrature``-like record: its
    kind group's fields at row 0."""
    (g,) = build_edge_quadrature(space, space.mesh.boundary_sides(tag))
    assert g.sel.tolist() == [0]
    fields = ("x", "y", "nx", "ny", "jw", "phi", "dphi_x", "dphi_y")
    return SimpleNamespace(elem=int(g.elems[0]), **{name: getattr(g, name)[0] for name in fields})


def test_edge_lengths_unit_square():
    space = FunctionSpace(rectangle_quads(1, 1, 0, 2, 0, 3), 3)
    groups = build_edge_quadrature(space, space.mesh.boundary_sides())
    total = sum(g.jw.sum() for g in groups)
    assert total == pytest.approx(2 * (2 + 3))


def test_outward_normals_unit_square():
    space = FunctionSpace(rectangle_quads(1, 1), 3)
    for tag, (nx, ny) in {
        "bottom": (0, -1),
        "right": (1, 0),
        "top": (0, 1),
        "left": (-1, 0),
    }.items():
        eq = one_side(space, tag)
        np.testing.assert_allclose(eq.nx, nx, atol=1e-13)
        np.testing.assert_allclose(eq.ny, ny, atol=1e-13)
        # unit normals
        np.testing.assert_allclose(np.hypot(eq.nx, eq.ny), 1.0)


def test_outward_normals_triangles():
    space = FunctionSpace(rectangle_tris(1, 1), 3)
    groups = build_edge_quadrature(space, space.mesh.boundary_sides())
    # All normals point away from the square's centre (0, 0).
    for g in groups:
        dots = g.nx * g.x + g.ny * g.y
        assert np.all(dots > 0)


def test_normals_on_cylinder_wall():
    space = FunctionSpace(bluff_body_mesh(m=3, nr=1), 3)
    groups = build_edge_quadrature(space, space.mesh.boundary_sides("wall"))
    for g in groups:
        # Outward from the fluid = towards the cylinder centre.
        dots = g.nx * g.x + g.ny * g.y
        assert np.all(dots < 0)
    # Total wall length approximates the circle perimeter (polygonal).
    total = sum(g.jw.sum() for g in groups)
    assert total == pytest.approx(2 * np.pi * 0.5, rel=0.03)


def test_divergence_theorem():
    # int_domain div F = oint F . n for F = (x, y) (div = 2).
    mesh = rectangle_quads(2, 2, 0, 1, 0, 1)
    space = FunctionSpace(mesh, 4)
    groups = build_edge_quadrature(space, space.mesh.boundary_sides())
    surface = sum(
        blas.ddot_batched(g.jw, g.x * g.nx + g.y * g.ny).sum() for g in groups
    )
    area = space.integrate(np.ones((space.nelem, space.nq)))
    assert surface == pytest.approx(2.0 * area, rel=1e-12)


def test_edge_basis_matches_volume_tabulation():
    # phi at edge points must agree with eval_basis of the expansion.
    space = FunctionSpace(rectangle_tris(1, 1), 4)
    groups = build_edge_quadrature(space, space.mesh.boundary_sides())
    for g in groups:
        exp = space.dofmap.stacks[g.stack].exp
        assert g.phi.shape == (g.sel.size, exp.nmodes, g.x.shape[1])
        # trace of the constant (sum of vertex modes) is 1 on the edge.
        ones = g.phi[:, exp.vertex_modes].sum(axis=1)
        np.testing.assert_allclose(ones, 1.0, atol=1e-12)


def test_edge_load_constant():
    space = FunctionSpace(rectangle_quads(1, 1), 3)
    eq = one_side(space, "bottom")
    load = edge_load(eq, np.ones(eq.x.size))
    exp = space.dofmap.stacks[0].exp
    # Vertex-mode entries sum to the edge length.
    assert sum(load[i] for i in exp.vertex_modes) == pytest.approx(2.0)


def test_dphi_tables_match_fd_along_edge():
    space = FunctionSpace(rectangle_quads(1, 1), 3)
    eq = one_side(space, "left")
    exp = space.dofmap.stacks[0].exp
    # For the identity-mapped reference square, physical == reference.
    h = 1e-6
    xi2 = eq.y  # left edge: xi1 = -1, param = xi2 (mesh is [-1,1]^2)
    f1 = eval_basis(exp, np.full_like(xi2, -1.0) + h, xi2)
    f0 = eval_basis(exp, np.full_like(xi2, -1.0), xi2)
    fd = (f1 - f0) / h
    np.testing.assert_allclose(eq.dphi_x, fd, atol=1e-4, rtol=1e-3)
