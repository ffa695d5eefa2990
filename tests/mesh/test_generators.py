import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.generators import (
    bluff_body_mesh,
    body_fitted_mesh,
    circle_profile,
    naca_profile,
    rectangle_quads,
    wing_mesh,
)

from .._meshes import rectangle_tris


def every_boundary_side_is_tagged(mesh) -> bool:
    tagged = {s for sides in mesh.boundary_tags.values() for s in sides}
    return set(mesh.boundary_sides()) <= tagged


@given(st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=15, deadline=None)
def test_rectangle_quads_counts_and_area(nx, ny):
    mesh = rectangle_quads(nx, ny, 0.0, 2.0, 0.0, 1.0)
    assert mesh.nelements == nx * ny
    assert mesh.nvertices == (nx + 1) * (ny + 1)
    assert np.all(mesh.element_areas() > 0)
    assert mesh.element_areas().sum() == pytest.approx(2.0)
    assert len(mesh.boundary_tags["left"]) == ny
    assert len(mesh.boundary_tags["bottom"]) == nx
    assert every_boundary_side_is_tagged(mesh)


@given(st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_rectangle_tris_counts_and_area(nx, ny):
    mesh = rectangle_tris(nx, ny)
    assert mesh.nelements == 2 * nx * ny
    assert np.all(mesh.element_areas() > 0)
    assert mesh.element_areas().sum() == pytest.approx(4.0)
    assert every_boundary_side_is_tagged(mesh)


def test_rectangle_invalid():
    with pytest.raises(ValueError):
        rectangle_quads(0, 3)


def test_circle_profile_radius():
    prof = circle_profile()
    t = np.linspace(0, 1, 17, endpoint=False)
    x, y = prof(t)
    np.testing.assert_allclose(np.hypot(x, y), 0.5, rtol=1e-12)


def test_naca_profile_closed_and_sane():
    prof = naca_profile("4420")
    t = np.linspace(0, 1, 64, endpoint=False)
    x, y = prof(t)
    # Chordwise extent roughly [-0.4, 0.6] after recentring on 0.4 chord.
    assert x.min() == pytest.approx(-0.4, abs=0.05)
    assert x.max() == pytest.approx(0.6, abs=0.05)
    # 20% thickness: max |y| about 0.1 or a bit more with camber.
    assert 0.05 < np.abs(y).max() < 0.2


def test_naca_profile_invalid_code():
    with pytest.raises(ValueError):
        naca_profile("44")
    with pytest.raises(ValueError):
        naca_profile("44x0")


def test_bluff_body_mesh_valid():
    mesh = bluff_body_mesh(m=4, nr=2)
    assert np.all(mesh.element_areas() > 0)
    # Domain area minus body area.
    domain = 40.0 * 10.0
    body = np.pi * 0.5**2
    # Straight-sided polygonal body: area within a few percent.
    assert mesh.element_areas().sum() == pytest.approx(domain - body, rel=0.02)
    assert every_boundary_side_is_tagged(mesh)
    for tag in ("inflow", "outflow", "side", "wall"):
        assert mesh.boundary_tags[tag]
    # Wall edges all lie on the cylinder.
    for ei, le in mesh.boundary_tags["wall"]:
        a, b = mesh.elements[ei].edge_vertices(le)
        for v in (a, b):
            assert np.hypot(*mesh.vertices[v]) == pytest.approx(0.5, abs=1e-12)


def test_bluff_body_mesh_refinement_scales_elements():
    m1 = bluff_body_mesh(refine=1)
    m2 = bluff_body_mesh(refine=2)
    assert m2.nelements > 3 * m1.nelements


def test_bluff_body_mesh_connected():
    import networkx as nx

    mesh = bluff_body_mesh()
    assert nx.is_connected(mesh.dual_graph())


def test_wing_mesh_valid():
    mesh = wing_mesh()
    assert np.all(mesh.element_areas() > 0)
    assert every_boundary_side_is_tagged(mesh)
    assert mesh.boundary_tags["wall"]


def test_body_fitted_rejects_bad_geometry():
    with pytest.raises(ValueError):
        body_fitted_mesh(circle_profile(), half_width=20.0)  # square outside domain
    with pytest.raises(ValueError):
        body_fitted_mesh(circle_profile(), m=0)


def test_body_fitted_ring_conforms_to_frame():
    # Every edge is shared by <= 2 elements (the Mesh2D constructor would
    # raise otherwise); additionally no hanging nodes:
    mesh = body_fitted_mesh(circle_profile(), m=3, nr=1)
    # Count boundary edges = perimeter cells of domain + body wall cells.
    nb = int((mesh.edge_nsides == 1).sum())
    ntags = sum(len(v) for v in mesh.boundary_tags.values())
    assert nb == ntags
