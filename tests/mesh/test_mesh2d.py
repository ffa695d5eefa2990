import numpy as np
import pytest

from repro.mesh.mesh2d import Element, Mesh2D

from ._topology_oracle import edges


def two_quads():
    #  3---4---5
    #  |   |   |
    #  0---1---2
    verts = np.array([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]], dtype=float)
    elems = [(0, 1, 4, 3), (1, 2, 5, 4)]
    return Mesh2D(verts, elems)


def test_element_validation():
    with pytest.raises(ValueError):
        Element((0, 1))
    with pytest.raises(ValueError):
        Element((0, 1, 1))
    assert Element((0, 1, 2)).kind == "tri"
    assert Element((0, 1, 2, 3)).kind == "quad"


def test_vertices_shape_validation():
    with pytest.raises(ValueError):
        Mesh2D(np.zeros((3, 3)), [(0, 1, 2)])
    with pytest.raises(ValueError):
        Mesh2D(np.zeros((2, 2)), [(0, 1, 2)])  # unknown vertex


def test_edge_table_two_quads():
    mesh = two_quads()
    assert mesh.nelements == 2
    assert mesh.nedges == 7
    shared = [e for e in edges(mesh) if len(e.elements) == 2]
    assert len(shared) == 1
    assert shared[0].vertices == (1, 4)
    assert len([e for e in edges(mesh) if e.on_boundary]) == 6


def test_edge_orientation_canonical():
    mesh = two_quads()
    # Element 0 edge 1 is (1, 4): intrinsic 1->4 matches canonical low->high.
    assert mesh.edge_orientation(0, 1) == 1
    # Element 1 edge 3 is (1, 4) as intrinsic (v0, v3) = (1, 4): also 1->4.
    assert mesh.edge_orientation(1, 3) == 1
    # Element 0 edge 2 is (3, 4): intrinsic direction v3->v2 = 3->4: +1.
    assert mesh.edge_orientation(0, 2) == 1


def test_mixed_tri_quad_mesh():
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0.5]], dtype=float)
    elems = [(0, 1, 2, 3), (1, 4, 2)]
    mesh = Mesh2D(verts, elems)
    assert mesh.elements[0].kind == "quad"
    assert mesh.elements[1].kind == "tri"
    shared = [e for e in edges(mesh) if len(e.elements) == 2]
    assert len(shared) == 1 and shared[0].vertices == (1, 2)


def test_nonmanifold_rejected():
    verts = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, -1]], dtype=float)
    elems = [(0, 1, 2), (1, 3, 2), (0, 1, 4), (0, 1, 3)]  # edge (0,1) x3
    with pytest.raises(ValueError):
        Mesh2D(verts, elems)


def test_boundary_tags_validated():
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    elems = [(0, 1, 2, 3)]
    Mesh2D(verts, elems, {"all": [(0, 0), (0, 1), (0, 2), (0, 3)]})
    with pytest.raises(ValueError):
        Mesh2D(verts, elems, {"bad": [(1, 0)]})


def test_boundary_sides_and_untagged():
    mesh = two_quads()
    assert len(mesh.boundary_sides()) == 6
    tagged = {s for sides in mesh.boundary_tags.values() for s in sides}
    assert not tagged & set(mesh.boundary_sides())
    with pytest.raises(KeyError):
        mesh.boundary_sides("nope")


def test_element_areas_and_centroids():
    mesh = two_quads()
    np.testing.assert_allclose(mesh.element_areas(), [1.0, 1.0])


def test_dual_graph():
    g = two_quads().dual_graph()
    assert g.number_of_nodes() == 2
    assert g.number_of_edges() == 1
    assert g.has_edge(0, 1)
