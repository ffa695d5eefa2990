import re

import numpy as np
import pytest

from repro.mesh.generators import rectangle_quads
from repro.mesh.mesh2d import Element, Mesh2D

from ._topology_oracle import edge_orientation, edges


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


@pytest.mark.parametrize(
    "elements",
    [
        [(0, 1)],
        [(0, 1, 1)],
        [(0, 1, 2, 3, 4)],
        [(0, 1, 2), (0, 1)],
        [(0, 0, 1), (0, 1)],  # the first failing element names the error
        [(0, 1), (0, 0, 1)],
        [(0, 1, 2, 0), (4, 5)],
        [(0, 1, 9)],
        [(-1, 0, 1)],
        [(2, 3, 4), (-1, 0, 1, 2)],
        [(0, 1, 9), (0, 1)],  # shape checks come before the vertex check
    ],
)
def test_mesh_checks_its_elements_as_element_does(elements):
    """One array pass over the elements raises what building an
    ``Element`` per element, then checking the ids, raised."""

    def per_element():
        elems = [Element(tuple(e)) for e in elements]
        if any(not 0 <= v < 6 for e in elems for v in e.vertices):
            raise ValueError("element references unknown vertex")

    with pytest.raises(ValueError) as want:
        per_element()
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        Mesh2D(np.zeros((6, 2)), elements)


def test_elements_are_built_on_first_read():
    mesh = rectangle_quads(3, 2)
    assert "elements" not in vars(mesh)
    rows = [tuple(v for v in row if v >= 0) for row in mesh.elem_vertices.tolist()]
    assert [e.vertices for e in mesh.elements] == rows
    assert mesh.elements is mesh.elements


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
    sides = [(0, 1), (1, 3), (0, 2), (1, 0)]
    # Element 0 edge 1 is (1, 4): intrinsic 1->4 matches canonical low->high.
    # Element 1 edge 3 is (1, 4) as intrinsic (v0, v3) = (1, 4): also 1->4.
    # Element 0 edge 2 is (3, 4): intrinsic direction v3->v2 = 3->4.
    # Element 1 edge 0 is (1, 2): intrinsic 1->2.
    ends = mesh.side_vertices(sides)
    np.testing.assert_array_equal(ends, [(1, 4), (1, 4), (3, 4), (1, 2)])
    forward = ends[:, 0] < ends[:, 1]
    assert forward.tolist() == [edge_orientation(mesh, *s) == 1 for s in sides] == [True] * 4
    rotated = Mesh2D(mesh.vertices, [(0, 1, 4, 3), (5, 4, 1, 2)])
    # Its element 1 edge 2 runs v3->v2 = 2->1, against the canonical 1->2.
    assert rotated.side_vertices([(1, 2)]).tolist() == [[2, 1]]
    assert edge_orientation(rotated, 1, 2) == -1


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


def test_element_areas_one_shoelace_pass():
    verts = np.array(
        [[0, 0], [2, 0], [2, 1], [0, 1], [3, 0.5], [5, 0], [6, 0], [6, 1], [5, 1]], dtype=float
    )
    mesh = Mesh2D(verts, [(0, 1, 2, 3), (1, 4, 2), (5, 8, 7, 6)])  # the last one clockwise
    np.testing.assert_allclose(mesh.element_areas(), [2.0, 0.5, -1.0], rtol=1e-15)


def test_a_side_tagged_twice_is_rejected():
    """A repeated side would be integrated twice by every surface term."""
    base = rectangle_quads(2, 2)
    elems = [e.vertices for e in base.elements]
    bottom = base.boundary_tags["bottom"]
    for side, tags, named in (
        (bottom[0], {**base.boundary_tags, "bottom": bottom + [bottom[0]]}, ["bottom", "bottom"]),
        (bottom[1], {**base.boundary_tags, "wall": [bottom[1]]}, ["bottom", "wall"]),
    ):
        message = f"boundary side {side} is tagged more than once: {named}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Mesh2D(base.vertices, elems, tags)
