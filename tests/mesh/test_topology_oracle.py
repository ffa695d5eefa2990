"""The array mesh topology against the dict walk it replaced.

``Mesh2D`` numbers its edges with one ``np.unique`` over the sides'
(low, high) vertex keys and ``DofMap`` identifies periodic vertices and
edges with array passes; :mod:`._topology_oracle` keeps the per-side
dict walk and the per-vertex union-find they replaced.  Everything
compared is an integer or a message, so the checks are exact: edge ids,
``elem_edges``, each edge's (element, local edge) sides in order,
``boundary_sides()`` with and without a tag, the identifications, and
the text of every ``ValueError`` both raise — on the bluff-body and
wing meshes, mixed tri/quad meshes and periodic boxes, each also with
its elements shuffled and their vertex cycles rotated or reversed.
"""

import numpy as np
import pytest

from repro.assembly.dofmap import DofMap
from repro.mesh.generators import bluff_body_mesh, rectangle_quads, wing_mesh
from repro.mesh.mesh2d import Element, Mesh2D

from .._meshes import rectangle_tris
from ..assembly.test_batched_equivalence import mixed_mesh
from ..assembly.test_dofmap_oracle import checkered
from . import _topology_oracle as oracle
from .test_stacked_metric import mixed_grid

X, XY = [("left", "right")], [("left", "right"), ("bottom", "top")]

MESHES = {
    "bluff": lambda: bluff_body_mesh(m=8, nr=4, refine=2),
    "wing": lambda: wing_mesh(m=6, nr=1),
    "mixed": mixed_mesh,
    "mixed_grid": mixed_grid,
    "checkered": lambda: checkered(5, 4),
}
PERIODIC = {
    "quads_x": (lambda: rectangle_quads(3, 2, 0.0, 1.0, 0.0, 1.0), X),
    "quads_xy": (lambda: rectangle_quads(2, 3, 0.0, 1.0, 0.0, 1.0), XY),
    "tris_xy": (lambda: rectangle_tris(3, 2, 0.0, 1.0, 0.0, 1.0), XY),
    "checkered_xy": (lambda: checkered(5, 4), XY),
}


def shuffled(mesh: Mesh2D, seed: int) -> Mesh2D:
    """``mesh`` with its elements in a random order, every vertex cycle
    rotated and about half reversed; tags follow their sides."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.nelements)
    elems = []
    for e in perm:
        v = np.roll(mesh.elements[e].vertices, int(rng.integers(len(mesh.elements[e].vertices))))
        elems.append(Element(tuple(int(x) for x in (v[::-1] if rng.random() < 0.5 else v))))
    where = {int(e): i for i, e in enumerate(perm)}

    def side(ei, le):
        ends = set(mesh.elements[ei].edge_vertices(le))
        new = elems[where[ei]]
        return where[ei], next(k for k in range(len(new.vertices)) if set(new.edge_vertices(k)) == ends)

    tags = {tag: [side(ei, le) for ei, le in sides] for tag, sides in mesh.boundary_tags.items()}
    return Mesh2D(mesh.vertices, [e.vertices for e in elems], tags)


def assert_same_topology(mesh: Mesh2D) -> None:
    edges, elem_edges = oracle.build_edges(mesh.elements)
    assert mesh.nedges == len(edges)
    assert mesh.elem_edges.dtype == np.int64 and mesh.elem_edges.shape == (mesh.nelements, 4)
    for e, ids in enumerate(elem_edges):
        assert mesh.elem_edges[e].tolist() == ids + [-1] * (4 - len(ids))
    assert oracle.edges(mesh) == edges
    assert mesh.edge_nsides.tolist() == [len(e.elements) for e in edges]
    assert mesh.boundary_sides() == oracle.boundary_sides(edges, mesh.boundary_tags)
    for tag in mesh.boundary_tags:
        assert mesh.boundary_sides(tag) == oracle.boundary_sides(edges, mesh.boundary_tags, tag)
    oracle.validate_tags(mesh.boundary_tags, edges, elem_edges, mesh.nelements)
    sides = [(e, le) for e in range(mesh.nelements) for le in range(len(mesh.elements[e].vertices))]
    assert mesh.side_vertices(sides).tolist() == [
        list(mesh.elements[e].edge_vertices(le)) for e, le in sides
    ]


@pytest.mark.parametrize("seed", [None, 0, 1])
@pytest.mark.parametrize("name", sorted(MESHES))
def test_edge_table_equals_the_dict_walk(name, seed):
    mesh = MESHES[name]()
    assert_same_topology(mesh if seed is None else shuffled(mesh, seed))


def test_kind_groups_in_order_of_first_appearance():
    for mesh in (mixed_mesh(), mixed_grid(), shuffled(checkered(5, 4), 3), wing_mesh()):
        kinds = [e.kind for e in mesh.elements]
        groups = mesh.kind_groups()
        assert list(groups) == list(dict.fromkeys(kinds))
        for kind, elems in groups.items():
            assert elems.tolist() == [i for i, k in enumerate(kinds) if k == kind]


def _message(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def _oracle_mesh(vertices, elements, tags=None):
    """The old constructor's checks, in its order."""
    elements = [Element(tuple(int(v) for v in e)) for e in elements]
    oracle.check_vertices(elements, len(vertices))
    edges, elem_edges = oracle.build_edges(elements)
    oracle.validate_tags(dict(tags or {}), edges, elem_edges, len(elements))


VERTS = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, -1], [2, 2], [3, 3]], dtype=float)
BAD = {
    # Edge (0, 1) three times: the third side names it.
    "non_manifold": ([(0, 1, 2), (1, 3, 2), (0, 1, 4), (0, 1, 3)], None),
    # (1, 2) turns non-manifold at element 4, (0, 1) — the smaller key,
    # and the first edge walked — only at element 5: the walk names (1, 2).
    "two_non_manifold": ([(0, 1, 4), (1, 2, 5), (0, 1, 3), (2, 1, 6), (1, 2, 3), (0, 1, 6)], None),
    "unknown_vertex": ([(0, 1, 2), (1, 3, 7)], None),
    "negative_vertex": ([(0, 1, 2), (-1, 3, 2)], None),
    "tag_out_of_range": ([(0, 1, 3, 2)], {"t": [(0, 0), (1, 0)]}),
    "tag_interior": ([(0, 1, 2), (1, 3, 2)], {"t": [(0, 0), (0, 1)]}),
}


@pytest.mark.parametrize("case", sorted(BAD))
def test_rejections_name_what_the_dict_walk_named(case):
    elements, tags = BAD[case]
    want = _message(_oracle_mesh, VERTS, elements, tags)
    assert _message(Mesh2D, VERTS, elements, tags) == want


@pytest.mark.parametrize("seed", [None, 2])
@pytest.mark.parametrize("name", sorted(PERIODIC))
def test_identifications_equal_the_union_find(name, seed):
    factory, periodic = PERIODIC[name]
    mesh = factory() if seed is None else shuffled(factory(), seed)
    assert_same_topology(mesh)
    dm = DofMap(mesh, 3, periodic=periodic)
    vrep_raw, edge_class = oracle.identifications(mesh, periodic)
    assert dm.vrep_raw.tolist() == vrep_raw.tolist()
    assert dm._edge_class.tolist() == edge_class


def _shifted_right(mesh: Mesh2D) -> Mesh2D:
    """``mesh`` with its "right" side's interior vertices nudged up, so
    they have no translated partner on the left."""
    verts = mesh.vertices.copy()
    right = np.isclose(verts[:, 0], 1.0) & (verts[:, 1] > 0.0) & (verts[:, 1] < 1.0)
    verts[right, 1] += 0.01
    return Mesh2D(verts, [e.vertices for e in mesh.elements], mesh.boundary_tags)


def _skipped_edge(mesh: Mesh2D) -> Mesh2D:
    """``mesh`` with its "right" tag missing its second side: its
    neighbours still list every vertex, so the counts agree, but the
    left side across from it has no partner edge."""
    tags = dict(mesh.boundary_tags)
    tags["right"] = tags["right"][:1] + tags["right"][2:]
    return Mesh2D(mesh.vertices, [e.vertices for e in mesh.elements], tags)


@pytest.mark.parametrize(
    "build, periodic",
    [
        (lambda: rectangle_quads(2, 2), [("left", "bottom")]),
        (lambda: rectangle_quads(3, 2, 0.0, 1.0, 0.0, 1.0), [("left", "top")]),
        (lambda: _shifted_right(rectangle_quads(2, 3, 0.0, 1.0, 0.0, 1.0)), X),
        (lambda: _skipped_edge(rectangle_quads(2, 4, 0.0, 1.0, 0.0, 1.0)), X),
    ],
)
def test_periodic_rejections_match(build, periodic):
    mesh = build()
    want = _message(oracle.identifications, mesh, periodic)
    assert _message(DofMap, mesh, 3, periodic) == want
