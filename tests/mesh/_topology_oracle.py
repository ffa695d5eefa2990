"""Frozen reference: the mesh topology walked one side at a time.

``build_edges`` / ``validate_tags`` / ``boundary_sides`` are the bodies
of ``Mesh2D._build_edges`` / ``_validate_tags`` / ``boundary_sides``
before the topology became integer tables: a dict from each side's
(low, high) vertex key to an :class:`Edge`, filled element by element.
``identifications`` is ``DofMap._build_identifications`` before it
became array passes: a per-vertex and a per-edge union-find over the
periodic tag pairs.  :func:`edges` gives the live mesh's edges as the
same :class:`Edge` objects, for tests that walk them.
``element_coords`` / ``edge_orientation`` are the per-element
``Mesh2D`` methods of the same name, functions of the mesh here: ``src/``
reads ``elem_vertices`` and ``side_vertices`` instead.  Test-only; do
not import from ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Edge:
    """A global mesh edge: canonical direction is low -> high vertex id."""

    id: int
    vertices: tuple[int, int]  # (low, high)
    elements: list[tuple[int, int]] = field(default_factory=list)  # (elem, local edge)

    @property
    def on_boundary(self) -> bool:
        return len(self.elements) == 1


def edges(mesh) -> list[Edge]:
    """The live mesh's edge table as :class:`Edge` objects, by id."""
    out = []
    for eid, (sides, n) in enumerate(zip(mesh.edge_sides.tolist(), mesh.edge_nsides.tolist())):
        elem, le = sides[0]
        a, b = mesh.elements[elem].edge_vertices(le)
        out.append(Edge(eid, (min(a, b), max(a, b)), [tuple(s) for s in sides[:n]]))
    return out


def element_coords(mesh, elem: int) -> np.ndarray:
    """(nverts, 2) vertex coordinates of one element."""
    return mesh.vertices[list(mesh.elements[elem].vertices)]


def edge_orientation(mesh, elem: int, local_edge: int) -> int:
    """+1 if the element's intrinsic edge direction matches the
    canonical (low -> high vertex id) direction, else -1."""
    a, b = mesh.elements[elem].edge_vertices(local_edge)
    return 1 if a < b else -1


def check_vertices(elements, nv) -> None:
    for e in elements:
        if any(v < 0 or v >= nv for v in e.vertices):
            raise ValueError("element references unknown vertex")


def build_edges(elements) -> tuple[list[Edge], list[list[int]]]:
    """``(edges by id, elem_edges)`` of the elements, by the dict walk."""
    table: dict[tuple[int, int], Edge] = {}
    elem_edges: list[list[int]] = []
    for ei, elem in enumerate(elements):
        ids = []
        for le in range(len(elem.vertices)):
            a, b = elem.edge_vertices(le)
            key = (min(a, b), max(a, b))
            edge = table.get(key)
            if edge is None:
                edge = Edge(len(table), key)
                table[key] = edge
            if len(edge.elements) >= 2:
                raise ValueError(
                    f"edge {key} shared by more than two elements "
                    "(non-manifold mesh)"
                )
            edge.elements.append((ei, le))
            ids.append(edge.id)
        elem_edges.append(ids)
    return sorted(table.values(), key=lambda e: e.id), elem_edges


def validate_tags(boundary_tags, edge_list, elem_edges, nelements) -> None:
    for tag, sides in boundary_tags.items():
        for ei, le in sides:
            if not 0 <= ei < nelements:
                raise ValueError(f"tag {tag!r}: element {ei} out of range")
            edge = edge_list[elem_edges[ei][le]]
            if not edge.on_boundary:
                raise ValueError(
                    f"tag {tag!r}: ({ei}, {le}) is not a boundary side"
                )


def boundary_sides(edge_list, boundary_tags, tag=None) -> list[tuple[int, int]]:
    if tag is not None:
        return list(boundary_tags[tag])
    return [e.elements[0] for e in edge_list if e.on_boundary]


def identifications(mesh, periodic) -> tuple[np.ndarray, list[int]]:
    """``(vrep_raw, edge class)`` by union-find over the periodic pairs."""
    parent = list(range(mesh.nvertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    eparent = list(range(mesh.nedges))

    def efind(e):
        while eparent[e] != e:
            eparent[e] = eparent[eparent[e]]
            e = eparent[e]
        return e

    for tag_a, tag_b in periodic:
        va = sorted(
            {
                v
                for ei, le in mesh.boundary_sides(tag_a)
                for v in mesh.elements[ei].edge_vertices(le)
            }
        )
        vb = sorted(
            {
                v
                for ei, le in mesh.boundary_sides(tag_b)
                for v in mesh.elements[ei].edge_vertices(le)
            }
        )
        if len(va) != len(vb):
            raise ValueError(
                f"periodic tags {tag_a!r}/{tag_b!r} have unequal vertex counts"
            )
        ca = mesh.vertices[va]
        cb = mesh.vertices[vb]
        t = cb.mean(axis=0) - ca.mean(axis=0)
        scale = max(1.0, float(np.abs(mesh.vertices).max()))
        partner: dict[int, int] = {}
        for v, xy in zip(va, ca):
            d = np.linalg.norm(cb - (xy + t), axis=1)
            j = int(np.argmin(d))
            if d[j] > 1e-8 * scale:
                raise ValueError(
                    f"periodic tags {tag_a!r}/{tag_b!r}: vertex {v} has "
                    "no translated partner"
                )
            union(v, vb[j])
            partner[v] = vb[j]
        b_edges = {
            frozenset(mesh.elements[ei].edge_vertices(le)): int(mesh.elem_edges[ei][le])
            for ei, le in mesh.boundary_sides(tag_b)
        }
        for ei, le in mesh.boundary_sides(tag_a):
            a1, a2 = mesh.elements[ei].edge_vertices(le)
            key = frozenset((partner[a1], partner[a2]))
            if key not in b_edges:
                raise ValueError(
                    f"periodic tags {tag_a!r}/{tag_b!r}: edge "
                    f"({a1}, {a2}) has no translated partner edge"
                )
            ea = int(mesh.elem_edges[ei][le])
            eb = b_edges[key]
            ra, rb = efind(ea), efind(eb)
            if ra != rb:
                eparent[max(ra, rb)] = min(ra, rb)
    edge_class = [efind(e) for e in range(mesh.nedges)]
    return np.array([find(v) for v in range(mesh.nvertices)]), edge_class
