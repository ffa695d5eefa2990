"""Unstructured 2-D meshes of triangles and quadrilaterals.

NekTar "uses meshes similar to standard finite element and finite volume
meshes, consisting of structured or unstructured grids or a combination
of both" (Section 1.3).  :class:`Mesh2D` stores vertices, mixed
tri/quad elements, derives the global edge table with orientations
(needed for C0 assembly sign flips), detects the boundary, and exposes
the element dual graph.

Local conventions (must match :mod:`repro.spectral.expansions`):

* triangle local edges: e0 = (0,1), e1 = (1,2), e2 = (0,2)
* quad local edges:     e0 = (0,1), e1 = (1,2), e2 = (3,2), e3 = (0,3)

Each local edge has an intrinsic direction first -> second local vertex;
the canonical global direction of an edge runs from its lower to its
higher global vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx
import numpy as np

__all__ = ["TRI_EDGES", "QUAD_EDGES", "Element", "Edge", "Mesh2D"]

TRI_EDGES = ((0, 1), (1, 2), (0, 2))
QUAD_EDGES = ((0, 1), (1, 2), (3, 2), (0, 3))


@dataclass(frozen=True)
class Element:
    """One element: ordered global vertex ids (3 = tri, 4 = quad)."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if len(self.vertices) not in (3, 4):
            raise ValueError("elements must have 3 or 4 vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("repeated vertex in element")

    @property
    def kind(self) -> str:
        return "tri" if len(self.vertices) == 3 else "quad"

    @property
    def nedges(self) -> int:
        return len(self.vertices)

    @property
    def local_edges(self) -> tuple[tuple[int, int], ...]:
        return TRI_EDGES if self.kind == "tri" else QUAD_EDGES

    def edge_vertices(self, le: int) -> tuple[int, int]:
        """Global (first, second) vertex ids of local edge ``le``,
        in the edge's intrinsic direction."""
        a, b = self.local_edges[le]
        return self.vertices[a], self.vertices[b]


@dataclass
class Edge:
    """A global mesh edge: canonical direction is low -> high vertex id."""

    id: int
    vertices: tuple[int, int]  # (low, high)
    elements: list[tuple[int, int]] = field(default_factory=list)  # (elem, local edge)

    @property
    def on_boundary(self) -> bool:
        return len(self.elements) == 1


class Mesh2D:
    """An unstructured conforming mesh of triangles and quadrilaterals."""

    def __init__(
        self,
        vertices: np.ndarray,
        elements: list[tuple[int, ...]],
        boundary_tags: dict[str, list[tuple[int, int]]] | None = None,
    ):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        self.elements = [Element(tuple(int(v) for v in e)) for e in elements]
        nv = self.vertices.shape[0]
        for e in self.elements:
            if any(v < 0 or v >= nv for v in e.vertices):
                raise ValueError("element references unknown vertex")
        self._build_edges()
        self.boundary_tags = dict(boundary_tags or {})
        self._validate_tags()
        # Optional curved-edge registry: (elem, local_edge) -> CurveFn
        # (see repro.mesh.curved); empty means straight-sided.
        self.curves: dict[tuple[int, int], object] = {}

    # -- topology ---------------------------------------------------------------

    def _build_edges(self) -> None:
        table: dict[tuple[int, int], Edge] = {}
        self.elem_edges: list[list[int]] = []
        for ei, elem in enumerate(self.elements):
            ids = []
            for le in range(elem.nedges):
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
            self.elem_edges.append(ids)
        self.edges: list[Edge] = sorted(table.values(), key=lambda e: e.id)

    def _validate_tags(self) -> None:
        for tag, sides in self.boundary_tags.items():
            for ei, le in sides:
                if not 0 <= ei < self.nelements:
                    raise ValueError(f"tag {tag!r}: element {ei} out of range")
                edge = self.edges[self.elem_edges[ei][le]]
                if not edge.on_boundary:
                    raise ValueError(
                        f"tag {tag!r}: ({ei}, {le}) is not a boundary side"
                    )

    @property
    def nvertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def nelements(self) -> int:
        return len(self.elements)

    @property
    def nedges(self) -> int:
        return len(self.edges)

    def edge_orientation(self, elem: int, local_edge: int) -> int:
        """+1 if the element's intrinsic edge direction matches the
        canonical (low -> high vertex id) direction, else -1."""
        a, b = self.elements[elem].edge_vertices(local_edge)
        return 1 if a < b else -1

    def boundary_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.on_boundary]

    def boundary_sides(self, tag: str | None = None) -> list[tuple[int, int]]:
        """(element, local_edge) pairs on the boundary; all if tag is None."""
        if tag is not None:
            if tag not in self.boundary_tags:
                raise KeyError(f"unknown boundary tag {tag!r}")
            return list(self.boundary_tags[tag])
        return [e.elements[0] for e in self.boundary_edges()]

    def untagged_boundary_sides(self) -> list[tuple[int, int]]:
        tagged = {s for sides in self.boundary_tags.values() for s in sides}
        return [s for s in self.boundary_sides() if s not in tagged]

    # -- geometry ----------------------------------------------------------------

    def element_coords(self, elem: int) -> np.ndarray:
        """(nverts, 2) vertex coordinates of one element."""
        return self.vertices[list(self.elements[elem].vertices)]

    def element_areas(self) -> np.ndarray:
        """Signed (shoelace) areas; positive for counterclockwise elements."""
        out = np.empty(self.nelements)
        for i, elem in enumerate(self.elements):
            xy = self.element_coords(i)
            x, y = xy[:, 0], xy[:, 1]
            out[i] = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        return out

    # -- graphs -------------------------------------------------------------------

    def dual_graph(self) -> nx.Graph:
        """Element adjacency graph (shared edge => graph edge)."""
        g = nx.Graph()
        g.add_nodes_from(range(self.nelements))
        for edge in self.edges:
            if len(edge.elements) == 2:
                (e0, _), (e1, _) = edge.elements
                g.add_edge(e0, e1)
        return g
