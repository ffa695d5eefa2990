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

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations

import networkx as nx
import numpy as np

__all__ = ["TRI_EDGES", "QUAD_EDGES", "Element", "Mesh2D"]

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
    def local_edges(self) -> tuple[tuple[int, int], ...]:
        return TRI_EDGES if self.kind == "tri" else QUAD_EDGES

    def edge_vertices(self, le: int) -> tuple[int, int]:
        """Global (first, second) vertex ids of local edge ``le``,
        in the edge's intrinsic direction."""
        a, b = self.local_edges[le]
        return self.vertices[a], self.vertices[b]


#: Local edge endpoints by side count, a triangle's row padded to four.
_LOCAL_EDGES = {4: np.array(QUAD_EDGES), 3: np.array(TRI_EDGES + ((0, 0),))}


def _vertex_table(elements: list, nvertices: int) -> np.ndarray:
    """The (nelements, 4) vertex table of ``elements``, -1 past a
    triangle's third, checked as :class:`Element` checks each element
    (3 or 4 vertices, none repeated; the first failing element names
    the error), then every id against ``nvertices``."""
    sizes = np.fromiter(map(len, elements), np.int64, len(elements))
    sized = (sizes == 3) | (sizes == 4)
    n = len(sizes) if sized.all() else int(np.argmin(sized))  # first bad size
    real = np.arange(4) < sizes[:n, None]
    table = np.full(real.shape, -1, dtype=np.int64)
    table[real] = np.fromiter(chain.from_iterable(elements[:n]), np.int64)
    repeated = np.zeros(n, dtype=bool)
    for i, j in combinations(range(4), 2):
        repeated |= (table[:, i] == table[:, j]) & real[:, j]
    if repeated.any():
        raise ValueError("repeated vertex in element")
    if n < len(sizes):
        raise ValueError("elements must have 3 or 4 vertices")
    ids = table[real]
    if (ids < 0).any() or (ids >= nvertices).any():
        raise ValueError("element references unknown vertex")
    return table


def _kind_positions(quad: np.ndarray) -> dict[str, np.ndarray]:
    """The positions where ``quad`` is true ("quad") and false ("tri"),
    ascending, kinds in order of first appearance; an absent kind has
    no entry."""
    groups = [(kind, np.flatnonzero(mask)) for kind, mask in (("quad", quad), ("tri", ~quad))]
    return dict(sorted((g for g in groups if g[1].size), key=lambda g: g[1][0]))


class Mesh2D:
    """An unstructured conforming mesh of triangles and quadrilaterals.

    The topology is integer tables, built in array passes:
    ``elem_vertices`` (nelements, 4) and ``elem_edges`` (nelements, 4)
    hold each element's vertex and global edge ids (-1 past a
    triangle's third); ``edge_sides`` (nedges, 2, 2) holds each edge's
    (element, local edge) sides in element order, the second (-1, -1)
    on the boundary; ``edge_nsides`` (nedges,) counts them.  Edges are
    numbered in order of first appearance, walking elements in order
    and each element's local edges ascending.
    """

    def __init__(
        self,
        vertices: np.ndarray,
        elements: list[tuple[int, ...]],
        boundary_tags: dict[str, list[tuple[int, int]]] | None = None,
    ):
        self.vertices = np.asarray(vertices, dtype=np.float64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        self.elem_vertices = _vertex_table(list(elements), self.nvertices)
        self._build_edges()
        self.boundary_tags = dict(boundary_tags or {})
        self._validate_tags()
        # Optional curved-edge registry: (elem, local_edge) -> CurveFn
        # (see repro.mesh.curved); empty means straight-sided.
        self.curves: dict[tuple[int, int], object] = {}

    # -- topology ---------------------------------------------------------------

    def _build_edges(self) -> None:
        """Number the edges with one ``np.unique`` over the sides'
        (low, high) vertex keys, ids in first-appearance order."""
        ev = self.elem_vertices
        real = ev >= 0  # a side per vertex
        local = np.where(real[:, 3, None, None], _LOCAL_EDGES[4], _LOCAL_EDGES[3])
        ends = np.take_along_axis(ev, local.reshape(-1, 8), axis=1).reshape(-1, 4, 2)
        elem, le = np.nonzero(real)  # every side, in walk order
        lo, hi = ends[real].min(axis=1), ends[real].max(axis=1)
        _, first, inverse, counts = np.unique(
            lo * self.nvertices + hi, return_index=True, return_inverse=True, return_counts=True
        )
        # Each side's occurrence of its edge so far (0 first, 1 second).
        walk = np.argsort(inverse, kind="stable")
        occ = np.empty_like(walk)
        occ[walk] = np.arange(walk.size) - (np.cumsum(counts) - counts)[inverse[walk]]
        if counts.size and counts.max() > 2:
            s = int(np.flatnonzero(occ >= 2)[0])
            key = (int(lo[s]), int(hi[s]))
            raise ValueError(f"edge {key} shared by more than two elements (non-manifold mesh)")
        order = np.argsort(first)
        rank = np.empty_like(first)
        rank[order] = np.arange(first.size)
        side_edge = rank[inverse]
        self.elem_edges = np.full(ev.shape, -1, dtype=np.int64)
        self.elem_edges[real] = side_edge
        sides = np.full((first.size, 2, 2), -1, dtype=np.int64)
        sides[side_edge, occ] = np.stack([elem, le], axis=1)
        self.edge_sides = sides
        self.edge_nsides = counts[order]

    def _validate_tags(self) -> None:
        keys, owners = [], []
        for tag, sides in self.boundary_tags.items():
            ei, le = np.asarray(sides, dtype=np.int64).reshape(-1, 2).T
            known = (ei >= 0) & (ei < self.nelements)
            valid = known & (le >= 0) & (le < 4)
            eid = np.full(ei.shape, -1)
            eid[valid] = self.elem_edges[ei[valid], le[valid]]
            boundary = (eid >= 0) & (self.edge_nsides[eid] == 1)
            bad = np.flatnonzero(~boundary)
            if bad.size:
                i = bad[0]
                if not known[i]:
                    raise ValueError(f"tag {tag!r}: element {ei[i]} out of range")
                raise ValueError(f"tag {tag!r}: ({ei[i]}, {le[i]}) is not a boundary side")
            keys.append(ei * 4 + le)
            owners += [tag] * ei.size
        # A side tagged twice would be integrated twice by every surface term.
        if keys:
            keys = np.concatenate(keys)
            _, first, counts = np.unique(keys, return_index=True, return_counts=True)
            if counts.max(initial=0) > 1:
                key = keys[min(first[counts > 1])]
                tags = [owners[i] for i in np.flatnonzero(keys == key)]
                side = divmod(int(key), 4)
                raise ValueError(f"boundary side {side} is tagged more than once: {tags}")

    @cached_property
    def elements(self) -> list[Element]:
        """One :class:`Element` per row of ``elem_vertices``, built on
        first read (the solvers read the tables)."""
        rows = self.elem_vertices.tolist()
        return [Element(tuple(row[: 4 if row[3] >= 0 else 3])) for row in rows]

    @property
    def nvertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def nelements(self) -> int:
        return len(self.elem_vertices)

    @property
    def nedges(self) -> int:
        return len(self.edge_sides)

    def boundary_sides(self, tag: str | None = None) -> list[tuple[int, int]]:
        """(element, local_edge) pairs on the boundary; all, in edge id
        order, if tag is None."""
        if tag is not None:
            if tag not in self.boundary_tags:
                raise KeyError(f"unknown boundary tag {tag!r}")
            return list(self.boundary_tags[tag])
        return list(map(tuple, self.edge_sides[self.edge_nsides == 1, 0].tolist()))

    def side_vertices(self, sides) -> np.ndarray:
        """(n, 2) global vertex ids of the (element, local edge) ``sides``,
        each in its side's intrinsic direction."""
        ei, le = np.asarray(sides, dtype=np.int64).reshape(-1, 2).T
        quad = (self.elem_vertices[ei, 3] >= 0)[:, None]
        local = np.where(quad, _LOCAL_EDGES[4][le], _LOCAL_EDGES[3][le])
        return np.take_along_axis(self.elem_vertices[ei], local, axis=1)

    def kind_groups(self) -> dict[str, np.ndarray]:
        """Each element kind's element ids in mesh order, kinds in order
        of first appearance."""
        return _kind_positions(self.elem_vertices[:, 3] >= 0)

    # -- geometry ----------------------------------------------------------------

    def element_areas(self) -> np.ndarray:
        """Signed (shoelace) areas; positive for counterclockwise elements.
        A triangle's row repeats its first vertex, whose term is zero."""
        ev = self.elem_vertices
        xy = self.vertices[np.where(ev >= 0, ev, ev[:, :1])]
        x, y = xy[..., 0], xy[..., 1]
        return 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)

    # -- graphs -------------------------------------------------------------------

    def dual_graph(self) -> nx.Graph:
        """Element adjacency graph (shared edge => graph edge)."""
        g = nx.Graph()
        g.add_nodes_from(range(self.nelements))
        g.add_edges_from(self.edge_sides[self.edge_nsides == 2, :, 0].tolist())
        return g
