"""Local-to-global degree-of-freedom maps with C0 continuity.

Global dofs are numbered vertices first, then edge-interior dofs (P-1
per mesh edge, defined along the edge's canonical low->high direction),
then element-interior dofs — the boundary/interior split of Figure 10.
C0 continuity across elements is imposed "by choosing appropriately the
edge modes" (Section 1.3): shared vertex and edge dofs get one global
number, and an element whose intrinsic edge direction opposes the
canonical one flips the sign of its odd edge modes
(:func:`repro.spectral.basis.edge_reversal_sign`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from ..mesh.mesh2d import QUAD_EDGES, TRI_EDGES, Mesh2D
from ..spectral.basis import edge_reversal_sign
from ..spectral.expansions import Expansion2D, QuadExpansion, TriExpansion

__all__ = ["DofMap", "KindStack"]


def _edge_keys(ends: np.ndarray, nverts: int) -> np.ndarray:
    """One integer per (n, 2) vertex pair, the same in either order."""
    return ends.min(axis=1) * nverts + ends.max(axis=1)


def _smallest_identified(n: int, pairs: list[np.ndarray]) -> np.ndarray:
    """For ids 0..n-1 joined by the (k, 2) ``pairs``, the smallest id
    each one is joined to."""
    if not pairs:
        return np.arange(n)
    a, b = np.concatenate(pairs).T
    graph = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(n, n))
    _, label = connected_components(graph, directed=False)
    smallest = np.full(label.max() + 1, n)
    np.minimum.at(smallest, label, np.arange(n))
    return smallest[label]


_EXPANSIONS = {"tri": TriExpansion, "quad": QuadExpansion}
_LOCAL_EDGES = {"tri": np.array(TRI_EDGES), "quad": np.array(QUAD_EDGES)}


class KindStack(NamedTuple):
    """The numbering of one element kind, rows in mesh element order.

    ``elems`` are the kind's (n,) mesh element ids, ``dofs`` / ``signs``
    (n, nmodes) global dofs and C0 edge signs (+-1.0), ``edge_ids``
    (n, nedges) dof-map edge ids.  The arrays are read-only (a space is
    shared by the campaign's worker threads).  They are the one
    per-element layout: :meth:`DofMap.locate` finds an element's row.
    """

    kind: str
    exp: Expansion2D
    elems: np.ndarray
    dofs: np.ndarray
    signs: np.ndarray
    edge_ids: np.ndarray


class DofMap:
    """Global C0 numbering for a mesh at uniform polynomial order.

    ``periodic`` pairs boundary tags whose sides are identified by a
    rigid translation (e.g. ``[("left", "right")]``): matched vertices
    and edges share global dofs, turning the domain into a (partially)
    periodic box — the discretisation the paper's "box codes" for
    homogeneous turbulence use.
    """

    def __init__(
        self,
        mesh: Mesh2D,
        order: int,
        periodic: list[tuple[str, str]] | tuple = (),
    ):
        if order < 2:
            raise ValueError("dof map needs order >= 2")
        self.mesh = mesh
        self.order = order
        self.periodic = tuple(periodic)
        # One expansion per element kind the mesh has, no more: an
        # all-quad mesh builds no triangle tables.
        groups = mesh.kind_groups()
        self.expansions: dict[str, Expansion2D] = {
            kind: _EXPANSIONS[kind](order) for kind in groups
        }
        self._build_identifications()
        self._number(groups)

    # -- periodic identification ------------------------------------------------

    def _build_identifications(self) -> None:
        """Identify vertices and edges across periodic tag pairs:
        ``vrep_raw[v]`` / ``_edge_class[e]`` is the smallest vertex /
        mesh edge id identified with ``v`` / ``e`` (the root a union-find
        that hangs the larger root under the smaller one would give)."""
        mesh = self.mesh
        vpairs, epairs = [], []
        for tag_a, tag_b in self.periodic:
            sides_a, sides_b = mesh.boundary_sides(tag_a), mesh.boundary_sides(tag_b)
            ends_a, ends_b = mesh.side_vertices(sides_a), mesh.side_vertices(sides_b)
            va, vb = np.unique(ends_a), np.unique(ends_b)
            if len(va) != len(vb):
                raise ValueError(
                    f"periodic tags {tag_a!r}/{tag_b!r} have unequal vertex counts"
                )
            ca = mesh.vertices[va]
            cb = mesh.vertices[vb]
            t = cb.mean(axis=0) - ca.mean(axis=0)
            scale = max(1.0, float(np.abs(mesh.vertices).max()))
            d = np.linalg.norm(cb[None, :, :] - (ca + t)[:, None, :], axis=2)
            j = np.argmin(d, axis=1)
            lost = np.flatnonzero(d[np.arange(va.size), j] > 1e-8 * scale)
            if lost.size:
                raise ValueError(
                    f"periodic tags {tag_a!r}/{tag_b!r}: vertex {va[lost[0]]} has "
                    "no translated partner"
                )
            vpairs.append(np.stack([va, vb[j]], axis=1))
            # Match the boundary edges of the pair through the vertex map.
            partner = np.full(mesh.nvertices, -1, dtype=np.int64)
            partner[va] = vb[j]
            key_b = _edge_keys(ends_b, mesh.nvertices)
            key_a = _edge_keys(partner[ends_a], mesh.nvertices)
            known, at = np.unique(key_b, return_index=True)
            pos = np.minimum(np.searchsorted(known, key_a), known.size - 1)
            lost = np.flatnonzero(known[pos] != key_a)
            if lost.size:
                a1, a2 = ends_a[lost[0]]
                raise ValueError(
                    f"periodic tags {tag_a!r}/{tag_b!r}: edge "
                    f"({a1}, {a2}) has no translated partner edge"
                )
            ea, eb = (
                mesh.elem_edges[tuple(np.asarray(s, dtype=np.int64).reshape(-1, 2).T)]
                for s in (sides_a, sides_b)
            )
            epairs.append(np.stack([ea, eb[at[pos]]], axis=1))
        self._edge_class = _smallest_identified(mesh.nedges, epairs)
        self.vrep_raw = _smallest_identified(mesh.nvertices, vpairs)
        # Compress representatives to 0..n_classes-1.
        reps, vrep = np.unique(self.vrep_raw, return_inverse=True)
        self.vrep = vrep.astype(np.int64)
        self.n_vertex_dofs = reps.size

    def _number(self, groups: dict[str, np.ndarray]) -> None:
        """Number every element kind in one pass over its stacks.

        Edges are numbered over *identified* edges: distinct physical
        edges stay distinct unless explicitly matched by a periodic pair
        (endpoint reps alone would wrongly collapse parallel edges on
        small tori).  The canonical direction of each (merged) edge is
        low -> high in vertex-representative space — consistent on both
        faces of a periodic pair by construction.  Interior dofs run on
        in mesh element order.
        """
        mesh, P = self.mesh, self.order
        n_edge_dofs = P - 1
        classes, self._edge_id = np.unique(self._edge_class, return_inverse=True)
        self.n_edges = classes.size
        self.vertex_offset = 0
        self.edge_offset = self.n_vertex_dofs
        self.interior_offset = self.edge_offset + n_edge_dofs * self.n_edges

        ni = np.empty(mesh.nelements, dtype=np.int64)
        for kind, elems in groups.items():
            ni[elems] = len(self.expansions[kind].interior_modes)
        first_interior = self.interior_offset + np.cumsum(ni) - ni
        self.ndof = int(self.interior_offset + ni.sum())
        self.nboundary = self.interior_offset

        flip = np.array([edge_reversal_sign(k) for k in range(n_edge_dofs)], dtype=np.float64)
        self.stacks: list[KindStack] = []
        for kind, elems in groups.items():
            exp = self.expansions[kind]
            local = _LOCAL_EDGES[kind]
            rep = self.vrep[mesh.elem_vertices[elems, : exp.nverts]]
            ra, rb = rep[:, local[:, 0]], rep[:, local[:, 1]]
            if (ra == rb).any():
                raise ValueError(
                    "degenerate periodic identification (an edge's "
                    "endpoints are identified; use >= 2 cells per "
                    "periodic direction)"
                )
            eid = self._edge_id[mesh.elem_edges[elems, : exp.nedges]]
            edge_modes = exp.edge_mode_table
            dofs = np.empty((elems.size, exp.nmodes), dtype=np.int64)
            signs = np.ones((elems.size, exp.nmodes))
            dofs[:, exp.vertex_modes] = rep
            dofs[:, edge_modes] = (
                self.edge_offset + eid[:, :, None] * n_edge_dofs + np.arange(n_edge_dofs)
            )
            # A side running against its edge's canonical direction.
            signs[:, edge_modes] = np.where((ra > rb)[:, :, None], flip, 1.0)
            interior = exp.interior_modes
            dofs[:, interior] = first_interior[elems, None] + np.arange(len(interior))
            for table in (elems, dofs, signs, eid):
                table.setflags(write=False)
            self.stacks.append(KindStack(kind, exp, elems, dofs, signs, eid))

        # Where each element's row sits: stack index and row within it.
        self._stack_of = np.empty(mesh.nelements, dtype=np.int64)
        self._row_of = np.empty(mesh.nelements, dtype=np.int64)
        for i, st in enumerate(self.stacks):
            self._stack_of[st.elems] = i
            self._row_of[st.elems] = np.arange(st.elems.size)

    # -- queries -------------------------------------------------------------

    def locate(self, elems) -> tuple[int, np.ndarray]:
        """``(i, rows)``: the kind stack ``stacks[i]`` of same-kind
        elements (repeats allowed) and their rows in it."""
        elems = np.asarray(elems, dtype=np.int64)
        which = np.unique(self._stack_of[elems])
        if which.size != 1:
            raise ValueError("locate() takes a non-empty set of same-kind elements")
        return int(which[0]), self._row_of[elems]

    def edge_dofs(self, eid) -> np.ndarray:
        """Global dofs interior to dof-map edge ``eid`` (canonical order):
        (order - 1,) of one edge id, a row per id of an array of them."""
        n = self.order - 1
        base = self.edge_offset + np.asarray(eid, dtype=np.int64)[..., None] * n
        return base + np.arange(n, dtype=np.int64)

    def boundary_dofs(self, tags: list[str] | None = None) -> np.ndarray:
        """Global dofs (vertices + edge-interiors) on the given boundary
        tags, sorted; on the whole boundary when ``tags`` is None."""
        mesh = self.mesh
        sides = (
            mesh.boundary_sides()
            if tags is None
            else [s for t in tags for s in mesh.boundary_sides(t)]
        )
        ei, le = np.asarray(sides, dtype=np.int64).reshape(-1, 2).T
        verts = self.vrep[mesh.side_vertices(sides)]
        edges = self.edge_dofs(self._edge_id[mesh.elem_edges[ei, le]])
        return np.unique(np.concatenate((verts.ravel(), edges.ravel())))
