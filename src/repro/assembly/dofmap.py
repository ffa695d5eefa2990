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

from ..mesh.mesh2d import Mesh2D
from ..spectral.basis import edge_reversal_sign
from ..spectral.expansions import Expansion2D, QuadExpansion, TriExpansion

__all__ = ["DofMap", "KindStack"]


class KindStack(NamedTuple):
    """The numbering of one element kind, rows in mesh element order.

    ``elems`` are the kind's (n,) mesh element ids, ``dofs`` / ``signs``
    (n, nmodes) global dofs and C0 edge signs (+-1.0), ``edge_ids``
    (n, nedges) dof-map edge ids.  The arrays are read-only (a space is
    shared by the campaign's worker threads), and
    ``DofMap.elem_dofs[e]`` / ``elem_signs[e]`` are row views of them.
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
        self.expansions: dict[str, Expansion2D] = {
            "tri": TriExpansion(order),
            "quad": QuadExpansion(order),
        }
        self._build_identifications()
        self._number()

    # -- periodic identification ------------------------------------------------

    def _build_identifications(self) -> None:
        """Union vertices across periodic tag pairs; vrep[v] is each
        vertex's representative id."""
        mesh = self.mesh
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

        # Edge identification union-find (mesh edge ids).
        eparent = list(range(mesh.nedges))

        def efind(e):
            while eparent[e] != e:
                eparent[e] = eparent[eparent[e]]
                e = eparent[e]
            return e

        for tag_a, tag_b in self.periodic:
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
            # Match the boundary edges of the pair through the vertex map.
            b_edges = {
                frozenset(mesh.elements[ei].edge_vertices(le)): mesh.elem_edges[ei][le]
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
                ea = mesh.elem_edges[ei][le]
                eb = b_edges[key]
                ra, rb = efind(ea), efind(eb)
                if ra != rb:
                    eparent[max(ra, rb)] = min(ra, rb)
        self._edge_class = [efind(e) for e in range(mesh.nedges)]
        self.vrep_raw = np.array([find(v) for v in range(mesh.nvertices)])
        # Compress representatives to 0..n_classes-1.
        reps, vrep = np.unique(self.vrep_raw, return_inverse=True)
        self.vrep = vrep.astype(np.int64)
        self.n_vertex_dofs = reps.size

    def _number(self) -> None:
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
        edge_class = np.asarray(self._edge_class, dtype=np.int64)
        classes = np.unique(edge_class)
        self.n_edges = classes.size
        self.vertex_offset = 0
        self.edge_offset = self.n_vertex_dofs
        self.interior_offset = self.edge_offset + n_edge_dofs * self.n_edges

        groups: dict[str, list[int]] = {}
        for ei, elem in enumerate(mesh.elements):
            groups.setdefault(elem.kind, []).append(ei)
        ni = np.empty(mesh.nelements, dtype=np.int64)
        for kind, elems in groups.items():
            ni[elems] = len(self.expansions[kind].interior_modes)
        first_interior = self.interior_offset + np.cumsum(ni) - ni
        self.ndof = int(self.interior_offset + ni.sum())
        self.nboundary = self.interior_offset

        flip = np.array([edge_reversal_sign(k) for k in range(n_edge_dofs)], dtype=np.float64)
        self.stacks: list[KindStack] = []
        for kind, elem_list in groups.items():
            exp = self.expansions[kind]
            local = np.array(mesh.elements[elem_list[0]].local_edges)
            rep = self.vrep[np.array([mesh.elements[e].vertices for e in elem_list])]
            ra, rb = rep[:, local[:, 0]], rep[:, local[:, 1]]
            if (ra == rb).any():
                raise ValueError(
                    "degenerate periodic identification (an edge's "
                    "endpoints are identified; use >= 2 cells per "
                    "periodic direction)"
                )
            mesh_edges = np.array([mesh.elem_edges[e] for e in elem_list])
            eid = np.searchsorted(classes, edge_class[mesh_edges])
            elems = np.array(elem_list, dtype=np.int64)
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
        order = np.argsort(np.concatenate([st.elems for st in self.stacks]))

        def in_mesh_order(name: str) -> list[np.ndarray]:
            flat = [row for st in self.stacks for row in getattr(st, name)]
            return [flat[i] for i in order]

        self.elem_dofs: list[np.ndarray] = in_mesh_order("dofs")
        self.elem_signs: list[np.ndarray] = in_mesh_order("signs")
        self._edge_ids: list[np.ndarray] = in_mesh_order("edge_ids")

    # -- queries -------------------------------------------------------------

    def expansion(self, elem: int) -> Expansion2D:
        return self.expansions[self.mesh.elements[elem].kind]

    def rows(self, elems) -> tuple[np.ndarray, np.ndarray]:
        """(len(elems), nmodes) dofs and signs of same-kind elements
        (repeats allowed), gathered from their kind's stacks."""
        elems = np.asarray(elems, dtype=np.int64)
        which = np.unique(self._stack_of[elems])
        if which.size != 1:
            raise ValueError("rows() takes a non-empty set of same-kind elements")
        st, r = self.stacks[which[0]], self._row_of[elems]
        return st.dofs[r], st.signs[r]

    def vertex_dof(self, v: int) -> int:
        """Global dof of mesh vertex v (its periodic representative)."""
        return int(self.vrep[v])

    def elem_edge_id(self, elem: int, local_edge: int) -> int:
        """Dof-map edge id of an element side (identified edges for
        periodic meshes)."""
        return int(self._edge_ids[elem][local_edge])

    def edge_dofs(self, eid: int) -> np.ndarray:
        """Global dofs interior to dof-map edge ``eid`` (canonical order)."""
        n = self.order - 1
        base = self.edge_offset + eid * n
        return np.arange(base, base + n, dtype=np.int64)

    def boundary_dofs(self, tags: list[str] | None = None) -> np.ndarray:
        """Global dofs (vertices + edge-interiors) on the given boundary
        tags; on the whole boundary when ``tags`` is None."""
        sides = (
            self.mesh.boundary_sides()
            if tags is None
            else [s for t in tags for s in self.mesh.boundary_sides(t)]
        )
        out: set[int] = set()
        for ei, le in sides:
            elem = self.mesh.elements[ei]
            a, b = elem.edge_vertices(le)
            out.add(self.vertex_dof(a))
            out.add(self.vertex_dof(b))
            eid = self.elem_edge_id(ei, le)
            out.update(int(d) for d in self.edge_dofs(eid))
        return np.array(sorted(out), dtype=np.int64)

    # -- gather/scatter -------------------------------------------------------

    def gather(self, elem: int, uglobal: np.ndarray) -> np.ndarray:
        """Global coefficient vector -> signed element-local coefficients."""
        return self.elem_signs[elem] * uglobal[self.elem_dofs[elem]]

    def scatter_add(self, elem: int, ulocal: np.ndarray, uglobal: np.ndarray) -> None:
        """Accumulate signed element-local values into the global vector."""
        np.add.at(uglobal, self.elem_dofs[elem], self.elem_signs[elem] * ulocal)

    def multiplicity(self) -> np.ndarray:
        """How many elements touch each global dof (1 for interiors)."""
        flat = np.concatenate([st.dofs.ravel() for st in self.stacks])
        return np.bincount(flat, minlength=self.ndof).astype(np.float64)
