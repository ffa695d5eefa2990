"""Frozen reference: the per-element, per-mode ``DofMap`` numbering and
the COO paper-size pattern it replaced.

``edge_tables`` / ``number`` are the bodies of ``DofMap._edge_tables`` /
``DofMap._number`` before numbering became one pass per element kind,
and ``paper_pattern`` / ``rcm_bandwidth`` the pattern, RCM permutation
and bandwidth ``serial_bluff._paper_dofmap_stats`` computed before it
became array-only.  Mode ids are read by scanning the expansion's mode
list, as the old ``Expansion2D`` getters did, so the oracle does not
lean on the tables it checks.  Test-only; do not import from ``src/``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from repro.spectral.basis import edge_reversal_sign


def _ids(exp, kind):
    return [i for i, m in enumerate(exp.modes) if m.kind == kind]


def _edge_modes(exp, edge):
    ids = [
        (m.k, i)
        for i, m in enumerate(exp.modes)
        if m.kind == "edge" and m.entity == edge
    ]
    return [i for _, i in sorted(ids)]


def vertex_reps(dm) -> np.ndarray:
    """``dm.vrep_raw`` compressed to 0..n-1 through a dict (the old
    tail of ``_build_identifications``)."""
    reps = np.unique(dm.vrep_raw)
    lut = {int(r): i for i, r in enumerate(reps)}
    return np.array([lut[int(r)] for r in dm.vrep_raw], dtype=np.int64)


def edge_tables(dm, vrep):
    """Edge numbering over identified edges (the old ``_edge_tables``)."""
    mesh = dm.mesh
    classes = sorted(set(dm._edge_class))
    class_id = {c: i for i, c in enumerate(classes)}
    elem_edge_ids: list[list[int]] = []
    elem_edge_orient: list[list[int]] = []
    for ei, elem in enumerate(mesh.elements):
        ids, orients = [], []
        for le in range(elem.nedges):
            a, b = elem.edge_vertices(le)
            ra, rb = int(vrep[a]), int(vrep[b])
            if ra == rb:
                raise ValueError(
                    "degenerate periodic identification (an edge's "
                    "endpoints are identified; use >= 2 cells per "
                    "periodic direction)"
                )
            ids.append(class_id[dm._edge_class[mesh.elem_edges[ei][le]]])
            orients.append(1 if ra < rb else -1)
        elem_edge_ids.append(ids)
        elem_edge_orient.append(orients)
    return class_id, elem_edge_ids, elem_edge_orient


def number(dm) -> SimpleNamespace:
    """The old ``_number`` over ``dm``'s raw identifications (its
    union-find output ``vrep_raw`` / ``_edge_class``) and expansions."""
    mesh, P = dm.mesh, dm.order
    n_edge_dofs = P - 1
    vrep = vertex_reps(dm)
    table, elem_edge_ids, elem_edge_orient = edge_tables(dm, vrep)
    n_edges = len(table)
    edge_offset = int(np.unique(dm.vrep_raw).size)
    interior_offset = edge_offset + n_edge_dofs * n_edges
    elem_dofs, elem_signs = [], []
    int_cursor = interior_offset
    for ei, elem in enumerate(mesh.elements):
        exp = dm.expansions[elem.kind]
        dofs = np.empty(exp.nmodes, dtype=np.int64)
        signs = np.ones(exp.nmodes)
        for v, mid in enumerate(_ids(exp, "vertex")):
            dofs[mid] = vrep[elem.vertices[v]]
        for le in range(elem.nedges):
            eid = elem_edge_ids[ei][le]
            orient = elem_edge_orient[ei][le]
            base = edge_offset + eid * n_edge_dofs
            for k, mid in enumerate(_edge_modes(exp, le)):
                dofs[mid] = base + k
                if orient < 0:
                    signs[mid] = edge_reversal_sign(k)
        for mid in _ids(exp, "interior"):
            dofs[mid] = int_cursor
            int_cursor += 1
        elem_dofs.append(dofs)
        elem_signs.append(signs)
    return SimpleNamespace(
        vrep=vrep,
        elem_dofs=elem_dofs,
        elem_signs=elem_signs,
        edge_ids=elem_edge_ids,
        n_edges=n_edges,
        edge_offset=edge_offset,
        interior_offset=interior_offset,
        ndof=int_cursor,
        nboundary=interior_offset,
    )


def paper_pattern(dm) -> sp.csr_matrix:
    """Sparsity of the condensed boundary system, one element's COO
    clique at a time (the old ``_paper_dofmap_stats`` loop)."""
    nb = dm.nboundary
    rows, cols = [], []
    for e in range(dm.mesh.nelements):
        exp = dm.expansions[dm.mesh.elements[e].kind]
        d = dm.elem_dofs[e][: len(_ids(exp, "vertex")) + len(_ids(exp, "edge"))]
        n = d.size
        rows.append(np.repeat(d, n))
        cols.append(np.tile(d, n))
    return sp.coo_matrix(
        (
            np.ones(sum(r.size for r in rows)),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(nb, nb),
    ).tocsr()


def rcm_bandwidth(pat) -> tuple[np.ndarray, int]:
    """RCM permutation and the bandwidth of the permuted copy."""
    perm = np.asarray(reverse_cuthill_mckee(pat, symmetric_mode=True))
    p = pat[np.ix_(perm, perm)].tocoo()
    return perm, int(np.abs(p.row - p.col).max())
