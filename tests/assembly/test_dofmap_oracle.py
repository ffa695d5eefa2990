"""The per-kind ``DofMap`` numbering and the array-only paper pattern
against their frozen per-element references (``_dofmap_oracle``).

Every output of the numbering is an integer or a +-1.0, so the check is
equality, not a tolerance: each element's row of the kind stacks (dofs,
signs and edge ids, read through the oracle's per-element views),
``ndof``, ``nboundary`` and ``interior_offset`` over quad, tri and mixed
meshes, rotated and reflected vertex cycles, periodic boxes, a curved
annulus and the four e2e workload meshes, orders 2-8; and the condensed
pattern's ``indptr`` / ``indices``, its RCM permutation and bandwidth
against the COO formula.  ``dofmap.numbering`` in ``tests/goldens.json``
(recorded on the per-element implementation) pins the hashes.
"""

import functools
import hashlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import serial_bluff
from repro.assembly.dofmap import DofMap
from repro.mesh.generators import bluff_body_mesh, rectangle_quads, wing_mesh
from repro.mesh.mesh2d import Element, Mesh2D
from tests import golden

from .._meshes import annulus_mesh, rectangle_tris
from . import _dofmap_oracle as oracle
from .test_batched_equivalence import mixed_mesh
from .test_dofmap import rotated_two_quads

X, XY = [("left", "right")], [("left", "right"), ("bottom", "top")]


def checkered(nx: int, ny: int) -> Mesh2D:
    """A quad mesh of [0, 1]^2 with every other cell split into two
    triangles: both kinds throughout, boundary tags kept."""
    quads = rectangle_quads(nx, ny, 0.0, 1.0, 0.0, 1.0)
    elems, tags = [], {tag: [] for tag in quads.boundary_tags}
    side_tag = {side: tag for tag, sides in quads.boundary_tags.items() for side in sides}
    for ei, elem in enumerate(quads.elements):
        v0, v1, v2, v3 = elem.vertices
        if (ei + ei // nx) % 2:
            pieces = [(v0, v1, v2), (v0, v2, v3)]
            # Quad side -> (piece, its local edge).
            where = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 2)}
        else:
            pieces, where = [elem.vertices], {s: (0, s) for s in range(4)}
        for s, (piece, le) in where.items():
            if (ei, s) in side_tag:
                tags[side_tag[(ei, s)]].append((len(elems) + piece, le))
        elems.extend(pieces)
    return Mesh2D(quads.vertices, elems, tags)

#: name -> (mesh factory, periodic pairs); meshes are made once (a
#: ``DofMap`` never writes to its mesh).
MESHES = {
    "quads": (lambda: rectangle_quads(3, 2), ()),
    "tris": (lambda: rectangle_tris(2, 3), ()),
    "mixed": (mixed_mesh, ()),
    # At order 4 a triangle holds the widest RCM spread of both.
    "checkered": (lambda: checkered(5, 4), ()),
    "checkered_periodic": (lambda: checkered(5, 4), XY),
    "rotated_two_quads": (rotated_two_quads, ()),
    "periodic_x": (lambda: rectangle_quads(3, 2, 0.0, 1.0, 0.0, 1.0), X),
    "periodic_xy": (lambda: rectangle_quads(2, 3, 0.0, 1.0, 0.0, 1.0), XY),
    "periodic_xy_tris": (lambda: rectangle_tris(3, 2, 0.0, 1.0, 0.0, 1.0), XY),
    "annulus": (annulus_mesh, ()),
    # The e2e workloads' meshes: paper_artifacts' paper-size statistics,
    # serial_bluff, nektar_f_weak and ale_cg (full shapes).
    "paper": (lambda: bluff_body_mesh(m=8, nr=4, refine=2), ()),
    "serial_bluff": (lambda: bluff_body_mesh(m=6, nr=3), ()),
    "nektar_f_weak": (lambda: bluff_body_mesh(m=4, nr=2, refine=1), ()),
    "ale_cg": (lambda: wing_mesh(m=6, nr=1), ()),
}
WORKLOAD_ORDERS = {"paper": 8, "serial_bluff": 8, "nektar_f_weak": 5, "ale_cg": 3}


@functools.cache
def mesh_of(name: str) -> Mesh2D:
    return MESHES[name][0]()


def recycled(mesh: Mesh2D, seed: int) -> Mesh2D:
    """``mesh`` with every element's vertex cycle rotated and, for about
    half of them, reversed; boundary tags follow their sides."""
    rng = np.random.default_rng(seed)
    elems = []
    for elem in mesh.elements:
        v = np.roll(elem.vertices, int(rng.integers(len(elem.vertices))))
        elems.append(Element(tuple(int(x) for x in (v[::-1] if rng.random() < 0.5 else v))))

    def side(ei, le):
        ends = set(mesh.elements[ei].edge_vertices(le))
        return next(k for k in range(len(elems[ei].vertices)) if set(elems[ei].edge_vertices(k)) == ends)

    tags = {
        tag: [(ei, side(ei, le)) for ei, le in sides]
        for tag, sides in mesh.boundary_tags.items()
    }
    return Mesh2D(mesh.vertices, [e.vertices for e in elems], tags)


def assert_same_numbering(dm: DofMap) -> None:
    ref = oracle.number(dm)
    np.testing.assert_array_equal(dm.vrep, ref.vrep)
    assert (dm.ndof, dm.nboundary, dm.interior_offset) == (
        ref.ndof,
        ref.nboundary,
        ref.interior_offset,
    )
    assert (dm.n_edges, dm.edge_offset) == (ref.n_edges, ref.edge_offset)
    nelem = dm.mesh.nelements
    dofs, signs, eids = oracle.elem_dofs(dm), oracle.elem_signs(dm), oracle.edge_ids(dm)
    assert len(dofs) == len(signs) == len(eids) == nelem
    for e in range(nelem):
        assert dofs[e].dtype == np.int64 and signs[e].dtype == np.float64
        np.testing.assert_array_equal(dofs[e], ref.elem_dofs[e])
        assert signs[e].tobytes() == ref.elem_signs[e].tobytes()
        assert [int(i) for i in eids[e]] == ref.edge_ids[e]
        assert [oracle.elem_edge_id(dm, e, le) for le in range(len(ref.edge_ids[e]))] == ref.edge_ids[e]


def assert_same_pattern(dm: DofMap) -> None:
    new = serial_bluff._condensed_pattern(dm)
    old = oracle.paper_pattern(dm)
    np.testing.assert_array_equal(new.indptr, old.indptr)
    np.testing.assert_array_equal(new.indices, old.indices)
    perm, kd = serial_bluff._rcm_bandwidth(new, serial_bluff._boundary_dofs(dm))
    old_perm, old_kd = oracle.rcm_bandwidth(old)
    np.testing.assert_array_equal(perm, old_perm)
    assert kd == old_kd


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(MESHES)),
    order=st.integers(2, 8),
    cycles=st.none() | st.integers(0, 2**16),
)
def test_numbering_and_pattern_equal_the_per_element_oracle(name, order, cycles):
    mesh = mesh_of(name)
    if cycles is not None:
        mesh = recycled(mesh, cycles)
    dm = DofMap(mesh, order, periodic=MESHES[name][1])
    assert_same_numbering(dm)
    assert_same_pattern(dm)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_every_mesh_once(name):
    """Each mesh deterministically: a workload mesh at its workload's
    order, the others at order 4."""
    dm = DofMap(mesh_of(name), WORKLOAD_ORDERS.get(name, 4), periodic=MESHES[name][1])
    assert_same_numbering(dm)
    assert_same_pattern(dm)


def test_paper_statistics_and_rcm_bandwidth():
    stats = serial_bluff._paper_dofmap_stats()
    assert (stats["elements"], stats["ndof"], stats["nboundary"], stats["kd"]) == (
        1216,
        78592,
        19008,
        855,
    )


def _identified(mesh, order, periodic) -> DofMap:
    """A dof map stopped after the periodic identification, before the
    numbering (which is what raises)."""
    dm = DofMap.__new__(DofMap)
    dm.mesh, dm.order, dm.periodic = mesh, order, tuple(periodic)
    dm._build_identifications()
    return dm


@pytest.mark.parametrize("periodic", [X, XY])
def test_degenerate_periodic_identification_raises_as_before(periodic):
    mesh = rectangle_quads(1, 2, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError) as old:
        oracle.number(_identified(mesh, 3, periodic))
    assert "degenerate periodic identification" in str(old.value)
    with pytest.raises(ValueError, match=re.escape(str(old.value))):
        DofMap(mesh, 3, periodic=periodic)


# -- structural guards ---------------------------------------------------------


def test_paper_statistics_never_ask_for_an_element_expansion():
    """Nor can anything else: a dof map keeps no per-element view (they
    live on in ``_dofmap_oracle``), its kind stacks are the one layout."""
    dm = DofMap(mixed_mesh(), 4)
    for name in (
        "expansion", "gather", "vertex_dof", "elem_edge_id", "elem_dofs", "elem_signs", "_edge_ids"
    ):
        assert not hasattr(dm, name), name


def test_element_rows_are_read_only_views_of_the_kind_stacks():
    dm = DofMap(mixed_mesh(), 4)
    elem_dofs, elem_signs = oracle.elem_dofs(dm), oracle.elem_signs(dm)
    for rows in (elem_dofs, elem_signs, oracle.edge_ids(dm)):
        with pytest.raises(ValueError, match="read-only"):
            rows[0][0] = 1
    for st_ in dm.stacks:
        for table in (st_.dofs, st_.signs, st_.edge_ids):
            assert not table.flags.writeable
        for row, e in enumerate(st_.elems):
            assert np.shares_memory(elem_dofs[e], st_.dofs)
            np.testing.assert_array_equal(elem_dofs[e], st_.dofs[row])
    i, rows = dm.locate([2, 1, 2])
    dofs, signs = dm.stacks[i].dofs[rows], dm.stacks[i].signs[rows]
    np.testing.assert_array_equal(dofs, [elem_dofs[e] for e in (2, 1, 2)])
    np.testing.assert_array_equal(signs, [elem_signs[e] for e in (2, 1, 2)])
    with pytest.raises(ValueError, match="same-kind"):
        dm.locate([0, 1])


# -- golden ----------------------------------------------------------------------

#: name -> (mesh, order, periodic) of the pinned hashes.
GOLDEN_MESHES = {
    **{name: (name, order, ()) for name, order in WORKLOAD_ORDERS.items()},
    "mixed": ("mixed", 5, ()),
    "periodic_xy": ("periodic_xy", 4, XY),
}


def _sha256(rows, dtype: str) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(np.ascontiguousarray(row, dtype=dtype).tobytes())
    return digest.hexdigest()


def numbering_fingerprint() -> dict:
    out = {"paper_dofmap_stats": serial_bluff._paper_dofmap_stats()}
    for key, (name, order, periodic) in GOLDEN_MESHES.items():
        mesh = mesh_of(name)
        dm = DofMap(mesh, order, periodic=periodic)
        edge_ids = [
            [oracle.elem_edge_id(dm, e, le) for le in range(len(elem.vertices))]
            for e, elem in enumerate(mesh.elements)
        ]
        out[key] = {
            "order": order,
            "ndof": dm.ndof,
            "nboundary": dm.nboundary,
            "interior_offset": dm.interior_offset,
            "elem_dofs": _sha256(oracle.elem_dofs(dm), "<i8"),
            "elem_signs": _sha256(oracle.elem_signs(dm), "<f8"),
            "edge_ids": _sha256(edge_ids, "<i8"),
        }
    return out


GOLDEN_SECTIONS = {"dofmap.numbering": numbering_fingerprint}


def test_numbering_golden():
    golden.check("dofmap.numbering", numbering_fingerprint(), rel=0.0)
