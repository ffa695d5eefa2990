import numpy as np
import pytest

from repro.assembly.dofmap import DofMap
from repro.mesh.generators import rectangle_quads
from repro.mesh.mesh2d import Mesh2D

from .._meshes import rectangle_tris
from ..mesh._topology_oracle import edge_orientation, edges
from ..spectral._reference import edge_modes
from ._dofmap_oracle import elem_dofs, elem_signs, expansion, gather


def rotated_two_quads():
    """Two unit quads; the second uses a rotated vertex cycle so the
    shared edge's intrinsic direction is reversed."""
    verts = np.array([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]], dtype=float)
    elems = [(0, 1, 4, 3), (5, 4, 1, 2)]
    return Mesh2D(verts, elems)


def test_dof_counts_quads():
    mesh = rectangle_quads(3, 2)
    P = 4
    dm = DofMap(mesh, P)
    expect = mesh.nvertices + (P - 1) * mesh.nedges + (P - 1) ** 2 * mesh.nelements
    assert dm.ndof == expect
    assert dm.nboundary == mesh.nvertices + (P - 1) * mesh.nedges


def test_dof_counts_tris():
    mesh = rectangle_tris(2, 2)
    P = 5
    dm = DofMap(mesh, P)
    nint = (P - 1) * (P - 2) // 2
    assert dm.ndof == mesh.nvertices + (P - 1) * mesh.nedges + nint * mesh.nelements


def test_expansions_only_for_the_kinds_the_mesh_has():
    from .test_batched_equivalence import mixed_mesh

    assert list(DofMap(rectangle_quads(2, 1), 8).expansions) == ["quad"]
    assert list(DofMap(rectangle_tris(2, 1), 8).expansions) == ["tri"]
    dm = DofMap(mixed_mesh(), 3)
    assert list(dm.expansions) == ["quad", "tri"]
    assert [st.exp for st in dm.stacks] == [dm.expansions["quad"], dm.expansions["tri"]]


def test_order_one_rejected():
    with pytest.raises(ValueError):
        DofMap(rectangle_quads(1, 1), 1)


def test_shared_edge_same_global_dofs():
    mesh = rotated_two_quads()
    dm = DofMap(mesh, 4)
    shared = [e for e in edges(mesh) if len(e.elements) == 2][0]
    (e0, le0), (e1, le1) = shared.elements
    exp0, exp1 = expansion(dm, e0), expansion(dm, e1)
    d0 = elem_dofs(dm)[e0][edge_modes(exp0, le0)]
    d1 = elem_dofs(dm)[e1][edge_modes(exp1, le1)]
    np.testing.assert_array_equal(d0, d1)


def test_reversed_edge_sign_flip():
    mesh = rotated_two_quads()
    dm = DofMap(mesh, 4)
    shared = [e for e in edges(mesh) if len(e.elements) == 2][0]
    (e0, le0), (e1, le1) = shared.elements
    o0 = edge_orientation(mesh, e0, le0)
    o1 = edge_orientation(mesh, e1, le1)
    assert o0 != o1  # the rotated numbering reverses one side
    flipped = e0 if o0 < 0 else e1
    le = le0 if o0 < 0 else le1
    exp = expansion(dm, flipped)
    signs = elem_signs(dm)[flipped][edge_modes(exp, le)]
    np.testing.assert_array_equal(signs, [1.0, -1.0, 1.0])  # (-1)^k


def test_interior_dofs_unique():
    mesh = rectangle_quads(2, 2)
    dm = DofMap(mesh, 3)
    ints = np.concatenate(
        [elem_dofs(dm)[e][expansion(dm, e).interior_modes] for e in range(4)]
    )
    assert len(set(ints.tolist())) == ints.size
    assert ints.min() == dm.interior_offset


def test_gather_scatter_roundtrip():
    mesh = rotated_two_quads()
    dm = DofMap(mesh, 4)
    rng = np.random.default_rng(0)
    ug = rng.standard_normal(dm.ndof)
    # scatter(gather) accumulates multiplicity on shared dofs.
    acc = np.zeros(dm.ndof)
    for e in range(mesh.nelements):
        np.add.at(acc, elem_dofs(dm)[e], elem_signs(dm)[e] * gather(dm, e, ug))
    mult = np.bincount(np.concatenate(elem_dofs(dm)), minlength=dm.ndof)
    np.testing.assert_allclose(acc, mult * ug, rtol=1e-13)


def test_multiplicity_structure():
    mesh = rectangle_quads(2, 1)
    dm = DofMap(mesh, 3)
    mult = np.bincount(np.concatenate(elem_dofs(dm)), minlength=dm.ndof)
    # Interior dofs belong to exactly one element.
    assert np.all(mult[dm.interior_offset :] == 1)
    # The two middle vertices are shared by two elements.
    assert sorted(mult[: mesh.nvertices].tolist()).count(2) == 2


def test_boundary_dofs_all_and_tagged():
    mesh = rectangle_quads(2, 2)
    P = 3
    dm = DofMap(mesh, P)
    all_bnd = dm.boundary_dofs()
    # 8 boundary edges, 8 boundary vertices at 2x2.
    assert all_bnd.size == 8 + 8 * (P - 1)
    left = dm.boundary_dofs(["left"])
    assert left.size == 3 + 2 * (P - 1)
    # Tagged subset is contained in the full set.
    assert set(left.tolist()) <= set(all_bnd.tolist())


def test_edge_dofs_contiguous():
    mesh = rectangle_quads(1, 1)
    dm = DofMap(mesh, 5)
    d0 = dm.edge_dofs(0)
    assert d0.size == 4
    np.testing.assert_array_equal(np.diff(d0), 1)
