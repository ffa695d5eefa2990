"""Static condensation's set-up: what it builds and what it keeps.

``RestackingOperator`` is ``CondensedOperator`` with ``_setup`` frozen as
it stood while the operator re-stacked the per-element matrices it was
given (one ``np.stack`` copy per element kind, with the ``abb`` /
``abi`` / ``aii`` blocks left as views of that copy).  The operator in
``src/`` slices the space's batch stacks instead and copies out only
``abi``, so

* groups, RCM permutation, bandwidth, the banded boundary matrix and its
  Cholesky factor are equal, exactly, on any numpy (tier-1);
* every charge of set-up and solves — the ``(flops, bytes, label)``
  sequence a kernel sampler sees and the ``OpCounter`` snapshot — is
  equal, exactly (tier-1);
* solves agree to 1e-13 in tier-1 and bit for bit on the goldens' numpy
  build (``same_bits``).

The memory contract: a group retains ``abi``, ``aii_inv_aib`` and
``low`` (``linv`` in its place once solved), each owning its memory,
and no solver builds a whole elemental stack.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.assembly.condensation import CondensedOperator
from repro.assembly.space import ElementalMatrices, FunctionSpace
from repro.linalg.banded import BandedSPDSolver
from repro.linalg.counters import charge
from repro.mesh.generators import rectangle_quads
from repro.solvers.helmholtz import HelmholtzDirect

from .._meshes import rectangle_tris
from ._assembled_oracle import element_rows
from .test_batched_equivalence import mixed_mesh, observed


class RestackingOperator(CondensedOperator):
    """``CondensedOperator`` with the re-stacking set-up body."""

    def _setup(self, elem_mats):
        elem_mats = element_rows(elem_mats)
        nelem = len(elem_mats)
        groups = []
        group_schur = []
        setup_charges = [None] * nelem
        for stack in self.space.dofmap.stacks:
            exp, elems = stack.exp, stack.elems
            nb = len(exp.boundary_modes)
            if exp.boundary_modes != list(range(nb)):
                raise ValueError("expansion must order boundary modes first")
            a = np.stack([np.asarray(elem_mats[e], dtype=np.float64) for e in elems])
            abb = a[:, :nb, :nb]
            abi = a[:, :nb, nb:]
            aii = a[:, nb:, nb:]
            ni = aii.shape[-1]
            g = len(elems)
            bdofs = np.ascontiguousarray(stack.dofs[:, :nb])
            bsigns = np.ascontiguousarray(stack.signs[:, :nb])
            idofs = np.ascontiguousarray(stack.dofs[:, nb:])
            if ni:
                low = np.linalg.cholesky(aii)
                aii_inv_aib = np.linalg.solve(aii, np.swapaxes(abi, -1, -2))
                s = abb - np.matmul(abi, aii_inv_aib)
                for e in elems:
                    setup_charges[e] = (
                        2.0 * ni * ni * nb + ni**3 / 3.0,
                        8.0 * (ni + nb) ** 2,
                    )
            else:
                low = None
                aii_inv_aib = np.zeros((g, 0, nb))
                s = abb
            groups.append(
                {
                    "low": low,
                    "linv": None,
                    "abi": abi,
                    "aii_inv_aib": aii_inv_aib,
                    "bdofs": bdofs,
                    "bsigns": bsigns,
                    "idofs": idofs,
                    "nb": nb,
                    "ni": ni,
                    "ng": g,
                }
            )
            group_schur.append(s)
        for e in range(nelem):
            if setup_charges[e] is not None:
                charge(setup_charges[e][0], setup_charges[e][1], "sc-setup")
        return groups, group_schur


MESHES = {
    "quad": lambda: rectangle_quads(3, 2),
    "tri": lambda: rectangle_tris(2, 2),
    "mixed": mixed_mesh,
}
ORDERS = [2, 3, 4, 5, 6, 7, 8]
# Prescribed boundary dofs: none, every third, all (``solver is None``).
PRESCRIBED = {"none": lambda nb: [], "some": lambda nb: range(0, nb, 3), "all": range}


def built(cls, space, dirichlet, monkeypatch):
    """``cls`` built from a fresh Helmholtz set-up, observed, with the
    banded boundary matrix handed to the factorisation."""
    handed = []
    real = BandedSPDSolver.from_banded.__func__

    def from_banded(klass, ab):
        handed.append(ab.copy())
        return real(klass, ab)

    monkeypatch.setattr(BandedSPDSolver, "from_banded", classmethod(from_banded))
    op, seq, snap = observed(
        lambda: cls(space, space.elemental_matrices("helmholtz", 1.5), dirichlet)
    )
    monkeypatch.undo()
    return op, seq, snap, handed


def pairs(mesh, order, bc, monkeypatch):
    space = FunctionSpace(MESHES[mesh](), order)
    dirichlet = PRESCRIBED[bc](space.dofmap.nboundary)
    got = built(CondensedOperator, space, dirichlet, monkeypatch)
    want = built(RestackingOperator, space, dirichlet, monkeypatch)
    return space, got, want


def solves(op, space):
    rng = np.random.default_rng(7 * space.order + space.nelem)
    rhs = rng.standard_normal((3, space.ndof))
    g = rng.standard_normal((3, op.dirichlet.size))
    return observed(lambda: (op.solve(rhs[0], g[0]), op.solve(rhs, g)))


@pytest.mark.parametrize("bc", PRESCRIBED)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("mesh", MESHES)
def test_setup_matches_the_restacking_body(mesh, order, bc, monkeypatch):
    space, got, want = pairs(mesh, order, bc, monkeypatch)
    (op, seq, snap, ab), (ref, ref_seq, ref_snap, ref_ab) = got, want
    assert seq == ref_seq
    assert snap == ref_snap
    assert len(op._groups) == len(ref._groups)
    for grp, ref_grp in zip(op._groups, ref._groups):
        assert grp.keys() == ref_grp.keys()
        for key, val in grp.items():
            if isinstance(val, np.ndarray) or val is None:
                assert (val is None) == (ref_grp[key] is None), key
                if val is not None:
                    assert val.shape == ref_grp[key].shape, key
                    assert np.array_equal(val, ref_grp[key]), key
            else:
                assert val == ref_grp[key], key
    assert np.array_equal(op.perm, ref.perm)
    assert op.bandwidth == ref.bandwidth
    assert (op.solver is None) == (bc == "all") == (ref.solver is None)
    assert len(ab) == len(ref_ab) == (bc != "all")
    for a, b in zip(ab, ref_ab):
        assert np.array_equal(a, b)
    if op.solver is not None:
        assert (op.solver.n, op.solver.kd) == (ref.solver.n, ref.solver.kd)
        assert np.array_equal(op.solver._cb, ref.solver._cb)
    assert (op.s_fk != ref.s_fk).nnz == 0

    (u1, ub), seq, snap = solves(op, space)
    (r1, rb), ref_seq, ref_snap = solves(ref, space)
    assert seq == ref_seq
    assert snap == ref_snap
    for x, r in ((u1, r1), (ub, rb)):
        scale = float(np.max(np.abs(r))) or 1.0
        np.testing.assert_allclose(x, r, rtol=0.0, atol=1e-13 * scale)


@pytest.mark.same_bits
@pytest.mark.parametrize("order", [3, 5, 8])
@pytest.mark.parametrize("mesh", MESHES)
def test_solves_same_bits_as_the_restacking_body(mesh, order, monkeypatch):
    space, got, want = pairs(mesh, order, "some", monkeypatch)
    (u1, ub), _, _ = solves(got[0], space)
    (r1, rb), _, _ = solves(want[0], space)
    assert np.array_equal(u1, r1)
    assert np.array_equal(ub, rb)


def test_a_per_element_list_is_stacked_once_at_the_boundary():
    space = FunctionSpace(MESHES["mixed"](), 4)
    mats = space.elemental_matrices("helmholtz", 1.5)
    assert isinstance(mats, ElementalMatrices)
    assert len(element_rows(mats)) == space.nelem
    assert ElementalMatrices.of(space.dofmap, mats) is mats
    as_list = [m.copy() for m in element_rows(mats)]
    stacked = ElementalMatrices.of(space.dofmap, as_list)
    for a, b in zip(stacked.stacks, mats.stacks):
        assert np.array_equal(a, b)
    for e, row in enumerate(element_rows(stacked)):
        assert np.array_equal(row, as_list[e])
    rhs = np.random.default_rng(5).standard_normal(space.ndof)
    np.testing.assert_array_equal(
        CondensedOperator(space, as_list).solve(rhs),
        CondensedOperator(space, mats).solve(rhs),
    )


# -- the memory contract --------------------------------------------------------


def root(a: np.ndarray) -> np.ndarray:
    while a.base is not None:
        a = a.base
    return a


def retained_bytes(grp: dict, dofmap) -> int:
    """Bytes behind a group's arrays, every ``.base`` chain resolved,
    beyond the dof map's own tables (which the space holds anyway)."""
    shared = {id(t) for st in dofmap.stacks for t in (st.dofs, st.signs)}
    roots = {id(r): r for r in (root(v) for v in grp.values() if isinstance(v, np.ndarray))}
    return sum(r.nbytes for key, r in roots.items() if key not in shared)


@pytest.mark.parametrize("order", [3, 8])
@pytest.mark.parametrize("mesh", MESHES)
def test_a_group_retains_only_what_its_solves_read(mesh, order):
    space = FunctionSpace(MESHES[mesh](), order)
    op = CondensedOperator(
        space,
        space.elemental_matrices("helmholtz", 1.5),
        PRESCRIBED["some"](space.dofmap.nboundary),
    )

    def index_bytes(grp):  # the dof-map rows a group copies out
        return sum(
            grp[k].nbytes for k in ("bdofs", "bsigns", "idofs") if grp[k].base is None
        )

    def expected(grp, keys):
        return sum(grp[k].nbytes for k in keys) + index_bytes(grp)

    for grp in op._groups:
        assert grp["ni"] > 0
        assert retained_bytes(grp, space.dofmap) == expected(
            grp, ("abi", "aii_inv_aib", "low")
        )
        assert grp["abi"].flags.c_contiguous
    op.solve(np.ones(space.ndof), np.zeros(op.dirichlet.size))
    for grp in op._groups:
        assert grp["low"] is None  # L^{-1} replaced it
        assert retained_bytes(grp, space.dofmap) == expected(
            grp, ("abi", "aii_inv_aib", "linv")
        )


def test_no_elemental_stack_outlives_a_direct_solver(monkeypatch):
    stacks = []
    real = FunctionSpace._batch_operator_stack

    def recorded(self, b, kind, lam):
        out = real(self, b, kind, lam)
        stacks.append(weakref.ref(out))
        return out

    monkeypatch.setattr(FunctionSpace, "_batch_operator_stack", recorded)
    space = FunctionSpace(MESHES["mixed"](), 5)
    solver = HelmholtzDirect(space, 2.0)
    assert stacks == []  # set-up builds chunks, never a whole stack
    # ``elem_mats`` rebuilds on access: the same matrices, fresh stacks.
    mats = solver.elem_mats
    assert len(stacks) == 2  # one per element kind
    fresh = space.elemental_matrices("helmholtz", 2.0)
    assert all(np.array_equal(a, b) for a, b in zip(mats.stacks, fresh.stacks))
    del mats, fresh
    gc.collect()
    assert all(ref() is None for ref in stacks)
