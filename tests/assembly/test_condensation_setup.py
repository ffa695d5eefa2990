"""Static condensation's set-up: what it builds and what it keeps.

``RestackingOperator`` is ``CondensedOperator`` with ``_setup`` frozen as
it stood while the operator re-stacked the per-element matrices it was
given (one ``np.stack`` copy per element kind, with the ``abb`` /
``abi`` / ``aii`` blocks left as views of that copy), followed by what
that operator's first solve added to each group: ``L^{-1}`` of the whole
stack in place of ``low``, and the boundary scatter.  The operator in
``src/`` condenses its elemental matrices chunk by chunk as they are
built, inverts each chunk's factor there, and copies out only ``abi``,
so

* groups, RCM permutation, bandwidth, the banded boundary matrix and its
  Cholesky factor are equal, exactly, on any numpy (tier-1);
* every charge of set-up and solves — the ``(flops, bytes, label)``
  sequence a kernel sampler sees and the ``OpCounter`` snapshot — is
  equal, exactly (tier-1);
* solves agree to 1e-13 in tier-1 and bit for bit on the goldens' numpy
  build (``same_bits``).

The memory contract: a group retains ``abi``, ``aii_inv_aib`` and one
interior factor (``linv`` from set-up on, ``low`` in a ``MassProjector``),
each owning its memory, and no solver keeps an elemental matrix.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.assembly.condensation import CondensedOperator, MassProjector
from repro.assembly.space import FunctionSpace
from repro.linalg.banded import BandedSPDSolver
from repro.linalg.counters import charge
from repro.mesh.generators import rectangle_quads
from repro.solvers.helmholtz import HelmholtzDirect

from .._meshes import rectangle_tris
from ._assembled_oracle import element_rows, kind_stacks
from .test_batched_equivalence import mixed_mesh, observed


class RestackingOperator(CondensedOperator):
    """``CondensedOperator`` with the re-stacking set-up body, then what
    its first solve added to every group with interior modes."""

    def _setup(self, elem_mats):
        groups, group_schur = self._restacking_setup(elem_mats)
        for grp in groups:
            low = grp.pop("low")
            del grp["linv"]
            grp["factor"] = None if low is None else np.linalg.inv(low)
            grp["scatter"] = (
                self._group_scatter(grp["bdofs"], grp["bsigns"]) if grp["ni"] else None
            )
        return groups, group_schur

    def _restacking_setup(self, elem_mats):
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


def same_sparse(a, b) -> bool:
    """Equal shape, sparsity pattern and values."""
    return a.shape == b.shape and (a != b).nnz == 0


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
            elif key == "scatter":
                assert same_sparse(val, ref_grp[key])
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


def assert_keeps_one_factor(op, space, solve):
    def index_bytes(grp):  # the dof-map rows a group copies out
        return sum(
            grp[k].nbytes for k in ("bdofs", "bsigns", "idofs") if grp[k].base is None
        )

    def expected(grp):
        return sum(grp[k].nbytes for k in ("abi", "aii_inv_aib", "factor")) + index_bytes(grp)

    for grp in op._groups:
        assert grp["ni"] > 0
        assert retained_bytes(grp, space.dofmap) == expected(grp)
        assert grp["abi"].flags.c_contiguous
    factors = [grp["factor"] for grp in op._groups]
    solve()
    for grp, factor in zip(op._groups, factors):  # a solve adds and drops nothing
        assert grp["factor"] is factor
        assert retained_bytes(grp, space.dofmap) == expected(grp)


@pytest.mark.parametrize("order", [3, 8])
@pytest.mark.parametrize("mesh", MESHES)
def test_a_group_retains_only_what_its_solves_read(mesh, order):
    """``abi``, ``aii_inv_aib`` and ``linv``, from set-up on."""
    space = FunctionSpace(MESHES[mesh](), order)
    op = CondensedOperator(
        space,
        space.elemental_matrices("helmholtz", 1.5),
        PRESCRIBED["some"](space.dofmap.nboundary),
    )
    assert_keeps_one_factor(
        op, space, lambda: op.solve(np.ones(space.ndof), np.zeros(op.dirichlet.size))
    )


@pytest.mark.parametrize("mesh", MESHES)
def test_a_projector_group_retains_low_in_place_of_linv(mesh):
    space = FunctionSpace(MESHES[mesh](), 5)
    op = MassProjector(space)
    assert_keeps_one_factor(op, space, lambda: op.solve(np.ones(space.ndof)))
    # The factor is L itself: lower triangular, L L^T the interior blocks.
    grp, aii = op._groups[0], kind_stacks(space.elemental_matrices("mass"))[0]
    low, aii = grp["factor"], aii[:, grp["nb"] :, grp["nb"] :]
    assert np.array_equal(low, np.tril(low))
    np.testing.assert_allclose(
        low @ np.swapaxes(low, -1, -2), aii, rtol=0.0, atol=1e-12 * np.abs(aii).max()
    )


def test_no_elemental_stack_outlives_a_direct_solver(monkeypatch):
    chunks = []
    real = FunctionSpace._batch_operator_chunks

    def recorded(self, b, kind, lam):
        for rows, mats in real(self, b, kind, lam):
            chunks.append(weakref.ref(mats))
            yield rows, mats
            del mats

    monkeypatch.setattr(FunctionSpace, "_batch_operator_chunks", recorded)
    space = FunctionSpace(MESHES["mixed"](), 5)
    solver = HelmholtzDirect(space, 2.0)
    assert chunks and all(ref() is None for ref in chunks)  # set-up keeps no chunk
    # ``elem_mats`` is the recipe: every read builds the same matrices afresh.
    built = len(chunks)
    mats = kind_stacks(solver.elem_mats)
    assert len(chunks) == 2 * built
    fresh = kind_stacks(space.elemental_matrices("helmholtz", 2.0))
    assert all(np.array_equal(a, b) for a, b in zip(mats, fresh))
    del mats, fresh
    gc.collect()
    assert all(ref() is None for ref in chunks)
