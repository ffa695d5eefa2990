"""Static condensation: NekTar's actual solver structure.

With the hierarchical basis ordered boundary-first (Figure 10), each
elemental matrix splits into boundary/interior blocks

    A_e = [[Abb, Abi],
           [Aib, Aii]]

and the interior dofs — unique to one element — can be eliminated
exactly: the global solve reduces to the assembled *Schur complement*
S = Abb - Abi Aii^{-1} Aib on the (much smaller, much narrower-banded)
boundary system, followed by dense per-element back-substitution for
the interiors.  This is why the paper's serial profile is ~60% "matrix
inversions" rather than one giant banded sweep, and why "most of the
calls to dgemm are for small n": the per-element blocks are small
dense matrices.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..linalg import blas
from ..linalg.banded import BandedSPDSolver
from ..linalg.counters import charge
from .global_system import dirichlet_block, rcm_band

__all__ = ["CondensedOperator", "MassProjector"]


class CondensedOperator:
    """Statically condensed global SPD operator: every direct solve.

    ``solve(rhs, dirichlet_values)`` works over full global vectors; the
    factorisation lives on the boundary Schur complement only, RCM
    banded (:func:`~repro.assembly.global_system.rcm_band`).  Dirichlet
    dofs must be boundary dofs (vertex/edge), which velocity and
    pressure boundary conditions always are.

    ``elem_mats`` is ``space.elemental_matrices(kind, lam)``, an
    :class:`~repro.assembly.space.ElementalOperator` of the same dof map
    (another space's is a ``ValueError``): the set-up builds and condenses
    the matrices chunk by chunk, never a whole kind stack at once.  The
    operator keeps, per group, ``abi``, ``aii_inv_aib``, the interior
    factor ``linv`` and the boundary scatter, plus the banded boundary
    factor (DESIGN.md section 9, "What a condensed operator keeps").  All
    of it is built in ``__init__`` and never written again, so threads
    may share one operator (the campaign's ``OperatorCache`` does).
    """

    def __init__(self, space, elem_mats, dirichlet_dofs=()):
        self.space = space
        dm = space.dofmap
        if elem_mats.dofmap is not dm:
            raise ValueError(
                "elem_mats are another space's elemental matrices: pass "
                "space.elemental_matrices(...) of the space being condensed"
            )
        self.nb_glob = dm.nboundary
        self.dirichlet = np.asarray(
            sorted(set(int(d) for d in dirichlet_dofs)), dtype=np.int64
        )
        if self.dirichlet.size and self.dirichlet.max() >= self.nb_glob:
            raise ValueError("Dirichlet dofs must be boundary (vertex/edge) dofs")

        self._groups, schur = self._setup(elem_mats)
        s_glob = self._assemble_schur(schur)
        del schur
        self.free = np.setdiff1d(np.arange(self.nb_glob), self.dirichlet)
        s_ff = s_glob[np.ix_(self.free, self.free)].tocsr()
        self.s_fk = s_glob[np.ix_(self.free, self.dirichlet)].tocsr()
        del s_glob
        if self.free.size == 0:
            # Every boundary dof is prescribed: nothing to factor, the
            # solve is pure interior back-substitution.
            self.perm = np.zeros(0, dtype=np.int64)
            self.solver = None
            self.bandwidth = 0
            return
        self.perm, ab = rcm_band(s_ff)
        del s_ff  # only the band reaches the factorisation, which owns it
        self.solver = BandedSPDSolver.from_banded(ab)
        self.bandwidth = self.solver.kd

    def _assemble_schur(self, schur: list[np.ndarray]) -> sp.csr_matrix:
        """Global boundary Schur complement: whole element stacks sign-
        conjugated and scattered at once (tocsr sums duplicate entries)."""
        rows, cols, vals = [], [], []
        for grp, s in zip(self._groups, schur):
            nb, bdofs, bsigns = grp["nb"], grp["bdofs"], grp["bsigns"]
            ss = bsigns[:, :, None] * s * bsigns[:, None, :]
            rows.append(np.repeat(bdofs, nb, axis=1).ravel())
            cols.append(np.tile(bdofs, (1, nb)).ravel())
            vals.append(ss.ravel())
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.nb_glob, self.nb_glob),
        ).tocsr()

    # -- pre-factorisation ----------------------------------------------------

    # repro: waive[accounting] priced by _setup's per-element sc-setup charge
    @staticmethod
    def _interior_factor(a_ii: np.ndarray) -> np.ndarray:
        """The interior factor a group keeps of a stack of interior
        blocks: L^{-1} of their Cholesky factors L, the operand of
        :meth:`solve`'s Level-3 sweeps (the blocks are tiny and
        well-conditioned, so the explicit inverse loses nothing)."""
        return np.linalg.inv(np.linalg.cholesky(a_ii))

    def _setup(self, mats) -> tuple[list[dict], list[np.ndarray]]:
        """Per element kind (one group per dof-map stack), factor the
        interior blocks with stacked Cholesky calls and eliminate them
        with stacked solves, one chunk of the kind's elemental matrices
        at a time.  Returns ``(groups, schur)`` with one stacked
        (ng, nb, nb) Schur complement per group.

        ``mats.chunks(i)`` builds each chunk when it is read, so no
        whole kind stack is ever alive.  The stacked LAPACK and
        ``matmul`` calls work per item, so chunking moves no bit.  A
        group keeps only what a solve reads, each in its own memory:
        ``abi``, ``aii_inv_aib``, the interior factor
        (:meth:`_interior_factor`) and the boundary scatter
        (:meth:`_group_scatter`).

        Charges one ``sc-setup`` per element, in element order, after
        every chunk's build (the value is not an integer, so a single
        ng-times charge would round differently).
        """
        groups: list[dict] = []
        group_schur: list[np.ndarray] = []
        setup_charges: list[tuple[float, float] | None] = [None] * self.space.nelem
        for i, stack in enumerate(self.space.dofmap.stacks):
            exp, elems = stack.exp, stack.elems
            nb = len(exp.boundary_modes)
            if exp.boundary_modes != list(range(nb)):
                raise ValueError("expansion must order boundary modes first")
            ni = exp.nmodes - nb
            g = len(elems)
            abi = np.empty((g, nb, ni))
            s = np.empty((g, nb, nb))
            factor = np.empty((g, ni, ni)) if ni else None
            aii_inv_aib = np.empty((g, ni, nb)) if ni else np.zeros((g, 0, nb))
            for rows, a in mats.chunks(i):
                a_bb, a_bi, a_ii = a[:, :nb, :nb], a[:, :nb, nb:], a[:, nb:, nb:]
                abi[rows] = a_bi
                if not ni:
                    s[rows] = a_bb
                    continue
                factor[rows] = self._interior_factor(a_ii)
                # Aii X = Aib, one stacked LAPACK solve (the interior
                # blocks are SPD and tiny, so the LU detour costs nothing
                # and beats a Python-level substitution sweep by far).
                x = np.linalg.solve(a_ii, np.swapaxes(a_bi, -1, -2))
                aii_inv_aib[rows] = x
                s[rows] = a_bb - np.matmul(a_bi, x)
            if ni:
                for e in elems:
                    setup_charges[e] = (
                        2.0 * ni * ni * nb + ni**3 / 3.0,
                        8.0 * (ni + nb) ** 2,
                    )
            bdofs = np.ascontiguousarray(stack.dofs[:, :nb])
            bsigns = np.ascontiguousarray(stack.signs[:, :nb])
            groups.append(
                {
                    "factor": factor,
                    "abi": abi,
                    "aii_inv_aib": aii_inv_aib,
                    "scatter": self._group_scatter(bdofs, bsigns) if ni else None,
                    "bdofs": bdofs,
                    "bsigns": bsigns,
                    "idofs": np.ascontiguousarray(stack.dofs[:, nb:]),
                    "nb": nb,
                    "ni": ni,
                    "ng": g,
                }
            )
            group_schur.append(s)
        for charges in setup_charges:
            if charges is not None:
                charge(charges[0], charges[1], "sc-setup")
        return groups, group_schur

    def _group_scatter(self, bdofs: np.ndarray, bsigns: np.ndarray) -> sp.csr_matrix:
        """CSR gather/scatter Q_e^T of one group's boundary dofs (signs
        folded in), so the condense correction is one spmv over the whole
        stack instead of an ``np.subtract.at`` per RHS."""
        return sp.csr_matrix(
            (bsigns.ravel().astype(np.float64), (bdofs.ravel(), np.arange(bdofs.size))),
            shape=(self.nb_glob, bdofs.size),
        )

    @property
    def ndof(self) -> int:
        return self.space.ndof

    def solve(
        self, rhs: np.ndarray, dirichlet_values: np.ndarray | None = None
    ) -> np.ndarray:
        """Solve A u = rhs (assembled global load vector).

        ``rhs`` is one (ndof,) vector or a row-stacked (nrhs, ndof)
        block (the NS inner loop's multi-RHS path); a vector is a
        one-row block.  Either way: one batched condense, one boundary
        ``solve_many``, one batched back-substitution, charging exactly
        nrhs column-by-column solves.  ``dirichlet_values`` is a single
        (nd,) vector shared by every row, or one (nrhs, nd) row per RHS.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        block = rhs[None] if rhs.ndim == 1 else rhs
        if block.ndim != 2 or block.shape[1] != self.ndof:
            raise ValueError("rhs must cover all global dofs")
        nrhs = block.shape[0]
        dv = dirichlet_block(dirichlet_values, nrhs, self.dirichlet.size)
        # Condense: gb = rb - sum_e Q_e^T Abi Aii^{-1} fi.
        gb = block[:, : self.nb_glob].copy()
        swept: list[tuple[dict, np.ndarray]] = []  # groups with interiors, Aii^{-1} fi
        for grp in self._groups:
            if grp["ni"] == 0:
                continue
            # Aii^{-1} fi over elements x RHS: the two triangular sweeps
            # as Level-3 multiplies by L^{-1}; two dtrsm charges price
            # one cho_solve per item-RHS.
            linv = grp["factor"]
            y = blas.dtrsm_batched(linv, block[:, grp["idofs"]], label="sc-chol")
            ui = blas.dtrsm_batched(linv, y, trans=True, label="sc-chol")
            swept.append((grp, ui))
            corr = np.zeros((nrhs, grp["ng"], grp["nb"]))
            blas.dgemv_batched(1.0, grp["abi"], ui, 0.0, corr)
            gb -= (grp["scatter"] @ corr.reshape(nrhs, -1).T).T
        # Boundary solve.
        b = gb[:, self.free]
        if self.dirichlet.size:
            b = b - (self.s_fk @ dv.T).T
        x = np.empty_like(b)
        if self.solver is not None:
            x[:, self.perm] = self.solver.solve_many(b[:, self.perm])
        u = np.zeros((nrhs, self.ndof))
        u[:, self.free] = x
        u[:, self.dirichlet] = dv
        # Back-substitute interiors: ui = Aii^{-1} fi - (Aii^{-1} Aib) ub
        # (interior dofs are unique to their element, so plain
        # assignment suffices).  NekTar sweeps Aii^{-1} fi a second time
        # here; the cost model prices its algorithm, not ours, so the
        # array is reused and the two sweeps are charged again.
        for grp, ui in swept:
            ub = grp["bsigns"] * u[:, grp["bdofs"]]
            items, n2 = nrhs * grp["ng"], grp["ni"] ** 2
            charge(items * 1.0 * n2, items * 4.0 * n2, "sc-chol")
            charge(items * 1.0 * n2, items * 4.0 * n2, "sc-chol")
            blas.dgemv_batched(-1.0, grp["aii_inv_aib"], ub, 1.0, ui)
            u[:, grp["idofs"]] = ui
        return u[0] if rhs.ndim == 1 else u


class MassProjector(CondensedOperator):
    """The condensed mass operator of ``space``, for
    :meth:`FunctionSpace.forward`'s one-call L2 projection.

    Its groups keep the interior Cholesky factor ``L`` itself and no
    boundary scatter, and :meth:`solve` sweeps Aii^{-1} fi row by row
    through it: the same
    charges as :meth:`CondensedOperator.solve`, other last bits.  Those
    bits seed ``ale_cg``, whose pinned PCG counts move 260 -> 250 (3.8 %,
    tolerance 2 %) under the L^{-1} sweep (DESIGN.md section 10, "The
    forward exception").
    """

    def __init__(self, space):
        super().__init__(space, space.elemental_matrices("mass"))

    # repro: waive[accounting] priced by _setup's per-element sc-setup charge
    @staticmethod
    def _interior_factor(a_ii: np.ndarray) -> np.ndarray:
        return np.linalg.cholesky(a_ii)  # stacked dpotrf, lower

    def _group_scatter(self, bdofs: np.ndarray, bsigns: np.ndarray) -> None:
        """None: :meth:`solve` scatters its one RHS with ``np.subtract.at``,
        so a projector's groups keep no boundary-scatter CSR."""
        return None

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve M u = rhs for one (ndof,) assembled load vector."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self.ndof,):
            raise ValueError("rhs must cover all global dofs")
        gb = rhs[: self.nb_glob].copy()
        swept: list[tuple[dict, np.ndarray]] = []
        for grp in self._groups:
            low, ni = grp["factor"], grp["ni"]
            if ni == 0:
                continue
            fi = rhs[grp["idofs"]]  # (ng, ni)
            y = np.empty_like(fi)
            for i in range(ni):
                y[:, i] = (
                    fi[:, i] - np.einsum("gk,gk->g", low[:, i, :i], y[:, :i])
                ) / low[:, i, i]
            ui = np.empty_like(fi)
            for i in range(ni - 1, -1, -1):
                ui[:, i] = (
                    y[:, i] - np.einsum("gk,gk->g", low[:, i + 1 :, i], ui[:, i + 1 :])
                ) / low[:, i, i]
            charge(grp["ng"] * 2.0 * ni * ni, grp["ng"] * 8.0 * ni * ni, "sc-chol")
            swept.append((grp, ui))
            corr = np.zeros((grp["ng"], grp["nb"]))
            blas.dgemv_batched(1.0, grp["abi"], ui, 0.0, corr)
            np.subtract.at(gb, grp["bdofs"], grp["bsigns"] * corr)
        b = gb[self.free]
        x = np.empty_like(b)
        x[self.perm] = self.solver.solve(b[self.perm])
        u = np.zeros(self.ndof)
        u[self.free] = x
        for grp, ui in swept:
            ni = grp["ni"]
            ub = grp["bsigns"] * u[grp["bdofs"]]
            charge(grp["ng"] * 2.0 * ni * ni, grp["ng"] * 8.0 * ni * ni, "sc-chol")
            blas.dgemv_batched(-1.0, grp["aii_inv_aib"], ub, 1.0, ui)
            u[grp["idofs"]] = ui
        return u
