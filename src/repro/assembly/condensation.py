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
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ..linalg import blas
from ..linalg.banded import BandedSPDSolver
from ..linalg.counters import charge
from .global_system import dirichlet_block

__all__ = ["CondensedOperator"]


class CondensedOperator:
    """Statically condensed global SPD operator.

    Same interface as :class:`~repro.assembly.global_system.AssembledOperator`
    (solve(rhs, dirichlet_values) over full global vectors), but the
    direct factorisation lives on the boundary Schur complement only.
    Dirichlet dofs must be boundary dofs (vertex/edge), which velocity
    and pressure boundary conditions always are.
    """

    def __init__(self, space, elem_mats, dirichlet_dofs=()):
        self.space = space
        dm = space.dofmap
        self.nb_glob = dm.nboundary
        self.dirichlet = np.asarray(
            sorted(set(int(d) for d in dirichlet_dofs)), dtype=np.int64
        )
        if self.dirichlet.size and self.dirichlet.max() >= self.nb_glob:
            raise ValueError("Dirichlet dofs must be boundary (vertex/edge) dofs")

        self._groups, schur = self._setup(elem_mats)
        rows, cols, vals = [], [], []
        # Group-wise Schur assembly: sign-conjugate and scatter whole
        # element stacks at once (duplicate COO entries are summed by
        # tocsr).
        for grp, s in zip(self._groups, schur):
            nb, bdofs, bsigns = grp["nb"], grp["bdofs"], grp["bsigns"]
            ss = bsigns[:, :, None] * s * bsigns[:, None, :]
            rows.append(np.repeat(bdofs, nb, axis=1).ravel())
            cols.append(np.tile(bdofs, (1, nb)).ravel())
            vals.append(ss.ravel())
        s_glob = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.nb_glob, self.nb_glob),
        ).tocsr()

        mask = np.ones(self.nb_glob, dtype=bool)
        mask[self.dirichlet] = False
        self.free = np.nonzero(mask)[0]
        s_ff = s_glob[np.ix_(self.free, self.free)].tocsr()
        self.s_fk = s_glob[np.ix_(self.free, self.dirichlet)].tocsr()
        if self.free.size == 0:
            # Every boundary dof is prescribed: nothing to factor, the
            # solve is pure interior back-substitution.
            self.perm = np.zeros(0, dtype=np.int64)
            self.solver = None
            self.bandwidth = 0
            return
        self.perm = np.asarray(reverse_cuthill_mckee(s_ff, symmetric_mode=True))
        p = s_ff[np.ix_(self.perm, self.perm)].tocoo()
        kd = int(np.abs(p.row - p.col).max()) if p.nnz else 0
        ab = np.zeros((kd + 1, self.free.size))
        up = p.row <= p.col
        ab[kd + p.row[up] - p.col[up], p.col[up]] = p.data[up]
        self.solver = BandedSPDSolver.from_banded(ab)
        self.bandwidth = kd

    # -- pre-factorisation ----------------------------------------------------

    def _setup(self, elem_mats) -> tuple[list[dict], list[np.ndarray]]:
        """Per element kind (one group per dof-map stack), factor the
        interior blocks with one stacked Cholesky and eliminate them with
        stacked solves.  Returns ``(groups, schur)`` with one stacked
        (ng, nb, nb) Schur complement per group.

        Charges one ``sc-setup`` per element, in element order (the
        value is not an integer, so a single ng-times charge would
        round differently).
        """
        nelem = len(elem_mats)
        groups: list[dict] = []
        group_schur: list[np.ndarray] = []
        setup_charges: list[tuple[float, float] | None] = [None] * nelem
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
                low = np.linalg.cholesky(aii)  # stacked dpotrf, lower
                # Aii X = Aib, one stacked LAPACK solve (the interior
                # blocks are SPD and tiny, so the LU detour costs nothing
                # and beats a Python-level substitution sweep by far).
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
                    "linv": None,  # lazy L^{-1}, built on first solve
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
            if grp["linv"] is None:
                grp["linv"] = np.linalg.inv(grp["low"])
            # Aii^{-1} fi over elements x RHS: the two triangular sweeps
            # as Level-3 multiplies by the cached L^{-1} (the interior
            # blocks are tiny and well-conditioned, so the explicit
            # inverse loses nothing); two dtrsm charges price one
            # cho_solve per item-RHS.
            y = blas.dtrsm_batched(grp["linv"], block[:, grp["idofs"]], label="sc-chol")
            ui = blas.dtrsm_batched(grp["linv"], y, trans=True, label="sc-chol")
            swept.append((grp, ui))
            corr = np.zeros((nrhs, grp["ng"], grp["nb"]))
            blas.dgemv_batched(1.0, grp["abi"], ui, 0.0, corr)
            gb -= (self._group_scatter(grp) @ corr.reshape(nrhs, -1).T).T
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

    def _group_scatter(self, grp: dict) -> sp.csr_matrix:
        """CSR gather/scatter Q_e^T of one group's boundary dofs (signs
        folded in), so the condense correction is one spmv over the whole
        stack instead of an ``np.subtract.at`` per RHS."""
        if "scatter" not in grp:
            nitems = grp["ng"] * grp["nb"]
            grp["scatter"] = sp.csr_matrix(
                (
                    grp["bsigns"].ravel().astype(np.float64),
                    (grp["bdofs"].ravel(), np.arange(nitems)),
                ),
                shape=(self.nb_glob, nitems),
            )
        return grp["scatter"]

    def _solve_by_substitution(
        self, rhs: np.ndarray, dirichlet_values: np.ndarray | None = None
    ) -> np.ndarray:
        """:meth:`solve` for one (ndof,) vector with Aii^{-1} fi swept row
        by row through the stacked Cholesky factor; same charges.

        Kept for :meth:`FunctionSpace.forward`, its only caller, because
        the L^{-1} path does not pass ``ale_cg``'s golden: the projection
        seeds that run, whose pinned PCG counts move 260 -> 250 (3.8 %,
        tolerance 2 %) on the last-bit difference between the two.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (self.ndof,):
            raise ValueError("rhs must cover all global dofs")
        dv = dirichlet_block(dirichlet_values, 1, self.dirichlet.size)[0]
        gb = rhs[: self.nb_glob].copy()
        swept: list[tuple[dict, np.ndarray]] = []
        for grp in self._groups:
            low, ni = grp["low"], grp["ni"]
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
        if self.dirichlet.size:
            b = b - self.s_fk @ dv
        x = np.empty_like(b)
        if self.solver is not None:
            x[self.perm] = self.solver.solve(b[self.perm])
        u = np.zeros(self.ndof)
        u[self.free] = x
        u[self.dirichlet] = dv
        for grp, ui in swept:
            ni = grp["ni"]
            ub = grp["bsigns"] * u[grp["bdofs"]]
            charge(grp["ng"] * 2.0 * ni * ni, grp["ng"] * 8.0 * ni * ni, "sc-chol")
            blas.dgemv_batched(-1.0, grp["aii_inv_aib"], ub, 1.0, ui)
            u[grp["idofs"]] = ui
        return u
