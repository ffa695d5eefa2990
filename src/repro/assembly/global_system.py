"""Global assembled operators with Dirichlet lifting and banded solves.

"The Poisson and Helmholtz-type equations are solved using direct
solves, considering the banded and symmetric nature of the Laplacian
matrices" (Section 4).  :class:`AssembledOperator` assembles the global
symmetric matrix, eliminates Dirichlet dofs by lifting, reorders the
free dofs with reverse Cuthill-McKee to minimise bandwidth, and factors
once with the banded Cholesky substrate; every subsequent ``solve`` is
two banded triangular sweeps — exactly the production structure whose
per-step cost Table 1 measures.

:func:`project_dirichlet` turns a boundary function into modal edge
coefficients (exact for polynomial traces) so inhomogeneous BCs work at
any order.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ..linalg.banded import BandedSPDSolver
from ..linalg.counters import charge

__all__ = ["AssembledOperator", "project_dirichlet"]


class AssembledOperator:
    """A = sum_e Q_e^T A_e Q_e, factored for repeated solves.

    Parameters
    ----------
    space:
        The :class:`~repro.assembly.space.FunctionSpace`.
    elem_mats:
        One symmetric (nmodes x nmodes) matrix per element.
    dirichlet_dofs:
        Global dofs whose values are prescribed; they are eliminated and
        their coupling lifted to the right-hand side.
    """

    def __init__(self, space, elem_mats, dirichlet_dofs=()):
        self.space = space
        self.a_full = space.assemble(elem_mats)
        ndof = space.ndof
        self.dirichlet = np.asarray(sorted(set(int(d) for d in dirichlet_dofs)), dtype=np.int64)
        if self.dirichlet.size and (
            self.dirichlet.min() < 0 or self.dirichlet.max() >= ndof
        ):
            raise ValueError("dirichlet dof out of range")
        self.free = np.setdiff1d(np.arange(ndof), self.dirichlet)
        self.a_uk = self.a_full[np.ix_(self.free, self.dirichlet)].tocsr()
        self.perm, ab = rcm_band(self.a_full[np.ix_(self.free, self.free)].tocsr())
        self.solver = BandedSPDSolver.from_banded(ab)
        self.bandwidth = self.solver.kd

    @property
    def ndof(self) -> int:
        return self.space.ndof

    def matvec(self, u: np.ndarray) -> np.ndarray:
        # Sparse matvec: 2 flops per stored entry, value+index+vector traffic.
        charge(2.0 * self.a_full.nnz, 12.0 * self.a_full.nnz + 16.0 * self.ndof, "spmv")
        return self.a_full @ u

    def solve(
        self,
        rhs: np.ndarray,
        dirichlet_values: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve A u = rhs with u fixed on the Dirichlet dofs.

        ``rhs`` is the assembled load vector over *all* dofs;
        ``dirichlet_values`` are the prescribed values in the order of
        the (sorted) dirichlet dof list.  Returns the full solution
        vector including the prescribed values.

        ``rhs`` may also be a row-stacked (nrhs, ndof) block (a vector
        is a one-row block): one vectorised lift and RCM permutation,
        one banded Cholesky sweep over the block, charging exactly nrhs
        column-by-column solves; ``dirichlet_values`` then broadcasts
        (one shared (nd,) vector or one row per RHS).
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        block = rhs[None] if rhs.ndim == 1 else rhs
        if block.ndim != 2 or block.shape[1] != self.ndof:
            raise ValueError("rhs must cover all global dofs")
        nrhs = block.shape[0]
        dv = dirichlet_block(dirichlet_values, nrhs, self.dirichlet.size)
        b = block[:, self.free]
        if self.dirichlet.size:
            charge(
                nrhs * 2.0 * self.a_uk.nnz,
                nrhs * 12.0 * self.a_uk.nnz,
                "dirichlet-lift",
            )
            b = b - (self.a_uk @ dv.T).T
        x = np.empty_like(b)
        x[:, self.perm] = self.solver.solve_many(b[:, self.perm])
        u = np.zeros((nrhs, self.ndof))
        u[:, self.free] = x
        u[:, self.dirichlet] = dv
        return u[0] if rhs.ndim == 1 else u


def rcm_band(a) -> tuple[np.ndarray, np.ndarray]:
    """Reverse Cuthill-McKee order ``perm`` of symmetric CSR ``a`` and the
    permuted upper band ``ab``, Fortran-ordered so that ``from_banded``
    factors it in place; the permuted copy dies here."""
    perm = np.asarray(reverse_cuthill_mckee(a, symmetric_mode=True))
    p = a[np.ix_(perm, perm)].tocoo()  # canonical: no duplicates to sum
    kd = int(np.abs(p.row - p.col).max()) if p.nnz else 0
    ab = np.zeros((kd + 1, a.shape[0]), order="F")
    up = p.row <= p.col
    ab[kd + p.row[up] - p.col[up], p.col[up]] = p.data[up]
    return perm, ab


def dirichlet_block(values: np.ndarray | None, nrhs: int, nd: int) -> np.ndarray:
    """Prescribed values as one (nrhs, nd) row per RHS: ``None`` is zero
    and a single (nd,) vector is shared by every row."""
    if values is None:
        return np.zeros((nrhs, nd))
    dv = np.asarray(values, dtype=np.float64)
    if dv.shape == (nd,):
        dv = np.broadcast_to(dv, (nrhs, nd))
    if dv.shape != (nrhs, nd):
        raise ValueError("dirichlet_values shape mismatch")
    return dv


def project_dirichlet(space, tags, fn):
    """Modal boundary coefficients for u = fn(x, y) on the tagged sides.

    Returns (dofs, values): the sorted global Dirichlet dofs and the
    matching prescribed coefficients.  One-shot form of the space's
    cached :class:`~repro.assembly.boundary.DirichletPlan`.
    """
    plan = space.dirichlet_plan(tags)
    return plan.dofs, plan.project(fn)
