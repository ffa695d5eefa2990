"""Symmetric banded direct solver (the paper's LAPACK ``dpbtrf/dpbtrs``).

Section 4.1: "Solution of the Laplacian ... A direct solver (LAPACK),
utilising the symmetric and banded nature of the matrix, is used."
The global Helmholtz/Poisson matrices assembled with boundary-first
ordering are symmetric positive definite and banded (Figure 10); this
module wraps scipy's banded Cholesky with exact factor/solve flop
counts charged to the active
:class:`~repro.linalg.counters.OpCounter`, so solve stages can be priced
on the simulated machines.

A multi-RHS solve (:meth:`BandedSPDSolver.solve_many`) is one LAPACK
``dpbtrs`` call over the whole stack, the paper's own routine.  A
blocked Level-3 sweep (the factor repacked into dense slabs, ``dtrsm``
on the diagonal blocks, ``dgemm`` across the RHS) was measured and
removed: at the condensed boundary systems NekTar-F solves (n = 1415,
kd = 150 and n = 1175, kd = 136) it cost 561 / 435 µs against
``dpbtrs``' 180 / 138 µs for 2 RHS and 763 / 597 against 508 / 388 for
6, and lost below ~10 columns; no caller passes more than 6.  One call
is also each column's own ``dpbtrs`` to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .counters import charge

__all__ = ["BandedSPDSolver"]


@dataclass
class BandedSPDSolver:
    """Cholesky factorisation of a symmetric positive definite banded matrix.

    The factorisation is done once (matrix setup, outside the timestep
    loop, exactly as in NekTar); each :meth:`solve` is two banded
    triangular solves costing ~4*n*kd flops.
    """

    n: int
    kd: int
    _cb: np.ndarray = None  # type: ignore[assignment]

    @classmethod
    def from_dense(cls, a: np.ndarray, kd: int | None = None) -> "BandedSPDSolver":
        a = np.asarray(a, dtype=np.float64)
        n = a.shape[0]
        if kd is None:
            rows, cols = np.nonzero(np.abs(a) > 1e-14 * max(1.0, float(np.abs(a).max())))
            kd = int(np.max(np.abs(rows - cols), initial=0))
        self = cls(n=n, kd=kd)
        ab = np.zeros((kd + 1, n))
        for j in range(n):
            i0 = max(0, j - kd)
            ab[kd - (j - i0) : kd + 1, j] = a[i0 : j + 1, j]
        self._cb = sla.cholesky_banded(ab, lower=False, check_finite=False)
        # ~n*kd^2 flops for banded Cholesky (kd << n regime).
        charge(float(n) * kd * kd, 8.0 * (kd + 1) * n, "dpbtrf")
        return self

    @classmethod
    def from_banded(cls, ab: np.ndarray) -> "BandedSPDSolver":
        """Factor the upper band ``ab`` (LAPACK upper storage,
        ``ab[kd + i - j, j] = a[i, j]``).

        A writeable Fortran-ordered float64 ``ab`` is factored in place and
        owned by the solver from then on: the caller must not reuse it.
        Any other layout (C-ordered, one-row included) is copied first and
        left as it was.  The factor is the same to the bit either way."""
        ab = np.asarray(ab, dtype=np.float64)
        kd, n = ab.shape[0] - 1, ab.shape[1]
        self = cls(n=n, kd=kd)
        own = ab.flags.f_contiguous and ab.flags.writeable and not ab.flags.c_contiguous
        self._cb = sla.cholesky_banded(ab, overwrite_ab=own, lower=False, check_finite=False)
        charge(float(n) * kd * kd, 8.0 * (kd + 1) * n, "dpbtrf")
        return self

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b (b may be a vector or a column-stacked matrix)."""
        if self._cb is None:
            raise RuntimeError("solver not factorised")
        b = np.asarray(b, dtype=np.float64)
        nrhs = 1 if b.ndim == 1 else b.shape[1]
        x = sla.cho_solve_banded((self._cb, False), b, check_finite=False)
        charge(4.0 * self.n * self.kd * nrhs, 8.0 * (self.kd + 1) * self.n * nrhs, "dpbtrs")
        return x

    def solve_many(self, bt: np.ndarray) -> np.ndarray:
        """Solve A X = B for row-stacked RHS ``bt`` of shape (nrhs, n).

        One ``dpbtrs`` over the stack: the rows and the charge of
        ``nrhs`` single-RHS :meth:`solve` calls.
        """
        bt = np.asarray(bt, dtype=np.float64)
        if bt.ndim != 2 or bt.shape[1] != self.n:
            raise ValueError("solve_many: expected (nrhs, n) row-stacked RHS")
        return self.solve(bt.T).T
