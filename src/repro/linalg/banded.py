"""Symmetric banded direct solver (the paper's LAPACK ``dpbtrf/dpbtrs``).

Section 4.1: "Solution of the Laplacian ... A direct solver (LAPACK),
utilising the symmetric and banded nature of the matrix, is used."
The global Helmholtz/Poisson matrices assembled with boundary-first
ordering are symmetric positive definite and banded (Figure 10); this
module wraps scipy's banded Cholesky with (a) a dense<->banded layout
converter, (b) exact factor/solve flop counts charged to the active
:class:`~repro.linalg.counters.OpCounter`, so solve stages can be priced
on the simulated machines.

Multi-RHS solves go through a *blocked* triangular sweep
(:meth:`BandedSPDSolver.solve_many`): LAPACK's ``dpbtrs`` back-solves
each RHS with Level-2 ``dtbsv`` sweeps, so its cost is strictly linear
in the RHS count; repacking the Cholesky factor into dense
diagonal/sub-diagonal block slabs turns the sweep into Level-3
``dtrsm``/``dgemm`` calls that amortise the factor traffic over all
stacked RHS — the paper's Level-3-over-Level-2 argument (Figs 1-6)
applied to the solver itself.  The charge is the classic ``dpbtrs``
count either way: blocking is a pure wall-clock optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
from scipy.linalg import get_lapack_funcs

from ..obs import metrics
from .counters import charge

__all__ = ["bandwidth", "to_banded", "BandedSPDSolver"]

# Row-block size of the blocked triangular sweep, and the system sizes
# below which the plain LAPACK path stays faster (slab packing only pays
# off once the bandwidth is large enough for Level-3 arithmetic).
_BLOCK_M = 64
_MIN_BLOCKED_KD = 128
_MIN_BLOCKED_N = 4 * _BLOCK_M


def bandwidth(a: np.ndarray, tol: float = 0.0) -> int:
    """Half-bandwidth of a symmetric matrix: max |i-j| with |a_ij| > tol."""
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("bandwidth: matrix must be square")
    rows, cols = np.nonzero(np.abs(a) > tol)
    if rows.size == 0:
        return 0
    return int(np.max(np.abs(rows - cols)))


def to_banded(a: np.ndarray, kd: int) -> np.ndarray:
    """Pack the upper triangle of symmetric ``a`` into LAPACK banded storage.

    Returns the (kd+1, n) array expected by ``scipy.linalg.cholesky_banded``
    (upper form: ab[kd + i - j, j] = a[i, j] for max(0, j-kd) <= i <= j).
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    ab = np.zeros((kd + 1, n))
    for j in range(n):
        i0 = max(0, j - kd)
        ab[kd - (j - i0) : kd + 1, j] = a[i0 : j + 1, j]
    return ab


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
    _blocks: list | None = field(default=None, repr=False)

    @classmethod
    def from_dense(cls, a: np.ndarray, kd: int | None = None) -> "BandedSPDSolver":
        a = np.asarray(a, dtype=np.float64)
        n = a.shape[0]
        if kd is None:
            kd = bandwidth(a, tol=1e-14 * max(1.0, float(np.abs(a).max())))
        self = cls(n=n, kd=kd)
        ab = to_banded(a, kd)
        self._cb = sla.cholesky_banded(ab, lower=False, check_finite=False)
        # ~n*kd^2 flops for banded Cholesky (kd << n regime).
        charge(float(n) * kd * kd, 8.0 * (kd + 1) * n, "dpbtrf")
        return self

    @classmethod
    def from_banded(cls, ab: np.ndarray) -> "BandedSPDSolver":
        ab = np.asarray(ab, dtype=np.float64)
        kd, n = ab.shape[0] - 1, ab.shape[1]
        self = cls(n=n, kd=kd)
        self._cb = sla.cholesky_banded(ab, lower=False, check_finite=False)
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

        One blocked forward + backward triangular sweep over the whole
        stack; charges exactly ``nrhs`` single-RHS ``dpbtrs`` calls.
        """
        if self._cb is None:
            raise RuntimeError("solver not factorised")
        bt = np.asarray(bt, dtype=np.float64)
        if bt.ndim != 2 or bt.shape[1] != self.n:
            raise ValueError("solve_many: expected (nrhs, n) row-stacked RHS")
        nrhs = bt.shape[0]
        if (
            nrhs < 2
            or self.kd < _MIN_BLOCKED_KD
            or self.n < _MIN_BLOCKED_N
        ):
            x = sla.cho_solve_banded((self._cb, False), bt.T, check_finite=False).T
        else:
            x = self._solve_blocked(bt)
        charge(
            4.0 * self.n * self.kd * nrhs,
            8.0 * (self.kd + 1) * self.n * nrhs,
            "dpbtrs",
        )
        return x

    # -- blocked Level-3 sweep ------------------------------------------------

    def _build_blocks(self) -> None:
        """Repack the banded factor R (upper form, L = R^T) into per-block
        dense slabs DS of shape (mb + kdw, mb), column-major: DS[:mb] is
        the lower-triangular diagonal block of L, DS[mb:] the sub-diagonal
        slab coupling the block to the next kdw rows.  Built once, on the
        first multi-RHS solve (single-RHS users never pay for it)."""
        cb, m = self._cb, _BLOCK_M
        kd, n = cb.shape[0] - 1, cb.shape[1]
        s_r, s_c = cb.strides
        blocks = []
        for i0 in range(0, n, m):
            mb = min(m, n - i0)
            kdw = min(kd, n - i0 - mb)
            ds = np.zeros((mb + kdw, mb), order="F")
            sd_r, sd_c = ds.strides
            # L[j+t, j] = cb[kd-t, j+t]: each factor column is an
            # anti-diagonal of cb, read with a sheared strided view.
            dst = np.lib.stride_tricks.as_strided(
                ds, shape=(kd + 1, mb), strides=(sd_r, sd_c + sd_r)
            )
            for c in range(mb):
                j = i0 + c
                tmax = min(kd, n - 1 - j, mb + kdw - 1 - c)
                src = np.lib.stride_tricks.as_strided(
                    cb[kd:, j:], shape=(tmax + 1,), strides=(s_c - s_r,)
                )
                dst[: tmax + 1, c] = src
            blocks.append(ds)
        self._blocks = blocks

    # repro: waive[accounting] charged by solve_many as nrhs x dpbtrs
    def _solve_blocked(self, bt: np.ndarray) -> np.ndarray:
        """L L^T X = B over a row-stacked (nrhs, n) block, Level-3 per-block:
        dtrsm on the diagonal block, wide dgemm on the sub-diagonal slab."""
        if self._blocks is None:
            metrics.inc("slab_cache.misses")
            self._build_blocks()
        else:
            metrics.inc("slab_cache.hits")
        (trtrs,) = get_lapack_funcs(("trtrs",), (self._cb,))
        m = _BLOCK_M
        x = np.ascontiguousarray(bt).copy()
        nblk = len(self._blocks)
        # Forward sweep: L y = b, right-looking.
        for bi in range(nblk):
            i0 = bi * m
            ds = self._blocks[bi]
            mb = ds.shape[1]
            ybt = np.ascontiguousarray(x[:, i0 : i0 + mb])
            sol, _ = trtrs(ds[:mb], ybt.T, lower=1, trans=0)
            solt = sol.T
            x[:, i0 : i0 + mb] = solt
            s = ds[mb:]
            if s.shape[0]:
                x[:, i0 + mb : i0 + mb + s.shape[0]] -= solt @ s.T
        # Backward sweep: L^T x = y, left-looking in reverse.
        for bi in range(nblk - 1, -1, -1):
            i0 = bi * m
            ds = self._blocks[bi]
            mb = ds.shape[1]
            s = ds[mb:]
            rhst = np.ascontiguousarray(x[:, i0 : i0 + mb])
            if s.shape[0]:
                rhst -= x[:, i0 + mb : i0 + mb + s.shape[0]] @ s
            sol, _ = trtrs(ds[:mb], rhst.T, lower=1, trans=1)
            x[:, i0 : i0 + mb] = sol.T
        return x
