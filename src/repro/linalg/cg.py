"""Diagonally preconditioned conjugate gradient.

Section 4.2.2: "a diagonally preconditioned conjugate gradient iterative
solver is predominantly used" in NekTar-ALE.  This CG is written against
an abstract operator; its one caller,
:class:`repro.solvers.helmholtz.HelmholtzCG`, hands it an assembled
matrix or the matrix-free apply, serially, for the ALE solver
(:mod:`repro.ns.ale`).  There is no partitioned CG in the tree: the
per-iteration communication behind Table 3 is a priced model
(:mod:`repro.apps.ale_bench`), not a run.

All vector work goes through :mod:`repro.linalg.blas` so iterations are
fully op-counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs import metrics
from ..obs import tracer as obs
from . import blas

__all__ = ["CGResult", "pcg", "pcg_block"]


@dataclass
class CGResult:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def _observe(res: CGResult) -> CGResult:
    """Report one finished solve to the observability layer.

    Pure observation — charges nothing, so metrics/tracing on vs off
    leaves the OpCounter accounting byte-identical.
    """
    metrics.inc("pcg.solves")
    metrics.observe("pcg.iterations", res.iterations)
    metrics.set_gauge("pcg.last_residual", res.residual)
    if not res.converged:
        metrics.inc("pcg.unconverged")
    obs.instant(
        "pcg",
        "pcg",
        iterations=res.iterations,
        residual=float(res.residual),
        converged=res.converged,
    )
    return res


def pcg(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    diag: np.ndarray,
    x0: np.ndarray | None = None,
    tol: float = 1.0e-10,
    maxiter: int | None = None,
) -> CGResult:
    """Solve A x = b with Jacobi-preconditioned CG.

    Parameters
    ----------
    apply_a:
        The operator; must return a new array (or a buffer it owns).
    diag:
        The (assembled) diagonal of A for the Jacobi preconditioner.
    """
    b = np.asarray(b, dtype=np.float64)
    diag = np.asarray(diag, dtype=np.float64)
    if np.any(diag <= 0.0):
        raise ValueError("pcg: preconditioner diagonal must be positive (SPD A)")
    n = b.size
    if maxiter is None:
        maxiter = 10 * n + 100

    inv_diag = 1.0 / diag
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    r = b - apply_a(x) if x0 is not None else b.copy()
    z = np.empty(n)
    blas.dvmul(inv_diag, r, z)
    p = z.copy()
    rz = blas.ddot(r, z)

    bnorm = blas.dnrm2(b)
    if bnorm == 0.0:
        return _observe(CGResult(np.zeros(n), 0, 0.0, True))

    resid = blas.dnrm2(r) / bnorm
    for it in range(1, maxiter + 1):
        if resid <= tol:
            return _observe(CGResult(x, it - 1, resid, True))
        ap = apply_a(p)
        pap = blas.ddot(p, ap)
        if pap <= 0.0:
            raise np.linalg.LinAlgError("pcg: operator not positive definite")
        alpha = rz / pap
        blas.daxpy(alpha, p, x)
        blas.daxpy(-alpha, ap, r)
        blas.dvmul(inv_diag, r, z)
        rz_new = blas.ddot(r, z)
        beta = rz_new / rz
        rz = rz_new
        # p = z + beta p
        blas.dscal(beta, p)
        blas.daxpy(1.0, z, p)
        resid = blas.dnrm2(r) / bnorm

    return _observe(CGResult(x, maxiter, resid, resid <= tol))


def pcg_block(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    diag: np.ndarray,
    tol: float = 1.0e-10,
    maxiter: int | None = None,
    apply_block: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[CGResult]:
    """Block-Jacobi-PCG over a row-stacked (nrhs, n) RHS block.

    Each row runs the *identical* iteration to :func:`pcg` — the scalar
    reductions use the same BLAS calls on contiguous row views and the
    elementwise updates are the row-wise batched kernels, so every
    column's iterates, iteration count, and OpCounter charges are
    bit-for-bit what ``nrhs`` separate :func:`pcg` calls produce.  The
    interpreter-level loop fusion (one batched daxpy/dvmul/dscal per
    iteration instead of one per column) is the whole optimisation.
    Converged columns are compacted out so they stop iterating — and
    stop being charged — at exactly the solo path's iteration count.

    ``apply_block``, when given, applies the operator to the whole
    (k, n) row block in one sweep (the matrix-free sum-factorised
    apply batches its leading axes); it must produce the same values
    and charges as k row-wise ``apply_a`` calls.
    """
    b = np.ascontiguousarray(np.asarray(b, dtype=np.float64))
    diag = np.asarray(diag, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("pcg_block: expected a (nrhs, n) RHS block")
    if np.any(diag <= 0.0):
        raise ValueError("pcg: preconditioner diagonal must be positive (SPD A)")
    nrhs, n = b.shape
    if maxiter is None:
        maxiter = 10 * n + 100

    inv_diag = 1.0 / diag
    results: list[CGResult | None] = [None] * nrhs
    x = np.zeros((nrhs, n))
    r = b.copy()
    z = np.empty((nrhs, n))
    blas.dvmul_batched(inv_diag, r, z)
    p = z.copy()
    rz = np.array([blas.ddot(r[j], z[j]) for j in range(nrhs)])
    bnorm = np.array([blas.dnrm2(b[j]) for j in range(nrhs)])
    idx = np.arange(nrhs)
    for j in np.nonzero(bnorm == 0.0)[0]:
        results[j] = _observe(CGResult(np.zeros(n), 0, 0.0, True))

    def compact(keep: np.ndarray):
        nonlocal x, r, z, p, rz, bnorm, idx
        x, r, z, p = x[keep], r[keep], z[keep], p[keep]
        rz, bnorm, idx = rz[keep], bnorm[keep], idx[keep]

    active = bnorm != 0.0
    if not np.all(active):
        compact(active)
    if idx.size == 0:
        return results  # type: ignore[return-value]
    resid = np.array([blas.dnrm2(r[j]) for j in range(idx.size)]) / bnorm

    for it in range(1, maxiter + 1):
        conv = resid <= tol
        if np.any(conv):
            for j in np.nonzero(conv)[0]:
                results[idx[j]] = _observe(
                    CGResult(x[j].copy(), it - 1, resid[j], True)
                )
            compact(~conv)
            resid = resid[~conv]
            if idx.size == 0:
                return results  # type: ignore[return-value]
        if apply_block is not None:
            ap = np.ascontiguousarray(apply_block(p))
        else:
            ap = np.empty_like(p)
            for j in range(idx.size):
                ap[j] = apply_a(p[j])
        pap = np.array([blas.ddot(p[j], ap[j]) for j in range(idx.size)])
        if np.any(pap <= 0.0):
            raise np.linalg.LinAlgError("pcg: operator not positive definite")
        alpha = rz / pap
        blas.daxpy_batched(alpha, p, x)
        blas.daxpy_batched(-alpha, ap, r)
        blas.dvmul_batched(inv_diag, r, z)
        rz_new = np.array([blas.ddot(r[j], z[j]) for j in range(idx.size)])
        beta = rz_new / rz
        rz = rz_new
        # p = z + beta p, row-wise.
        blas.dscal_batched(beta, p)
        blas.daxpy_batched(np.ones(idx.size), z, p)
        resid = np.array(
            [blas.dnrm2(r[j]) for j in range(idx.size)]
        ) / bnorm

    for j in range(idx.size):
        results[idx[j]] = _observe(
            CGResult(x[j].copy(), maxiter, resid[j], bool(resid[j] <= tol))
        )
    return results  # type: ignore[return-value]
