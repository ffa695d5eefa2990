"""Diagonally preconditioned conjugate gradient.

Section 4.2.2: "a diagonally preconditioned conjugate gradient iterative
solver is predominantly used" in NekTar-ALE.  This CG is written against
an abstract operator; its one caller,
:class:`repro.solvers.helmholtz.HelmholtzCG`, hands it the space's
elemental operator apply, serially, for the ALE solver
(:mod:`repro.ns.ale`).  There is no partitioned CG in the tree: the
per-iteration communication behind Table 3 is a priced model
(:mod:`repro.apps.ale_bench`), not a run.

Every iteration is fully op-counted.  The set-up goes through the
counted :mod:`repro.linalg.blas` kernels; the iteration's vector update
is plain numpy, the same expressions those kernels evaluate, and
charges what the eight counted kernels it stands for would, as one tape
built once per solve from the kernels' own formulas
(:func:`repro.linalg.blas.vector_tape`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NoReturn

import numpy as np

from ..obs import metrics
from ..obs import tracer as obs
from . import blas
from .counters import charge_tape

__all__ = ["CGResult", "pcg", "pcg_block"]

#: The counted kernels one iteration's vector update stands for, in order.
_ITERATION = ("ddot", "daxpy", "daxpy", "dvmul", "ddot", "dscal", "daxpy", "dnrm2")


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


def _not_positive(pap: float) -> NoReturn:
    if np.isfinite(pap):
        raise np.linalg.LinAlgError(f"pcg: operator not positive definite (p^T A p = {pap!r})")
    raise np.linalg.LinAlgError(
        f"pcg: non-finite p^T A p ({pap!r}): the operator or the right-hand side "
        "holds NaN or inf"
    )


def pcg(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    diag: np.ndarray,
    tol: float = 1.0e-10,
    maxiter: int | None = None,
) -> CGResult:
    """Solve A x = b with Jacobi-preconditioned CG from x = 0.

    Parameters
    ----------
    apply_a:
        The operator; must return a new array (or a buffer it owns).
    diag:
        The (assembled) diagonal of A for the Jacobi preconditioner.

    Raises ``LinAlgError`` at the first ``p^T A p`` that is not positive
    — an indefinite operator, or NaN / inf in the operator or ``b``.
    """
    b = np.asarray(b, dtype=np.float64)
    diag = np.asarray(diag, dtype=np.float64)
    if np.any(diag <= 0.0):
        raise ValueError("pcg: preconditioner diagonal must be positive (SPD A)")
    n = b.size
    if maxiter is None:
        maxiter = 10 * n + 100
    tape = blas.vector_tape(_ITERATION, n)

    inv_diag = 1.0 / diag
    x = np.zeros(n)
    r = b.copy()
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
        pap = float(np.dot(p, ap))
        if not pap > 0.0:  # also NaN: it fails every comparison
            charge_tape(tape[:1])
            _not_positive(pap)
        alpha = rz / pap
        x += alpha * p
        r += (-alpha) * ap
        np.multiply(inv_diag, r, out=z)
        rz_new = float(np.dot(r, z))
        beta = rz_new / rz
        rz = rz_new
        # p = z + beta p
        p *= beta
        p += z
        resid = math.sqrt(r.dot(r)) / bnorm  # np.linalg.norm's own expression
        charge_tape(tape)

    return _observe(CGResult(x, maxiter, resid, resid <= tol))


def pcg_block(
    apply_a: Callable[[np.ndarray], np.ndarray],
    b: np.ndarray,
    diag: np.ndarray,
    tol: float = 1.0e-10,
    maxiter: int | None = None,
) -> list[CGResult]:
    """:func:`pcg` over each row of a row-stacked (nrhs, n) RHS block:
    every row's iterates, iteration count and OpCounter charges are
    those of a separate :func:`pcg` call, because it is one."""
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2:
        raise ValueError("pcg_block: expected a (nrhs, n) RHS block")
    return [pcg(apply_a, row, diag, tol=tol, maxiter=maxiter) for row in b]
