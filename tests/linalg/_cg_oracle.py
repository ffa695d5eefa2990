"""Frozen oracle: ``repro.linalg.cg.pcg`` as it stood before its
iteration's vector update became plain numpy charged by one tape.

The body is verbatim (the observability hook left out: it charges
nothing).  Every vector operation goes through a counted
:mod:`repro.linalg.blas` wrapper, so the charges this makes are by
construction the ones the live solver's tape has to reproduce.  The
one wrapper ``src/`` no longer has, ``blas.dscal``, is frozen here too,
its charge written out.
"""

import numpy as np

from repro.linalg import blas
from repro.linalg.cg import CGResult
from repro.linalg.counters import charge

from ._vector_kernels import daxpy


def dscal(alpha, x):
    """x *= alpha, in place.  (1 flop, 16 bytes per element.)"""
    x *= alpha
    charge(1.0 * x.size, 16.0 * x.size, "dscal")
    return x


def pcg(apply_a, b, diag, x0=None, tol=1.0e-10, maxiter=None):
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
        return CGResult(np.zeros(n), 0, 0.0, True)

    resid = blas.dnrm2(r) / bnorm
    for it in range(1, maxiter + 1):
        if resid <= tol:
            return CGResult(x, it - 1, resid, True)
        ap = apply_a(p)
        pap = blas.ddot(p, ap)
        if pap <= 0.0:
            raise np.linalg.LinAlgError("pcg: operator not positive definite")
        alpha = rz / pap
        daxpy(alpha, p, x)
        daxpy(-alpha, ap, r)
        blas.dvmul(inv_diag, r, z)
        rz_new = blas.ddot(r, z)
        beta = rz_new / rz
        rz = rz_new
        # p = z + beta p
        dscal(beta, p)
        daxpy(1.0, z, p)
        resid = blas.dnrm2(r) / bnorm

    return CGResult(x, maxiter, resid, resid <= tol)
