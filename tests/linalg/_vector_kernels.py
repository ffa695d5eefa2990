"""Three of the paper's kernels as one-call counted wrappers.

``dcopy``, ``daxpy`` and ``dgemv`` are three of the five routines
Section 3.1 times.  No run calls them one at a time (the CPU model
prices the first two by formula; runs issue ``dgemv`` through
``blas.dgemv_batched``, one charge per item); the kernel, charge-parity
and frozen-oracle tests do, with the charges :mod:`repro.linalg.blas`
would make.
"""

import numpy as np

from repro.linalg.blas import _as1d, _charge_vector
from repro.linalg.counters import charge


def dcopy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y[:] = x.  Returns y.  (0 flops, 16 bytes/element.)"""
    x, y = _as1d(x), _as1d(y)
    if x.shape != y.shape:
        raise ValueError("dcopy: shape mismatch")
    np.copyto(y, x)
    _charge_vector("dcopy", x.size)
    return y


def daxpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y += alpha * x, in place.  (2 flops and 24 bytes per element.)"""
    x, y = _as1d(x), _as1d(y)
    if x.shape != y.shape:
        raise ValueError("daxpy: shape mismatch")
    # In-place multiply-add: no temporary.
    y += alpha * x
    _charge_vector("daxpy", x.size)
    return y


def dgemv(
    alpha: float,
    a: np.ndarray,
    x: np.ndarray,
    beta: float,
    y: np.ndarray,
    trans: bool = False,
) -> np.ndarray:
    """y = alpha * op(A) x + beta * y, in place.  op(A) = A or A^T.

    (2*m*n flops; traffic dominated by the matrix, 8*m*n bytes.)
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("dgemv: A must be 2-D")
    x, y = _as1d(x), _as1d(y)
    op = a.T if trans else a
    m, n = op.shape
    if x.size != n or y.size != m:
        raise ValueError("dgemv: dimension mismatch")
    if beta == 0.0:
        y[:] = alpha * (op @ x)
    else:
        y *= beta
        y += alpha * (op @ x)
    charge(2.0 * m * n, 8.0 * (m * n + n + 2 * m), "dgemv")
    return y
