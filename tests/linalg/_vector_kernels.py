"""The paper's two copy/update kernels as counted wrappers.

``dcopy`` and ``daxpy`` are two of the five routines Section 3.1 times.
No run calls them (the CPU model prices them by formula); the kernel,
charge-parity and frozen-CG tests do, with the charges
:mod:`repro.linalg.blas` would make.
"""

import numpy as np

from repro.linalg.blas import _as1d, _charge_vector


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
