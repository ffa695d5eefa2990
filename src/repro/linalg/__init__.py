"""BLAS/LAPACK-level substrate: counted kernels, banded Cholesky, PCG."""

from .banded import BandedSPDSolver, bandwidth, to_banded
from .blas import (
    daxpy,
    dcopy,
    ddot,
    dgemm,
    dgemv,
    dnrm2,
    dscal,
    dvmul,
)
from .cg import CGResult, pcg
from .counters import OpCounter, active_counter, charge

__all__ = [
    "BandedSPDSolver",
    "bandwidth",
    "to_banded",
    "dcopy",
    "daxpy",
    "ddot",
    "dscal",
    "dnrm2",
    "dgemv",
    "dgemm",
    "dvmul",
    "CGResult",
    "pcg",
    "OpCounter",
    "active_counter",
    "charge",
]
