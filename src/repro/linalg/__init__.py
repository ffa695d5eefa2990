"""BLAS/LAPACK-level substrate: counted kernels, banded Cholesky, PCG."""

from .banded import BandedSPDSolver
from .blas import (
    ddot,
    dgemm,
    dnrm2,
    dvmul,
)
from .cg import CGResult, pcg
from .counters import OpCounter, charge

__all__ = [
    "BandedSPDSolver",
    "ddot",
    "dnrm2",
    "dgemm",
    "dvmul",
    "CGResult",
    "pcg",
    "OpCounter",
    "charge",
]
