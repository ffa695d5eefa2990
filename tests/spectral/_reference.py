"""One element's reference maths, which only the tests run.

A run projects, integrates and numbers edges on whole function spaces
(:class:`repro.assembly.space.FunctionSpace`, ``DofMap``); these are the
single-element forms the expansion and quadrature tests check against.
"""

import numpy as np

from repro.linalg import blas
from repro.linalg.counters import charge

from ..linalg._vector_kernels import dgemv


def integrate(rule, fvals) -> float:
    """Quadrature of values at a 1-D or tensor rule's points."""
    return blas.ddot(rule.weights, np.ravel(np.asarray(fvals, dtype=np.float64)))


def edge_modes(exp, edge: int) -> list[int]:
    """Edge-interior mode ids of local edge ``edge``, ascending k."""
    if not 0 <= edge < exp.nedges:
        raise ValueError(f"edge {edge} out of range")
    return exp.edge_mode_table[edge].tolist()


def mass_matrix(exp) -> np.ndarray:
    """Reference-element mass matrix (exact by quadrature)."""
    wphi = exp.phi * exp.weights
    mass = np.empty((exp.nmodes, exp.nmodes))
    blas.dgemm(1.0, wphi, exp.phi, 0.0, mass, transb=True)
    return mass


def backward(exp, coeffs) -> np.ndarray:
    """Modal coefficients -> values at the quadrature points."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    vals = np.empty(exp.rule.weights.size)
    return dgemv(1.0, exp.phi, coeffs, 0.0, vals, trans=True)


def forward(exp, fvals) -> np.ndarray:
    """L2 projection: values at quadrature points -> modal coefficients."""
    fvals = np.asarray(fvals, dtype=np.float64)
    rhs = np.empty(exp.nmodes)
    dgemv(1.0, exp.phi, exp.weights * np.ravel(fvals), 0.0, rhs)
    n = exp.nmodes
    charge(2.0 * n**3 / 3.0, 8.0 * n * n, "mass-solve")
    return np.linalg.solve(mass_matrix(exp), rhs)
