"""Jacobi polynomials and Gauss-type quadrature.

The spectral/hp expansions of Sherwin & Karniadakis (1995) are built from
hierarchical (Jacobi) polynomial modes; the triangle's collapsed
coordinate direction needs Gauss-Jacobi rules with weight
(1-x)^alpha (1+x)^beta to absorb the Duffy Jacobian exactly.

Everything here is exact-arithmetic-testable: three-term recurrences,
the derivative identity d/dx P_n^{a,b} = (n+a+b+1)/2 P_{n-1}^{a+1,b+1},
and quadrature rules that integrate polynomials to the advertised degree.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "jacobi",
    "jacobi_derivative",
    "gauss_jacobi",
]


def jacobi(n: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Evaluate P_n^{alpha,beta} at points x by the three-term recurrence."""
    if n < 0:
        raise ValueError("polynomial degree must be >= 0")
    if alpha <= -1 or beta <= -1:
        raise ValueError("Jacobi parameters must exceed -1")
    x = np.asarray(x, dtype=np.float64)
    p0 = np.ones_like(x)
    if n == 0:
        return p0
    p1 = 0.5 * (alpha - beta + (alpha + beta + 2.0) * x)
    if n == 1:
        return p1
    for k in range(1, n):
        a, b = alpha, beta
        a1 = 2.0 * (k + 1) * (k + a + b + 1) * (2 * k + a + b)
        a2 = (2 * k + a + b + 1) * (a * a - b * b)
        a3 = (2 * k + a + b) * (2 * k + a + b + 1) * (2 * k + a + b + 2)
        a4 = 2.0 * (k + a) * (k + b) * (2 * k + a + b + 2)
        p2 = ((a2 + a3 * x) * p1 - a4 * p0) / a1
        p0, p1 = p1, p2
    return p1


def jacobi_derivative(n: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """First derivative of P_n^{alpha,beta} at x:
    d/dx P_n^{a,b} = ((n + a + b + 1) / 2) P_{n-1}^{a+1,b+1}."""
    x = np.asarray(x, dtype=np.float64)
    if n < 1:
        return np.zeros_like(x)
    return 0.5 * (n + alpha + beta + 1) * jacobi(n - 1, alpha + 1, beta + 1, x)


def gauss_jacobi(n: int, alpha: float = 0.0, beta: float = 0.0):
    """n-point Gauss-Jacobi rule: exact for polynomial degree <= 2n-1
    against the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    A rule is a reference-space constant: it is solved for once per
    process and every caller gets the same two read-only arrays
    (however the arguments are spelled — ``(4,)``, ``(4, 0, 0)`` and
    ``(4, 0.0, beta=0.0)`` are one entry).
    """
    return _gauss_jacobi(int(n), float(alpha), float(beta))


@functools.cache
def _gauss_jacobi(n: int, alpha: float, beta: float):
    if n < 1:
        raise ValueError("need at least one quadrature point")
    x, w = (np.array(a, dtype=np.float64) for a in roots_jacobi(n, alpha, beta))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
