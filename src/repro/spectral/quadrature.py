"""Quadrature rules on the reference line, quadrilateral and triangle.

The quadrilateral uses a tensor Gauss-Legendre (or Gauss-Lobatto) grid.
The triangle is integrated in collapsed (Duffy) coordinates
(a, b) in [-1,1]^2 with

    int_T f dxi1 dxi2 = int int f(a, b) (1 - b)/2 da db,

so the b-direction uses a Gauss-Jacobi rule with alpha = 1 whose weight
function (1 - b) absorbs the Jacobian exactly (Karniadakis & Sherwin
1999, ch. 4).  Gauss (endpoint-free) rules keep the collapsed vertex
b = 1 out of every evaluation, so the chain-rule factors 1/(1-b) used by
the triangle expansion are always finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..linalg import blas
from .jacobi import gauss_jacobi

__all__ = ["Rule1D", "TensorRule2D", "quad_rule", "tri_rule"]


@dataclass(frozen=True)
class Rule1D:
    """Nodes and weights of a 1-D rule on [-1, 1]."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return self.points.size

    def integrate(self, fvals: np.ndarray) -> float:
        return blas.ddot(self.weights, np.asarray(fvals, dtype=np.float64))


@dataclass(frozen=True)
class TensorRule2D:
    """Tensor rule on a 2-D reference element.

    ``rule_a`` runs in the first reference direction, ``rule_b`` in the
    second; ``scale`` multiplies the tensor weights (1/2 for the
    triangle's Duffy factor already baked into the Jacobi weight).
    Combined weights are stored flattened with the *a* index fastest,
    matching the (nq_a * nq_b) flattening used by the expansions.
    ``weights`` and ``points`` are tabulated at first use and shared,
    read-only, by everything that holds the rule.
    """

    rule_a: Rule1D
    rule_b: Rule1D
    scale: float = 1.0

    @property
    def nq(self) -> int:
        return self.rule_a.n * self.rule_b.n

    @cached_property
    def weights(self) -> np.ndarray:
        wa, wb = self.rule_a.weights, self.rule_b.weights
        w = self.scale * np.outer(wb, wa).ravel()
        w.setflags(write=False)
        return w

    @cached_property
    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) coordinates of all tensor points, a-fastest flattening."""
        pa, pb = self.rule_a.points, self.rule_b.points
        A = np.tile(pa, pb.size)
        B = np.repeat(pb, pa.size)
        A.setflags(write=False)
        B.setflags(write=False)
        return A, B

    def integrate(self, fvals: np.ndarray) -> float:
        return blas.ddot(self.weights, np.ravel(np.asarray(fvals, dtype=np.float64)))


def quad_rule(nq: int) -> TensorRule2D:
    """Gauss-Legendre tensor rule on the reference quadrilateral
    [-1,1]^2, exact for degree <= 2*nq - 1 in each direction."""
    x, w = gauss_jacobi(nq, 0.0, 0.0)
    r = Rule1D(x, w)
    return TensorRule2D(r, r)


def tri_rule(nq: int) -> TensorRule2D:
    """Collapsed-coordinate rule on the reference triangle
    {(xi1, xi2): xi1, xi2 >= -1, xi1 + xi2 <= 0}.

    Gauss-Legendre in a; Gauss-Jacobi(1, 0) in b with the extra 1/2
    Duffy factor in ``scale``.  Exact for integrands polynomial of
    degree <= 2*nq - 1 in a and <= 2*nq - 2 in b (one power of b is
    spent on the Jacobian).
    """
    xa, wa = gauss_jacobi(nq, 0.0, 0.0)
    xb, wb = gauss_jacobi(nq, 1.0, 0.0)
    return TensorRule2D(Rule1D(xa, wa), Rule1D(xb, wb), scale=0.5)
