"""Spectral substrate: Jacobi polynomials, quadrature, modal expansions."""

from .basis import (
    bubble,
    bubble_deriv,
    edge_reversal_sign,
    h0,
    h1,
    modified_a,
    modified_a_deriv,
)
from .expansions import Expansion2D, Mode, QuadExpansion, TriExpansion
from .jacobi import (
    gauss_jacobi,
    gauss_lobatto_jacobi,
    jacobi,
    jacobi_derivative,
)
from .quadrature import Rule1D, TensorRule2D, quad_rule, tri_rule

__all__ = [
    "jacobi",
    "jacobi_derivative",
    "gauss_jacobi",
    "gauss_lobatto_jacobi",
    "Rule1D",
    "TensorRule2D",
    "quad_rule",
    "tri_rule",
    "h0",
    "h1",
    "bubble",
    "bubble_deriv",
    "modified_a",
    "modified_a_deriv",
    "edge_reversal_sign",
    "Mode",
    "Expansion2D",
    "QuadExpansion",
    "TriExpansion",
]
