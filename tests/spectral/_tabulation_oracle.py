"""Frozen reference: mode tables evaluated one mode at a time.

``tabulate`` is ``Expansion2D._tabulate`` and ``eval_basis_full`` the
method of that name as they were before a quad's tables became outer
products of its 1-D factors: every mode's four factor functions are
evaluated at every point and multiplied, the chain rule applied per
kind.  ``reference_edges`` is the per-local-edge loop
``assembly.boundary._reference_edges`` ran over ``eval_basis_full``.
Test-only; do not import from ``src/``.
"""

from __future__ import annotations

import numpy as np

from repro.assembly.boundary import _edge_points
from repro.spectral.expansions import TriExpansion
from repro.spectral.jacobi import gauss_jacobi


def collapse(exp, xi1, xi2):
    """(xi1, xi2) -> the expansion's separable coordinates (a, b)."""
    xi1 = np.asarray(xi1, dtype=np.float64)
    xi2 = np.asarray(xi2, dtype=np.float64)
    if not isinstance(exp, TriExpansion):
        return xi1, xi2
    denom = 1.0 - xi2
    a = np.where(denom > 1e-14, 2.0 * (1.0 + xi1) / np.maximum(denom, 1e-300) - 1.0, -1.0)
    return a, xi2


def _ref_deriv(exp, fa, dfa, gb, dgb, A, B):
    if not isinstance(exp, TriExpansion):
        return dfa * gb, fa * dgb
    # d a/d xi1 = 2/(1-b);  d a/d xi2 = (1+a)/(1-b);  b = xi2.
    inv = 2.0 / (1.0 - B)
    d1 = dfa * gb * inv
    d2 = dfa * gb * 0.5 * (1.0 + A) * inv + fa * dgb
    return d1, d2


def _tables(exp, A, B):
    n = A.size
    phi = np.empty((exp.nmodes, n))
    d1 = np.empty((exp.nmodes, n))
    d2 = np.empty((exp.nmodes, n))
    for m, mode in enumerate(exp.modes):
        fa, dfa = mode.f(A), mode.df(A)
        gb, dgb = mode.g(B), mode.dg(B)
        phi[m] = fa * gb
        d1[m], d2[m] = _ref_deriv(exp, fa, dfa, gb, dgb, A, B)
    return phi, d1, d2


def tabulate(exp):
    """(phi, dphi1, dphi2) on the expansion's quadrature grid."""
    return _tables(exp, *exp.rule.points)


def eval_basis_full(exp, xi1, xi2):
    """(phi, dphi/dxi1, dphi/dxi2) tables at arbitrary reference points
    (away from the triangle's collapsed vertex)."""
    xi1 = np.atleast_1d(np.asarray(xi1, dtype=np.float64))
    xi2 = np.atleast_1d(np.asarray(xi2, dtype=np.float64))
    A, B = collapse(exp, xi1, xi2)
    if isinstance(exp, TriExpansion) and np.any(1.0 - B < 1e-12):
        raise ValueError("derivative evaluation at the collapsed vertex")
    return _tables(exp, A, B)


def reference_edges(exp, n1d):
    """``(w, phi, d1, d2)``: edge Gauss weights and the basis tables at
    each local edge's ``n1d`` Gauss points, (nedges, nmodes, n1d)."""
    _, w = gauss_jacobi(n1d)
    kind = "tri" if isinstance(exp, TriExpansion) else "quad"
    xi1, xi2, _ = _edge_points(kind, n1d)
    basis = [eval_basis_full(exp, xi1[le, 0], xi2[le, 0]) for le in range(exp.nedges)]
    return (w, *(np.array([b[i] for b in basis]) for i in range(3)))
