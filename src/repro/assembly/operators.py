"""Elemental operators: mass, Laplacian (stiffness) and, batched, Helmholtz.

All are dense (nmodes x nmodes) matrices built by quadrature against the
element's :class:`~repro.mesh.mapping.GeomFactors`, using the counted
dgemm substrate so operator setup shows up in the op accounting.  The
Laplacian with boundary-first mode ordering is the matrix whose
structure the paper shows in Figure 10: symmetric, with a banded
interior-interior block.
"""

from __future__ import annotations

import numpy as np

from ..linalg import blas
from ..mesh.mapping import GeomFactors
from ..spectral.expansions import Expansion2D

__all__ = [
    "elemental_mass",
    "elemental_laplacian",
    "elemental_mass_batched",
    "elemental_laplacian_batched",
    "elemental_helmholtz_batched",
]


def _weighted_outer(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[0]))
    blas.dgemm(1.0, a * w, b, 0.0, out, transb=True)
    return out


def elemental_mass(exp: Expansion2D, gf: GeomFactors) -> np.ndarray:
    """M_ij = int_elem phi_i phi_j dx."""
    return _weighted_outer(exp.phi, gf.jw, exp.phi)


def elemental_laplacian(exp: Expansion2D, gf: GeomFactors) -> np.ndarray:
    """L_ij = int_elem grad(phi_i) . grad(phi_j) dx (Figure 10)."""
    dx, dy = gf.physical_gradients(exp.dphi1, exp.dphi2)
    return _weighted_outer(dx, gf.jw, dx) + _weighted_outer(dy, gf.jw, dy)


# --- stacked (batched) operator setup ----------------------------------------
#
# Same quadrature formulas over whole element groups: the per-element
# dgemm calls become one dgemm_batched per group, which charges exactly
# the per-element flop/byte totals (see repro.linalg.blas).  ``jw`` is
# the (ng, nq) stacked weights and ``dxi`` the (ng, 2, 2, nq) stacked
# inverse-Jacobian factors of an :class:`~repro.assembly.batching.ElementBatch`.
#
# The quadrature weights are applied in *split square-root* form: with
# sa = a * sqrt(w) the weighted outer product a W b^T becomes sa sb^T,
# so the Jacobian weighting rides along in the (tiny) geometric-factor
# arrays instead of costing an extra (ng, nmodes, nq) elementwise pass
# per operand — the dgemm shapes, and hence the charges, are unchanged.


def _outer_batched(a: np.ndarray, b: np.ndarray, lead: tuple) -> np.ndarray:
    """out[e] = a[e] @ b[e].T for shared or stacked a/b."""
    out = np.zeros(lead + (a.shape[-2], b.shape[-2]))
    blas.dgemm_batched(1.0, a, b, 0.0, out, transb=True)
    return out


def elemental_mass_batched(exp: Expansion2D, jw: np.ndarray) -> np.ndarray:
    """(ng, nmodes, nmodes) stacked mass matrices of one element batch."""
    sphi = exp.phi * np.sqrt(jw)[..., None, :]
    return _outer_batched(sphi, sphi, jw.shape[:-1])


def elemental_laplacian_batched(
    exp: Expansion2D, jw: np.ndarray, dxi: np.ndarray
) -> np.ndarray:
    """(ng, nmodes, nmodes) stacked stiffness matrices (Figure 10)."""
    m = dxi * np.sqrt(jw)[:, None, None, :]
    sdx = exp.dphi1 * m[:, None, 0, 0, :] + exp.dphi2 * m[:, None, 1, 0, :]
    sdy = exp.dphi1 * m[:, None, 0, 1, :] + exp.dphi2 * m[:, None, 1, 1, :]
    lead = jw.shape[:-1]
    return _outer_batched(sdx, sdx, lead) + _outer_batched(sdy, sdy, lead)


def elemental_helmholtz_batched(
    exp: Expansion2D, jw: np.ndarray, dxi: np.ndarray, lam: float
) -> np.ndarray:
    """(ng, nmodes, nmodes) stacked H = L + lam M matrices."""
    if lam < 0.0:
        raise ValueError("Helmholtz constant must be >= 0")
    h = elemental_laplacian_batched(exp, jw, dxi)
    if lam != 0.0:
        h += lam * elemental_mass_batched(exp, jw)
    return h
