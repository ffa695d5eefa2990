"""Matrix-free sum-factorised elemental operator application.

The dense path tabulates one (nmodes x nmodes) matrix per element —
O(p^4) storage and O(p^4) flops per apply.  On tensor-product (quad)
elements the same weak operators factor through the 1-D basis tables:
evaluate to the quadrature grid (two O(p^3) contractions), multiply the
geometric factors pointwise, contract back with the adjoint tables
(two more O(p^3) contractions).  Nothing elemental is ever assembled,
so a CG solve needs no setup beyond the batch's metric factors.

All contractions run through the counted ``repro.linalg.blas`` dgemm
substrate; the pointwise metric stage is charged explicitly under the
``mfree-metric`` label (the dense oracle buries the same work inside
its tabulated matrix, so the two paths stay comparable in the ledger).

Operator diagonals (the Jacobi preconditioner) come from the same
machinery: squaring the 1-D tables elementwise turns the diagonal of
``D^T W D`` into three adjoint contractions against jw-weighted metric
products — still O(p^3), no matrix formed.
"""

from __future__ import annotations

import numpy as np

from ..linalg.counters import charge

__all__ = [
    "apply_operator_batched",
    "check_kind",
    "diagonal_operator_batched",
]

KINDS = ("mass", "laplacian", "helmholtz")


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown elemental operator kind: {kind!r}")


def _charge_metric(n: float, flops_per_point: float) -> None:
    """Pointwise metric work over n quadrature points: the stated flops
    plus streaming traffic (read the operand stacks, write the results;
    ~one read + one write of an 8-byte value per flop)."""
    charge(flops_per_point * n, 16.0 * flops_per_point * n, "mfree-metric")


def _apply_mass(b, local: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """(phi_m, scale * jw * u) per element: backward, weight, adjoint."""
    vals = b.exp.backward_sumfact_batched(local)
    # jw multiply (+ optional helmholtz-constant scale): 1-2 flops/point.
    nppf = 1.0 if scale == 1.0 else 2.0
    _charge_metric(float(vals.size), nppf)
    w = b.jw if scale == 1.0 else scale * b.jw
    return b.exp.iproduct_sumfact_batched(w * vals)


def _apply_laplacian(b, local: np.ndarray) -> np.ndarray:
    """Weak Laplacian D^T (jw G) D u: reference gradients, metric
    contraction, adjoint derivative inner products."""
    exp = b.exp
    d1, d2 = exp.gradient_sumfact_batched(local)
    g = b.dxi  # (ng, 2, 2, nq): dxi[a, b] = d xi_{a+1} / d x_{b+1}
    dx = d1 * g[:, 0, 0] + d2 * g[:, 1, 0]
    dy = d1 * g[:, 0, 1] + d2 * g[:, 1, 1]
    t1 = b.jw * (g[:, 0, 0] * dx + g[:, 0, 1] * dy)
    t2 = b.jw * (g[:, 1, 0] * dx + g[:, 1, 1] * dy)
    # dx, dy (3 flops each) + t1, t2 (4 flops each) per point.
    _charge_metric(float(d1.size), 14.0)
    out = exp.iproduct_sumfact_batched(t1, deriv=1)
    out += exp.iproduct_sumfact_batched(t2, deriv=2)
    return out


def apply_operator_batched(
    b, local: np.ndarray, kind: str, lam: float = 0.0
) -> np.ndarray:
    """Matrix-free A_e @ u over one quad :class:`ElementBatch`.

    ``local`` is a (..., ng, nmodes) signed-gathered coefficient stack;
    returns the same-shape stack of elemental operator applications,
    bit-for-bit independent of how many leading axes ride along.
    """
    check_kind(kind)
    if kind == "mass":
        return _apply_mass(b, local)
    out = _apply_laplacian(b, local)
    if kind == "helmholtz" and lam != 0.0:
        out += _apply_mass(b, local, scale=lam)
    return out


def diagonal_operator_batched(b, kind: str, lam: float = 0.0) -> np.ndarray:
    """Per-element operator diagonals of a quad batch, (ng, nmodes),
    without forming the matrices.

    diag[(p,q)] of D^T W D splits over the squared 1-D tables:
    (d/dx phi)^2 = (d1 b1)^2 g11^2 + 2 (d1 b1)(b1 d1) g11 g21 +
    (b1 d1)^2 g21^2 — three adjoint contractions against jw-weighted
    metric products (plus one more for the mass term).
    """
    check_kind(kind)
    exp = b.exp
    tl = exp.tensor_layout()
    shape = (b.ng, tl.n1, tl.n1)
    b2 = tl.b1 * tl.b1
    d2 = tl.d1 * tl.d1
    bd = tl.b1 * tl.d1
    g, jw = b.dxi, b.jw
    if kind == "mass":
        out = exp._contract_t_batched(jw.reshape(shape), b2, b2)
        return tl.from_tensor_batched(out)
    w_aa = jw * (g[:, 0, 0] ** 2 + g[:, 0, 1] ** 2)
    w_ab = 2.0 * jw * (g[:, 0, 0] * g[:, 1, 0] + g[:, 0, 1] * g[:, 1, 1])
    w_bb = jw * (g[:, 1, 0] ** 2 + g[:, 1, 1] ** 2)
    # Metric products: 3 weighted quadratic forms, ~12 flops per point.
    _charge_metric(float(jw.size), 12.0)
    out = exp._contract_t_batched(w_aa.reshape(shape), b2, d2)
    out += exp._contract_t_batched(w_ab.reshape(shape), bd, bd)
    out += exp._contract_t_batched(w_bb.reshape(shape), d2, b2)
    if kind == "helmholtz" and lam != 0.0:
        out += lam * exp._contract_t_batched(jw.reshape(shape), b2, b2)
    return tl.from_tensor_batched(out)
