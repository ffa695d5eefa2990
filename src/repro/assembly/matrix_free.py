"""Matrix-free sum-factorised elemental operator application.

The dense path tabulates one (nmodes x nmodes) matrix per element —
O(p^4) storage and O(p^4) flops per apply.  On tensor-product (quad)
elements the same weak operators factor through the 1-D basis tables:
evaluate to the quadrature grid (two O(p^3) contractions), multiply the
geometric factors pointwise, contract back with the adjoint tables
(two more O(p^3) contractions).  Nothing elemental is ever assembled,
so a CG solve needs no setup beyond the batch's metric factors.

The contractions are those of the sum-factorised transforms
(``FunctionSpace.backward`` / ``gradient`` / ``load_vector`` /
``grad_load_vector``, which run on the same helpers: ``_coefficient_tensors``,
``_forward``, ``_adjoint``): two ``np.matmul``s each, charged as the two
counted ``dgemm`` calls they once were; the pointwise metric stage is
charged explicitly under the ``mfree-metric`` label (the dense oracle
buries the same work inside its tabulated matrix, so the two paths stay
comparable in the ledger).

Operator diagonals (the Jacobi preconditioner) come from the same
machinery: squaring the 1-D tables elementwise turns the diagonal of
``D^T W D`` into three adjoint contractions against jw-weighted metric
products — still O(p^3), no matrix formed.
"""

from __future__ import annotations

import math

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


def _charge_dgemms(nb: int, dgemms) -> None:
    """Replay what one sum-factorised contraction over ``nb`` elements
    charged: its two ``dgemm_batched`` calls, in order."""
    for flops, nbytes in dgemms:
        charge(nb * flops, nb * nbytes, "dgemm")


def _coefficient_tensors(b, u: np.ndarray) -> np.ndarray:
    """(..., ndof) global coefficients -> the (..., ng, P+1, P+1) stack of
    signed C^T tensors every forward contraction starts from.  np.take,
    not u[..., dofs]: with leading axes the fancy index hands back a
    transposed-layout array, and every matmul downstream would run
    strided."""
    ct = np.take(u, b.dofs_ct, axis=-1)
    ct *= b.signs_ct
    return ct


def _forward(tl, nb: int, ct: np.ndarray, right: np.ndarray, left_t: np.ndarray):
    """out[..., j * n1 + i] = sum_pq C[p, q] left[q, j] right[p, i] for a
    stack ``ct`` of C^T tensors: (..., nq) values at the quadrature
    points.  ``right`` tabulates the xi1 (fast, index i) direction,
    ``left_t`` is the transposed table of the xi2 (slow, j) direction."""
    out = np.matmul(left_t, np.matmul(ct, right))
    _charge_dgemms(nb, tl.forward_charges)
    return out.reshape(out.shape[:-2] + (tl.n1 * tl.n1,))


def _adjoint(tl, nb: int, v: np.ndarray, left: np.ndarray, right: np.ndarray):
    """out[..., p, q] = sum_ij right[p, i] left[q, j] V[j, i] for a
    (..., nq) stack of quadrature-point values.  np.matmul's stacked
    path degrades on transposed views; a contiguous copy of the small
    intermediate is cheaper than strided inner loops."""
    tmp = np.matmul(left, v.reshape(v.shape[:-1] + (tl.n1, tl.n1)))
    out = np.matmul(right, np.ascontiguousarray(np.swapaxes(tmp, -1, -2)))
    _charge_dgemms(nb, tl.adjoint_charges)
    return out


def _laplacian_tensors(b, tl, nb: int, ct: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Weak Laplacian D^T (jw G) D u, as (..., P+1, P+1) tensors:
    reference gradients, metric contraction, adjoint derivative inner
    products.  ``tb`` is ``ct @ b1``.

    The ``del``s are for the block path: there each dead stack is
    ~100 KB, and a heap that peaks half a megabyte higher is trimmed at
    the end of every call and faulted back in by the next (a 6-column
    apply reads 30 % slower without them).
    """
    r1 = _forward(tl, nb, ct, tl.d1, tl.b1t)  # d/dxi1
    r2 = np.matmul(tl.d1t, tb).reshape(r1.shape)  # d/dxi2
    _charge_dgemms(nb, tl.forward_charges)
    g11, g12, g21, g22 = b.dxi_stacks  # g[a][b] = d xi_a / d x_b
    dx = r1 * g11 + r2 * g21
    dy = r1 * g12 + r2 * g22
    del r1, r2
    t1 = b.jw * (g11 * dx + g12 * dy)
    t2 = b.jw * (g21 * dx + g22 * dy)
    del dx, dy
    # dx, dy (3 flops each) + t1, t2 (4 flops each) per point.
    _charge_metric(float(t1.size), 14.0)
    out = _adjoint(tl, nb, t1, tl.b1, tl.d1)
    del t1
    out += _adjoint(tl, nb, t2, tl.d1, tl.b1)
    return out


def _mass_tensors(b, tl, nb: int, tb: np.ndarray, scale: float) -> np.ndarray:
    """(phi_m, scale * jw * u) as (..., P+1, P+1) tensors: backward (the
    second half of it: ``tb`` is ``ct @ b1``), weight, adjoint."""
    vals = np.matmul(tl.b1t, tb)
    vals = vals.reshape(vals.shape[:-2] + (tl.n1 * tl.n1,))
    _charge_dgemms(nb, tl.forward_charges)
    # jw multiply (+ optional helmholtz-constant scale): 1-2 flops/point.
    _charge_metric(float(vals.size), 1.0 if scale == 1.0 else 2.0)
    w = b.jw if scale == 1.0 else b.scaled_jw(scale)
    return _adjoint(tl, nb, w * vals, tl.b1, tl.b1)


def apply_operator_batched(
    b, u: np.ndarray, kind: str, lam: float = 0.0
) -> np.ndarray:
    """Matrix-free A_e @ u_e over one quad :class:`ElementBatch`.

    ``u`` is the (..., ndof) global coefficient array; returns the
    (..., ng, nmodes) stack of elemental operator applications of its
    signed gather, bit-for-bit independent of how many leading axes
    ride along.

    One pass: evaluate to the quadrature grid, multiply the metric,
    contract back.  Everything that does not depend on ``u`` — the 1-D
    tables, the dofs and signs in C^T tensor order, the metric
    components as contiguous stacks — sits on the batch and its
    expansion's tensor layout; every array made here is the call's own,
    so concurrent applies on one space do not meet.  The arithmetic is
    that of a gradient / backward transform and a weak right-hand side
    composed, with ``C^T b1`` (the xi2 derivative leg and the mass
    term's backward transform both start from it) computed once and the
    adjoint tensors summed before the one read-out to modal order; the
    charges are replayed contraction by contraction as that composition
    made them, so ledgers and kernel samplers do not see the difference.
    """
    check_kind(kind)
    tl = b.exp.tensor_layout()
    ct = _coefficient_tensors(b, u)
    nb = math.prod(ct.shape[:-2])
    # repro: waive[accounting] charged by each term that starts from it, where the composition computed it
    tb = np.matmul(ct, tl.b1)
    if kind == "mass":
        out = _mass_tensors(b, tl, nb, tb, 1.0)
    else:
        out = _laplacian_tensors(b, tl, nb, ct, tb)
        if kind == "helmholtz" and lam != 0.0:
            out += _mass_tensors(b, tl, nb, tb, lam)
    return out[..., tl.pq[:, 0], tl.pq[:, 1]]


def diagonal_operator_batched(b, kind: str, lam: float = 0.0) -> np.ndarray:
    """Per-element operator diagonals of a quad batch, (ng, nmodes),
    without forming the matrices.

    diag[(p,q)] of D^T W D splits over the squared 1-D tables:
    (d/dx phi)^2 = (d1 b1)^2 g11^2 + 2 (d1 b1)(b1 d1) g11 g21 +
    (b1 d1)^2 g21^2 — three adjoint contractions against jw-weighted
    metric products (plus one more for the mass term).
    """
    check_kind(kind)
    tl = b.exp.tensor_layout()
    b2 = tl.b1 * tl.b1
    d2 = tl.d1 * tl.d1
    bd = tl.b1 * tl.d1
    jw = b.jw
    if kind == "mass":
        out = _adjoint(tl, b.ng, jw, b2, b2)
    else:
        g11, g12, g21, g22 = b.dxi_stacks
        w_aa = jw * (g11**2 + g12**2)
        w_ab = 2.0 * jw * (g11 * g21 + g12 * g22)
        w_bb = jw * (g21**2 + g22**2)
        # Metric products: 3 weighted quadratic forms, ~12 flops per point.
        _charge_metric(float(jw.size), 12.0)
        out = _adjoint(tl, b.ng, w_aa, b2, d2)
        out += _adjoint(tl, b.ng, w_ab, bd, bd)
        out += _adjoint(tl, b.ng, w_bb, d2, b2)
        if kind == "helmholtz" and lam != 0.0:
            out += lam * _adjoint(tl, b.ng, jw, b2, b2)
    return out[..., tl.pq[:, 0], tl.pq[:, 1]]
