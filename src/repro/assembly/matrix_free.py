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
``_forward``, ``_adjoint``).  They run on element-middle blocks —
``(lead, slow, element, fast)``, the batch's elements between the two
tensor axes — so each leg is one GEMM over the whole batch, not one
small matmul per element: ``_fast`` contracts the fast axis as one
``(L·a·ng, k) @ (k, m)`` product, ``_slow`` the slow axis as one
``(m, a) @ (a, ng·k)`` product per leading row.  Every contraction is
charged as the two counted ``dgemm`` calls it once was; the pointwise
metric stage is charged under the ``mfree-metric`` label (the dense
oracle buries the same work inside its tabulated matrix, so the two
paths stay comparable in the ledger).  The helpers charge nothing
themselves: every call that runs them charges its whole sequence at
once, a tape (:func:`call_tape`) recorded on first use and cached on
the batch.

Operator diagonals (the Jacobi preconditioner) come from the same
machinery: squaring the 1-D tables elementwise turns the diagonal of
``D^T W D`` into three adjoint contractions against jw-weighted metric
products — still O(p^3), no matrix formed.
"""

from __future__ import annotations

import math

import numpy as np

from ..linalg.counters import Tape, charge_tape

__all__ = [
    "apply_operator_batched",
    "call_tape",
    "check_kind",
    "diagonal_operator_batched",
    "diagonal_tape",
]

KINDS = ("mass", "laplacian", "helmholtz")


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown elemental operator kind: {kind!r}")


# What each sum-factorised call charges, leg by leg and in order: "F" is
# a forward contraction's two dgemms (_TensorLayout.forward_charges), "A"
# an adjoint one's (adjoint_charges), a number the pointwise metric stage
# at that many flops per quadrature point.  An operator apply's mass
# term, when it has one, follows as ("F", its flops per point, "A").
_LEGS = {
    "backward": ("F",),
    "gradient": ("F", "F"),
    "load_vector": ("A",),
    "grad_load_vector": ("A", "A"),
    "mass": (),
    # dx, dy (3 flops each) + t1, t2 (4 flops each) per point.
    "laplacian": ("F", "F", 14.0, "A", "A"),
    "helmholtz": ("F", "F", 14.0, "A", "A"),
    "diagonal mass": ("A",),
    # Metric products: 3 weighted quadratic forms, ~12 flops per point.
    "diagonal laplacian": (12.0, "A", "A", "A"),
    "diagonal helmholtz": (12.0, "A", "A", "A", "A"),
}


def call_tape(b, nlead: int, call: str, mass: float = 0.0) -> Tape:
    """The charges of one sum-factorised ``call`` (a key of ``_LEGS``) on
    quad batch ``b`` over ``nlead`` leading-axis copies of its elements:
    the ``dgemm_batched`` calls its contractions once were and its
    metric stage, in order (DESIGN.md section 15.3).  ``mass`` is the
    metric flops per point of an apply's mass term, 0.0 for none.

    Recorded at first request and cached on the batch, keyed by
    ``(nlead, call, mass)``.  A tape is an immutable tuple: two threads
    that miss at once record equal tapes, and either may keep the slot.
    """
    key = (nlead, call, mass)
    tape = b.tapes.get(key)
    if tape is None:
        tape = b.tapes[key] = _record(b.exp.tensor_layout(), nlead * b.ng, call, mass)
    return tape


def _record(tl, nb: int, call: str, mass: float) -> Tape:
    legs = _LEGS[call] + (("F", mass, "A") if mass else ())
    n = float(nb * tl.n1 * tl.n1)  # quadrature points the call covers
    tape: list[tuple[float, float, str]] = []
    for leg in legs:
        if leg == "F" or leg == "A":
            dgemms = tl.forward_charges if leg == "F" else tl.adjoint_charges
            tape += [(nb * flops, nb * nbytes, "dgemm") for flops, nbytes in dgemms]
        else:
            # Streaming traffic: ~one read + one write of an 8-byte value
            # per flop.
            tape.append((leg * n, 16.0 * leg * n, "mfree-metric"))
    return tuple(tape)


def _mass_flops(kind: str, lam: float) -> float:
    """Metric flops per point of an apply's mass term: the jw multiply,
    plus the Helmholtz constant's scale unless it is 1 (0.0: no term)."""
    if kind == "mass":
        return 1.0
    if kind == "helmholtz" and lam != 0.0:
        return 1.0 if lam == 1.0 else 2.0
    return 0.0


def _element_middle(tl, v: np.ndarray) -> np.ndarray:
    """(..., ng, nq) quadrature values -> the contiguous (L, n1, ng, n1)
    element-middle block the contractions read (``[l, j, e, i]``; L is
    the product of the leading axes, 1 for none)."""
    ng = v.shape[-2]
    block = v.reshape(math.prod(v.shape[:-2]), ng, tl.n1, tl.n1)
    return np.ascontiguousarray(block.transpose(0, 2, 1, 3))


def _element_last(x: np.ndarray, lead: tuple) -> np.ndarray:
    """An (L, n1, ng, n1) block of quadrature values -> the transforms'
    public (*lead, ng, nq) layout (one transposed copy)."""
    _, n1, ng, _ = x.shape
    return x.transpose(0, 2, 1, 3).reshape(lead + (ng, n1 * n1))


def _modal(b, out: np.ndarray, lead: tuple) -> np.ndarray:
    """An (L, P+1, ng, P+1) block of adjoint tensors -> the
    (*lead, ng, nmodes) modal stack: one read-out through
    ``b.readout``."""
    flat = out.reshape(out.shape[0], math.prod(out.shape[1:]))
    return np.take(flat, b.readout, axis=1).reshape(lead + b.readout.shape)


def _coefficient_tensors(b, u: np.ndarray) -> np.ndarray:
    """(..., ndof) global coefficients -> the (L, P+1, ng, P+1)
    element-middle block of signed C^T tensors every forward contraction
    starts from (``[l, q, e, p]`` is mode (p, q) of element e).
    ``np.take`` at ``b.dofs_em`` hands back a fresh contiguous block,
    whatever the strides of ``u``."""
    ct = np.take(u, b.dofs_em, axis=-1)
    ct *= b.signs_em
    return ct.reshape((math.prod(u.shape[:-1]),) + b.dofs_em.shape)


# repro: waive[accounting] charged by its caller's call_tape (apply_operator_batched, diagonal_operator_batched, the FunctionSpace transforms)
def _fast(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``x[..., l, a, e, k]`` contracted with ``table[..., k, m]`` along
    the fast axis, (..., L, a, ng, k) -> (..., L, a, ng, m): one
    (L·a·ng, k) @ (k, m) GEMM per stacked table (a transposed ``table``
    view goes in as BLAS's transpose flag)."""
    L, a, ng, k = x.shape[-4:]
    out = x.reshape(x.shape[:-4] + (L * a * ng, k)) @ table
    return out.reshape(out.shape[:-2] + (L, a, ng, table.shape[-1]))


# repro: waive[accounting] charged by its caller's call_tape (apply_operator_batched, diagonal_operator_batched, the FunctionSpace transforms)
def _slow(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``table[..., m, a]`` contracted with ``x[..., l, a, e, k]`` along
    the slow axis, (..., L, a, ng, k) -> (..., L, m, ng, k): one
    (m, a) @ (a, ng·k) GEMM per stacked table and leading row."""
    L, a, ng, k = x.shape[-4:]
    out = np.matmul(table[..., None, :, :], x.reshape(x.shape[:-4] + (L, a, ng * k)))
    return out.reshape(out.shape[:-3] + (L, table.shape[-2], ng, k))


def _forward(ct: np.ndarray, right: np.ndarray, left_t: np.ndarray) -> np.ndarray:
    """out[l, j, e, i] = sum_pq C[p, q] left[q, j] right[p, i] for a block
    ``ct`` of C^T tensors: the (L, n1, ng, n1) values at the quadrature
    points.  ``right`` tabulates the xi1 (fast, index i) direction,
    ``left_t`` is the transposed table of the xi2 (slow, j) direction;
    the fast axis is contracted first.  Stacked tables give a stack of
    value blocks, one per table pair."""
    return _slow(left_t, _fast(ct, right))


def _adjoint(v: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """out[l, q, e, p] = sum_ij right[p, i] left[q, j] V[j, i] for an
    (L, n1, ng, n1) block of quadrature-point values: an (L, P+1, ng,
    P+1) block of C^T tensors.  The slow axis (``left``) is contracted
    first, then the fast one (``right``): the order the frozen kernels
    summed in, so the bits match them (the other order moves the last
    bits, and with them the ALE solver's pinned PCG counts)."""
    return _fast(_slow(left, v), right.T)


def apply_operator_batched(
    b, u: np.ndarray, kind: str, lam: float = 0.0
) -> np.ndarray:
    """Matrix-free A_e @ u_e over one quad :class:`ElementBatch`.

    ``u`` is the (..., ndof) global coefficient array; returns the
    (..., ng, nmodes) stack of elemental operator applications of its
    signed gather, bit-for-bit independent of how many leading axes
    ride along.

    One pass: evaluate to the quadrature grid, multiply the metric,
    contract back.  Everything that does not depend on ``u`` — the
    stacked 1-D tables, the dofs, signs and metric as element-middle
    blocks, the read-out table, the charge tape — sits on the batch and
    its expansion's tensor layout; every array made here is the call's
    own, so concurrent applies on one space do not meet.

    The legs — the xi2 derivative, the xi1 derivative and the mass
    term, the entries of ``tl.bdb`` / ``tl.dbb_t`` — run side by side:
    each contraction stage is one stacked matmul (one dgemm per leg,
    of the shape a lone leg's call has), and the metric stage works on
    stacked blocks.  The per-point products and sums, and the summing
    of the adjoint tensors before the one read-out to modal order, are
    those of a gradient / backward transform and a weak right-hand
    side composed; the tape charges contraction by contraction what that
    composition charged (``C^T b1``, which two legs start from, at both
    places), so ledgers and kernel samplers do not see the difference.

    The metric stage writes over the value stack it reads, and the
    ``del``s drop each dead stack before the next one is made: on the
    block path a stack is hundreds of KB, and a heap that peaks higher
    is trimmed at the end of every call and faulted back in by the next.
    """
    check_kind(kind)
    tl = b.exp.tensor_layout()
    mass = _mass_flops(kind, lam)
    legs = slice(2, 3) if kind == "mass" else slice(0, 3 if mass else 2)
    fwd, back = tl.bdb[legs], tl.dbb_t[legs]
    vals = _forward(_coefficient_tensors(b, u), fwd, back)
    if kind != "mass":
        g = b.dxi_em  # g[a, b] = d xi_a / d x_b
        # (dx, dy) = r1 (g11, g12) + r2 (g21, g22), r1 = vals[1], r2 = vals[0]
        d = vals[1] * g[0]
        d += vals[0] * g[1]
        # (t1, t2) = jw ((g11, g21) dx + (g12, g22) dy), over r2 and r1
        t = vals[:2]
        np.multiply(g[:, 0], d[0], out=t)
        t += g[:, 1] * d[1]
        t *= b.jw_em
        del d
    if mass:
        scale = 1.0 if kind == "mass" else lam
        vals[-1] *= b.jw_em if scale == 1.0 else b.scaled_jw(scale)
    z = _fast(_slow(fwd, vals), back)
    del vals
    if kind == "mass":
        out = z[0]
    else:
        out = z[0] + z[1]
        if mass:
            out += z[2]
    charge_tape(call_tape(b, math.prod(u.shape[:-1]), kind, mass))
    return _modal(b, out, u.shape[:-1])


def diagonal_tape(b, kind: str, lam: float = 0.0) -> Tape:
    """The charges of one :func:`diagonal_operator_batched` call."""
    if kind == "mass":
        return call_tape(b, 1, "diagonal mass")
    if kind == "helmholtz" and lam != 0.0:
        return call_tape(b, 1, "diagonal helmholtz")
    return call_tape(b, 1, "diagonal laplacian")


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
    jw = b.jw_em
    if kind == "mass":
        out = _adjoint(jw, b2, b2)
    else:
        (g11, g12), (g21, g22) = b.dxi_em
        w_aa = jw * (g11**2 + g12**2)
        w_ab = 2.0 * jw * (g11 * g21 + g12 * g22)
        w_bb = jw * (g21**2 + g22**2)
        out = _adjoint(w_aa, b2, d2)
        out += _adjoint(w_ab, bd, bd)
        out += _adjoint(w_bb, d2, b2)
        if kind == "helmholtz" and lam != 0.0:
            out += lam * _adjoint(jw, b2, b2)
    charge_tape(diagonal_tape(b, kind, lam))
    return _modal(b, out, ())
