"""BLAS substrate: the kernels the paper benchmarks and the DNS code uses.

"BLAS routines account for most of the work in the codes presented"
(Section 3.1).  We provide the five routines the paper times — ``dcopy``,
``daxpy``, ``ddot``, ``dgemv``, ``dgemm`` — plus the handful of others the
solver needs, as thin numpy wrappers that (a) follow BLAS calling
semantics closely enough to be drop-in, and (b) report exact flop and
byte counts to :mod:`repro.linalg.counters` so application stages can be
priced on the simulated machines.

Traffic accounting convention (used consistently by the CPU model):
every operand element read or written counts 8 bytes once per kernel
call; cache reuse *within* a call is the CPU model's business, reuse
*across* calls is ignored (an upper bound on traffic, matching the
paper's "as seen by the user" stance).
"""

from __future__ import annotations

import math

import numpy as np

from .counters import charge

__all__ = [
    "dcopy",
    "daxpy",
    "ddot",
    "ddot_batched",
    "dscal",
    "dnrm2",
    "dgemv",
    "dgemv_batched",
    "dgemm",
    "dgemm_batched",
    "dtrsm_batched",
    "dvmul",
    "flop_count",
    "byte_count",
]


def _as1d(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected 1-D vector, got shape {x.shape}")
    return x


def dcopy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y[:] = x.  Returns y.  (0 flops, 16 bytes/element.)"""
    x, y = _as1d(x), _as1d(y)
    if x.shape != y.shape:
        raise ValueError("dcopy: shape mismatch")
    np.copyto(y, x)
    charge(0.0, 16.0 * x.size, "dcopy")
    return y


def daxpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y += alpha * x, in place.  (2 flops and 24 bytes per element.)"""
    x, y = _as1d(x), _as1d(y)
    if x.shape != y.shape:
        raise ValueError("daxpy: shape mismatch")
    # In-place multiply-add: one temporary-free path per the numpy guide.
    y += alpha * x
    charge(2.0 * x.size, 24.0 * x.size, "daxpy")
    return y


def ddot(x: np.ndarray, y: np.ndarray) -> float:
    """Inner product x . y.  (2 flops and 16 bytes per element.)"""
    x, y = _as1d(x), _as1d(y)
    if x.shape != y.shape:
        raise ValueError("ddot: shape mismatch")
    charge(2.0 * x.size, 16.0 * x.size, "ddot")
    return float(np.dot(x, y))


def dscal(alpha: float, x: np.ndarray) -> np.ndarray:
    """x *= alpha, in place.  (1 flop, 16 bytes per element.)"""
    x = _as1d(x)
    x *= alpha
    charge(1.0 * x.size, 16.0 * x.size, "dscal")
    return x


def dnrm2(x: np.ndarray) -> float:
    """Euclidean norm.  (2 flops per element plus one sqrt.)"""
    x = _as1d(x)
    charge(2.0 * x.size + 1, 8.0 * x.size, "dnrm2")
    return float(np.linalg.norm(x))


def dgemv(
    alpha: float,
    a: np.ndarray,
    x: np.ndarray,
    beta: float,
    y: np.ndarray,
    trans: bool = False,
) -> np.ndarray:
    """y = alpha * op(A) x + beta * y, in place.  op(A) = A or A^T.

    (2*m*n flops; traffic dominated by the matrix, 8*m*n bytes.)
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError("dgemv: A must be 2-D")
    x, y = _as1d(x), _as1d(y)
    op = a.T if trans else a
    m, n = op.shape
    if x.size != n or y.size != m:
        raise ValueError("dgemv: dimension mismatch")
    if beta == 0.0:
        y[:] = alpha * (op @ x)
    else:
        y *= beta
        y += alpha * (op @ x)
    charge(2.0 * m * n, 8.0 * (m * n + n + 2 * m), "dgemv")
    return y


def dgemm(
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
    transa: bool = False,
    transb: bool = False,
) -> np.ndarray:
    """C = alpha * op(A) op(B) + beta * C, in place.  (2*m*n*k flops.)"""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    opa = a.T if transa else a
    opb = b.T if transb else b
    if opa.ndim != 2 or opb.ndim != 2 or c.ndim != 2:
        raise ValueError("dgemm: operands must be 2-D")
    m, k = opa.shape
    k2, n = opb.shape
    if k != k2 or c.shape != (m, n):
        raise ValueError("dgemm: dimension mismatch")
    if beta == 0.0:
        np.matmul(opa, opb, out=c)
        if alpha != 1.0:
            c *= alpha
    else:
        c *= beta
        c += alpha * (opa @ opb)
    charge(2.0 * m * n * k, 8.0 * (m * k + k * n + 2 * m * n), "dgemm")
    return c


def dvmul(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """z = x * y elementwise (the NekTar ``dvmul`` vector kernel)."""
    x, y, z = _as1d(x), _as1d(y), _as1d(z)
    np.multiply(x, y, out=z)
    charge(1.0 * x.size, 24.0 * x.size, "dvmul")
    return z


# --- batched (stacked) kernels ----------------------------------------------
#
# One call performs nb independent small-operand operations laid out
# contiguously in memory — the classic "group same-shape elements and make
# one level-3 call" blocking lever.  Accounting is *identical by
# construction* to nb separate calls of the per-element kernel: each call
# charges nb times the per-item flop/byte formula under the per-element
# kernel's label, so OpCounter flop/byte totals (overall and per label) are
# bit-for-bit the same on both execution paths.  Only the call *count*
# differs (1 per batch instead of nb), which is exactly the interpreter
# overhead the batching removes.


def _op2d(a: np.ndarray, trans: bool) -> np.ndarray:
    """op(A) for a 2-D (shared) or stacked (..., m, n) operand."""
    if a.ndim < 2:
        raise ValueError("batched kernel: matrix operand must be >= 2-D")
    return np.swapaxes(a, -1, -2) if trans else a


def _check_stack_batch(op: np.ndarray, lead: tuple, kernel: str) -> None:
    """A stacked matrix operand's batch dims must be a *suffix* of the
    vector operand's batch dims: extra leading dims (e.g. stacked RHS
    columns sharing the per-element matrices) broadcast over the stack."""
    ob = op.shape[:-2]
    if len(ob) > len(lead) or lead[len(lead) - len(ob) :] != ob:
        raise ValueError(f"{kernel}: batch-shape mismatch")


# repro: waive[accounting] substrate of dgemv_batched, which charges it
def _stacked_matvec(op: np.ndarray, x: np.ndarray) -> np.ndarray:
    """matmul of a (g..., m, n) stack against (..., g..., n) vectors.

    With exactly one extra leading dim the RHS axis is moved last so the
    whole batch is one stacked (m, n) x (n, R) gemm per item — the
    multi-RHS fast path — instead of R strided gemv sweeps.
    """
    if x.ndim == op.ndim:
        return np.moveaxis(np.matmul(op, np.moveaxis(x, 0, -1)), -1, 0)
    return np.matmul(op, x[..., None])[..., 0]


def dgemv_batched(
    alpha: float,
    a: np.ndarray,
    x: np.ndarray,
    beta: float,
    y: np.ndarray,
    trans: bool = False,
) -> np.ndarray:
    """Stacked dgemv: y[i] = alpha * op(A[i]) x[i] + beta * y[i], in place.

    ``a`` is either a single shared (m, n) matrix or a (..., m, n) stack
    whose batch dims are a suffix of the batch dims of ``x``/``y`` (extra
    leading dims — stacked RHS — broadcast over the matrix stack); ``x``
    is (..., n) and ``y`` is (..., m) with identical leading batch dims.
    Charges exactly nb per-element ``dgemv`` calls' flops/bytes.
    """
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if y.dtype != np.float64:
        raise ValueError("dgemv_batched: y must be float64")
    op = _op2d(a, trans)
    m, n = op.shape[-2:]
    if x.shape[-1] != n or y.shape[-1] != m or x.shape[:-1] != y.shape[:-1]:
        raise ValueError("dgemv_batched: dimension mismatch")
    if op.ndim > 2:
        _check_stack_batch(op, x.shape[:-1], "dgemv_batched")
    nb = math.prod(x.shape[:-1])
    if op.ndim == 2:
        # Shared matrix: the whole batch is one tall gemm, X @ op(A)^T.
        res = np.matmul(x, np.swapaxes(op, -1, -2))
    else:
        res = _stacked_matvec(op, x)
    if beta == 0.0:
        y[...] = alpha * res if alpha != 1.0 else res
    else:
        y *= beta
        y += alpha * res
    charge(nb * 2.0 * m * n, nb * 8.0 * (m * n + n + 2 * m), "dgemv")
    return y


def dtrsm_batched(
    tinv: np.ndarray,
    b: np.ndarray,
    trans: bool = False,
    label: str = "dtrsm",
) -> np.ndarray:
    """Stacked triangular solve T x = b, one sweep per item-RHS.

    ``tinv`` holds the *precomputed inverses* of the (well-conditioned,
    small) triangular factors — a shared (n, n) matrix or a (..., n, n)
    stack whose batch dims are a suffix of ``b``'s — so the sweep is
    performed as a Level-3 multiply.  Charges the classic ``dtrsm``
    count per item-RHS: n^2 flops and the triangle's 4*n^2 bytes (two
    sweeps together therefore price one full ``cho_solve``).  ``label``
    lets callers charge under an algorithm-level label (e.g. the static
    condensation's "sc-chol").
    """
    tinv = np.asarray(tinv, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    op = _op2d(tinv, trans)
    m, n = op.shape[-2:]
    if m != n:
        raise ValueError("dtrsm_batched: factor must be square")
    if b.shape[-1] != n:
        raise ValueError("dtrsm_batched: dimension mismatch")
    if op.ndim > 2:
        _check_stack_batch(op, b.shape[:-1], "dtrsm_batched")
    nb = math.prod(b.shape[:-1])
    if op.ndim == 2:
        out = np.matmul(b, np.swapaxes(op, -1, -2))
    else:
        out = _stacked_matvec(op, b)
    charge(nb * 1.0 * n * n, nb * 4.0 * n * n, label)
    return out


def dgemm_batched(
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
    transa: bool = False,
    transb: bool = False,
) -> np.ndarray:
    """Stacked dgemm: C[i] = alpha * op(A[i]) op(B[i]) + beta * C[i].

    ``a``/``b`` may each be a shared 2-D matrix or a (..., m, k) /
    (..., k, n) stack; ``c`` is the full (..., m, n) stack.  Charges
    exactly nb per-element ``dgemm`` calls' flops/bytes.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if c.dtype != np.float64:
        raise ValueError("dgemm_batched: C must be float64")
    opa = _op2d(a, transa)
    opb = _op2d(b, transb)
    if c.ndim < 2:
        raise ValueError("dgemm_batched: C must be >= 2-D")
    m, k = opa.shape[-2:]
    k2, n = opb.shape[-2:]
    if k != k2 or c.shape[-2:] != (m, n):
        raise ValueError("dgemm_batched: dimension mismatch")
    lead = c.shape[:-2]
    for stack in (opa, opb):
        if stack.ndim > 2 and stack.shape[:-2] != lead:
            raise ValueError("dgemm_batched: batch-shape mismatch")
    nb = math.prod(lead)
    # np.matmul's stacked path degrades on transposed views; a contiguous
    # copy of a small chunk is cheaper than the strided inner loops.
    if opa.ndim > 2 and not opa.flags.c_contiguous:
        opa = np.ascontiguousarray(opa)
    if opb.ndim > 2 and not opb.flags.c_contiguous:
        opb = np.ascontiguousarray(opb)
    if beta == 0.0:
        np.matmul(opa, opb, out=c)
        if alpha != 1.0:
            c *= alpha
    else:
        c *= beta
        c += alpha * np.matmul(opa, opb)
    charge(nb * 2.0 * m * n * k, nb * 8.0 * (m * k + k * n + 2 * m * n), "dgemm")
    return c


def ddot_batched(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise inner products: out[...] = x[...] . y[...] over the last
    axis.  Charges exactly nb per-element ``ddot`` calls' flops/bytes."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim < 1:
        raise ValueError("ddot_batched: shape mismatch")
    nb = math.prod(x.shape[:-1])
    out = np.einsum("...n,...n->...", x, y)
    charge(nb * 2.0 * x.shape[-1], nb * 16.0 * x.shape[-1], "ddot")
    return out


# --- analytic op-count helpers (used by cost-model drivers) -----------------

_FLOPS = {
    "dcopy": lambda n: 0.0,
    "daxpy": lambda n: 2.0 * n,
    "ddot": lambda n: 2.0 * n,
    "dscal": lambda n: 1.0 * n,
    "dgemv": lambda n: 2.0 * n * n,
    "dgemm": lambda n: 2.0 * n * n * n,
}

_BYTES = {
    "dcopy": lambda n: 16.0 * n,
    "daxpy": lambda n: 24.0 * n,
    "ddot": lambda n: 16.0 * n,
    "dscal": lambda n: 16.0 * n,
    "dgemv": lambda n: 8.0 * (n * n + 3.0 * n),
    "dgemm": lambda n: 8.0 * (4.0 * n * n),
}


def flop_count(routine: str, n: int) -> float:
    """Flops for one call of ``routine`` on size-n operands (square for L2/L3)."""
    try:
        return _FLOPS[routine](n)
    except KeyError:
        raise ValueError(f"unknown BLAS routine {routine!r}") from None


def byte_count(routine: str, n: int) -> float:
    """Unique bytes touched by one call of ``routine`` on size-n operands."""
    try:
        return _BYTES[routine](n)
    except KeyError:
        raise ValueError(f"unknown BLAS routine {routine!r}") from None
