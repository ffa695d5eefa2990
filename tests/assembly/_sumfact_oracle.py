"""Frozen oracle: the sum-factorised kernels and transforms as they stood
before the one-pass bodies of DESIGN.md sections 9 and 15.3.

Everything here was deleted from ``src/`` and lives on verbatim (methods
turned into functions of ``exp`` / ``tl`` / ``b`` / ``space``, nothing
else changed) as what the live code is compared against:

* the ``QuadExpansionMixin`` kernels — ``backward`` / ``gradient`` /
  ``iproduct_sumfact_batched`` over ``_contract_batched`` /
  ``_contract_t_batched`` (one counted ``blas.dgemm_batched`` per
  contraction leg, into a zeroed output) and ``_TensorLayout``'s
  ``to_tensor_batched`` / ``from_tensor_batched``;
* ``ElementBatch.scatter_add`` (one ``np.add.at`` per leading index);
* ``FunctionSpace.backward`` / ``gradient`` / ``load_vector`` /
  ``grad_load_vector`` and ``matrix_free.diagonal_operator_batched`` on
  top of them: gather -> ``to_tensor`` -> contractions -> strided
  ``dxi[:, a, b]`` views -> ``out[..., b.elems, :] = vals`` /
  ``add.at`` scatter.

The contractions still go through the live ``blas.dgemm_batched``, so
the charges the oracle makes are by construction the ones the replaying
bodies in ``src/`` have to reproduce.
"""

import numpy as np

from repro.linalg import blas
from repro.linalg.counters import charge

# -- _TensorLayout -------------------------------------------------------------


def to_tensor_batched(tl, coeffs):
    """(..., nmodes) modal stacks -> (..., P+1, P+1) tensor stacks."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    c = np.zeros(coeffs.shape[:-1] + (tl.np1, tl.np1))
    c[..., tl.pq[:, 0], tl.pq[:, 1]] = coeffs
    return c


def from_tensor_batched(tl, c):
    """(..., P+1, P+1) tensor stacks -> (..., nmodes) modal stacks."""
    return c[..., tl.pq[:, 0], tl.pq[:, 1]]


# -- QuadExpansionMixin --------------------------------------------------------

_IPRODUCT_TABLES = {0: ("b1", "b1"), 1: ("d1", "b1"), 2: ("b1", "d1")}


def _iproduct_tables(exp, deriv):
    """(right, left) 1-D factor tables of the basis (deriv=0) or of
    its reference derivative d/dxi1 (deriv=1) / d/dxi2 (deriv=2)."""
    tl = exp.tensor_layout()
    r, lft = _IPRODUCT_TABLES[deriv]
    return getattr(tl, r), getattr(tl, lft)


def _contract_batched(exp, c, left, right):
    """out[..., j, i] = sum_pq C[p, q] left[q, j] right[p, i] via two
    counted dgemm_batched calls.  ``c`` is a (..., P+1, P+1) stack
    of C^T tensors; ``right`` tabulates the xi1 (fast, index i)
    direction, ``left`` the xi2 (slow, index j) direction."""
    tl = exp.tensor_layout()
    tmp = np.zeros(c.shape[:-2] + (tl.np1, tl.n1))
    blas.dgemm_batched(1.0, c, right, 0.0, tmp)
    out = np.zeros(c.shape[:-2] + (tl.n1, tl.n1))
    blas.dgemm_batched(1.0, np.swapaxes(left, -1, -2), tmp, 0.0, out)
    return out


def backward_sumfact_batched(exp, coeffs):
    """(..., nmodes) coefficient stacks -> (..., nq) value stacks;
    equivalent to ``phi.T @ coeffs`` per element in O(P^3)."""
    tl = exp.tensor_layout()
    c = to_tensor_batched(tl, coeffs)
    vals = _contract_batched(exp, np.swapaxes(c, -1, -2), tl.b1, tl.b1)
    return vals.reshape(c.shape[:-2] + (tl.n1 * tl.n1,))


def gradient_sumfact_batched(exp, coeffs):
    """Stacked reference derivatives at the quadrature points."""
    tl = exp.tensor_layout()
    ct = np.swapaxes(to_tensor_batched(tl, coeffs), -1, -2)
    d1 = _contract_batched(exp, ct, tl.b1, tl.d1)
    d2 = _contract_batched(exp, ct, tl.d1, tl.b1)
    flat = ct.shape[:-2] + (tl.n1 * tl.n1,)
    return d1.reshape(flat), d2.reshape(flat)


def _contract_t_batched(exp, v, left, right):
    """Adjoint of :func:`_contract_batched`:
    out[..., p, q] = sum_ij right[p, i] left[q, j] V[j, i] for a
    (..., nq1d, nq1d) stack ``v`` of quadrature grids."""
    tl = exp.tensor_layout()
    tmp = np.zeros(v.shape[:-2] + (tl.np1, tl.n1))
    blas.dgemm_batched(1.0, left, v, 0.0, tmp)
    out = np.zeros(v.shape[:-2] + (tl.np1, tl.np1))
    blas.dgemm_batched(1.0, right, tmp, 0.0, out, transb=True)
    return out


def iproduct_sumfact_batched(exp, fvals, deriv=0):
    """(..., nq) weighted value stacks -> (..., nmodes) inner
    products against the basis: ``phi @ fvals`` (deriv=0),
    ``dphi1 @ fvals`` (deriv=1) or ``dphi2 @ fvals`` (deriv=2) per
    element in O(P^3); ``fvals`` must already carry the
    quadrature/metric weights."""
    tl = exp.tensor_layout()
    fvals = np.asarray(fvals, dtype=np.float64)
    v = fvals.reshape(fvals.shape[:-1] + (tl.n1, tl.n1))
    right, left = _iproduct_tables(exp, deriv)
    return from_tensor_batched(tl, _contract_t_batched(exp, v, left, right))


# -- ElementBatch --------------------------------------------------------------


def scatter_add(b, ulocal, uglobal):
    """Accumulate (..., ng, nmodes) signed local values into the
    (..., ndof) global vector(s)."""
    lead = ulocal.shape[:-2]
    if lead:
        for idx in np.ndindex(*lead):
            np.add.at(uglobal[idx], b.dofs, b.signs * ulocal[idx])
    else:
        np.add.at(uglobal, b.dofs, b.signs * ulocal)


# -- FunctionSpace -------------------------------------------------------------


def _coefficients(space, u, who):
    u = np.asarray(u, dtype=np.float64)
    if u.shape[-1:] != (space.ndof,):
        raise ValueError(f"{who}: u must be (..., ndof = {space.ndof}), got {u.shape}")
    return u


def backward(space, u_hat):
    """Global modal coefficients -> values at quadrature points."""
    u_hat = _coefficients(space, u_hat, "backward")
    lead = u_hat.shape[:-1]
    out = np.empty(lead + (space.nelem, space.nq))
    for b in space.batches():
        local = b.gather(u_hat)
        if space.sumfact and b.kind == "quad":
            vals = backward_sumfact_batched(b.exp, local)
        else:
            vals = np.empty(lead + (b.ng, space.nq))
            blas.dgemv_batched(1.0, b.exp.phi, local, 0.0, vals, trans=True)
        out[..., b.elems, :] = vals
    return out


def load_vector(space, values):
    """Assembled (f, phi_i) for f at quadrature points."""
    values = np.asarray(values, dtype=np.float64)
    lead = values.shape[:-2]
    rhs = np.zeros(lead + (space.ndof,))
    if values.shape[-2:] != (space.nelem, space.nq):
        raise ValueError("values must be given at the quadrature points")
    for b in space.batches():
        w = b.jw * values[..., b.elems, :]
        if space.sumfact and b.kind == "quad":
            local = iproduct_sumfact_batched(b.exp, w)
        else:
            local = np.zeros(lead + (b.ng, b.exp.nmodes))
            blas.dgemv_batched(1.0, b.exp.phi, w, 0.0, local)
        scatter_add(b, local, rhs)
    return rhs


def grad_load_vector(space, fx, fy):
    """Assembled (fx, dphi_i/dx) + (fy, dphi_i/dy)."""
    fx = np.asarray(fx, dtype=np.float64)
    fy = np.asarray(fy, dtype=np.float64)
    lead = fx.shape[:-2]
    rhs = np.zeros(lead + (space.ndof,))
    if fx.shape != fy.shape or fx.shape[-2:] != (space.nelem, space.nq):
        raise ValueError("fields must be given at the quadrature points")
    for b in space.batches():
        g = b.jw * fx[..., b.elems, :]
        h = b.jw * fy[..., b.elems, :]
        t1 = b.dxi[:, 0, 0] * g + b.dxi[:, 0, 1] * h
        t2 = b.dxi[:, 1, 0] * g + b.dxi[:, 1, 1] * h
        if space.sumfact and b.kind == "quad":
            local = iproduct_sumfact_batched(b.exp, t1, deriv=1)
            local += iproduct_sumfact_batched(b.exp, t2, deriv=2)
        else:
            local = np.zeros(lead + (b.ng, b.exp.nmodes))
            blas.dgemv_batched(1.0, b.exp.dphi1, t1, 0.0, local)
            blas.dgemv_batched(1.0, b.exp.dphi2, t2, 1.0, local)
        scatter_add(b, local, rhs)
    return rhs


def gradient(space, u_hat):
    """Physical (du/dx, du/dy) at quadrature points from modal coeffs."""
    u_hat = _coefficients(space, u_hat, "gradient")
    lead = u_hat.shape[:-1]
    dudx = np.empty(lead + (space.nelem, space.nq))
    dudy = np.empty(lead + (space.nelem, space.nq))
    for b in space.batches():
        local = b.gather(u_hat)
        if space.sumfact and b.kind == "quad":
            d1, d2 = gradient_sumfact_batched(b.exp, local)
        else:
            d1 = np.empty(lead + (b.ng, space.nq))
            d2 = np.empty(lead + (b.ng, space.nq))
            blas.dgemv_batched(1.0, b.exp.dphi1, local, 0.0, d1, trans=True)
            blas.dgemv_batched(1.0, b.exp.dphi2, local, 0.0, d2, trans=True)
        dudx[..., b.elems, :] = d1 * b.dxi[:, 0, 0] + d2 * b.dxi[:, 1, 0]
        dudy[..., b.elems, :] = d1 * b.dxi[:, 0, 1] + d2 * b.dxi[:, 1, 1]
    return dudx, dudy


# -- matrix_free ---------------------------------------------------------------


def _charge_metric(n, flops_per_point):
    charge(flops_per_point * n, 16.0 * flops_per_point * n, "mfree-metric")


def diagonal_operator_batched(b, kind, lam=0.0):
    """Per-element operator diagonals of a quad batch, (ng, nmodes)."""
    exp = b.exp
    tl = exp.tensor_layout()
    shape = (b.ng, tl.n1, tl.n1)
    b2 = tl.b1 * tl.b1
    d2 = tl.d1 * tl.d1
    bd = tl.b1 * tl.d1
    g, jw = b.dxi, b.jw
    if kind == "mass":
        out = _contract_t_batched(exp, jw.reshape(shape), b2, b2)
        return from_tensor_batched(tl, out)
    w_aa = jw * (g[:, 0, 0] ** 2 + g[:, 0, 1] ** 2)
    w_ab = 2.0 * jw * (g[:, 0, 0] * g[:, 1, 0] + g[:, 0, 1] * g[:, 1, 1])
    w_bb = jw * (g[:, 1, 0] ** 2 + g[:, 1, 1] ** 2)
    # Metric products: 3 weighted quadratic forms, ~12 flops per point.
    _charge_metric(float(jw.size), 12.0)
    out = _contract_t_batched(exp, w_aa.reshape(shape), b2, d2)
    out += _contract_t_batched(exp, w_ab.reshape(shape), bd, bd)
    out += _contract_t_batched(exp, w_bb.reshape(shape), d2, b2)
    if kind == "helmholtz" and lam != 0.0:
        out += lam * _contract_t_batched(exp, jw.reshape(shape), b2, b2)
    return from_tensor_batched(tl, out)


def operator_diagonal(space, kind, lam=0.0):
    """Assembled operator diagonal, old body.  A triangle batch reads
    the live tabulated stack's diagonal: that branch is not under test."""
    diag = np.zeros(space.ndof)
    for bi, b in enumerate(space.batches()):
        if b.kind == "quad":
            d = diagonal_operator_batched(b, kind, lam)
        else:
            d = np.diagonal(space._dense_batch_mats(bi, kind, lam), axis1=-2, axis2=-1)
        scatter_add(b, b.signs * d, diag)
    return diag
