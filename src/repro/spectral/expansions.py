"""Modal spectral/hp expansions on the reference triangle and quadrilateral.

Implements the modified hierarchical expansions of Sherwin & Karniadakis
(1995) used by NekTar.  Modes are ordered exactly as the paper's
Figure 9: vertices first, then edge modes (per edge, ascending), then
interior modes with the q index running fastest.  At polynomial order 4
that gives 15 modes on the triangle and 25 on the quadrilateral.

Both expansions are *separable* in their natural coordinates — the
quadrilateral in (xi1, xi2), the triangle in the collapsed Duffy
coordinates (a, b) with

    a = 2 (1 + xi1)/(1 - xi2) - 1,      b = xi2,

so every mode is stored as a pair of 1-D factors.  On the quadrilateral
the factors are the P+1 modified-basis functions in each direction, so
every table on a tensor grid (the quadrature grid, or one local edge
held at xi = +-1) is an outer product of two 1-D tables indexed by the
modes' (p, q) pairs.  The triangle's per-mode powers of (1-b)/2 clear
the Duffy denominators, keeping each mode a polynomial of total degree
<= P on the reference triangle; its b-factor depends on p as well as q,
so it is not a tensor of two tables and is tabulated one mode at a
time.  The two expansions' edge traces are the *same* 1-D modified
basis, which is what makes C0 assembly across tri/quad interfaces work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import basis as b1
from .jacobi import jacobi, jacobi_derivative
from .quadrature import TensorRule2D, quad_rule, tri_rule

__all__ = ["Mode", "Expansion2D", "QuadExpansion", "TriExpansion"]

Array = np.ndarray
Fn = Callable[[Array], Array]


@dataclass(frozen=True)
class Mode:
    """One separable mode: value/derivative factors plus its identity.

    kind is 'vertex', 'edge' or 'interior'; entity is the local vertex or
    edge number (-1 for interior); k is the index within the entity
    (edge-interior mode number, or the (p, q) pair for interior modes).
    """

    f: Fn
    df: Fn
    g: Fn
    dg: Fn
    kind: str
    entity: int
    k: object
    label: str


def _const_one(x: Array) -> Array:
    return np.ones_like(np.asarray(x, dtype=np.float64))


def _const_zero(x: Array) -> Array:
    return np.zeros_like(np.asarray(x, dtype=np.float64))


def _pow_h0(n: int) -> tuple[Fn, Fn]:
    """((1-x)/2)^n and its derivative."""
    if n == 0:
        return _const_one, _const_zero

    def val(x: Array) -> Array:
        return b1.h0(x) ** n

    def dval(x: Array) -> Array:
        return -0.5 * n * b1.h0(x) ** (n - 1)

    return val, dval


class Expansion2D:
    """Common machinery for the two reference-element expansions.

    Concrete subclasses supply the mode list (via ``_build_modes``), the
    quadrature rule, and the collapse map between reference coordinates
    (xi1, xi2) and the separable coordinates (a, b).
    """

    nverts: int = 0
    nedges: int = 0

    def __init__(self, order: int):
        if order < 2:
            raise ValueError(
                "spectral/hp expansions need order >= 2 "
                "(order 1 has no edge or interior modes)"
            )
        self.order = order
        self.nq1d = order + 2
        self.rule: TensorRule2D = self._make_rule(self.nq1d)
        self.modes: list[Mode] = self._build_modes()
        self._index_modes()
        self.phi, self.dphi1, self.dphi2 = self._tabulate()
        self.weights = self.rule.weights

    # -- subclass hooks ------------------------------------------------------

    def _make_rule(self, nq: int) -> TensorRule2D:
        raise NotImplementedError

    def _build_modes(self) -> list[Mode]:
        raise NotImplementedError

    def _tabulate(self) -> tuple[Array, Array, Array]:
        """(phi, dphi/dxi1, dphi/dxi2), (nmodes, nq) each, on the
        quadrature grid."""
        raise NotImplementedError

    # -- mode-id tables ------------------------------------------------------

    def _index_modes(self) -> None:
        """Mode ids by kind, computed once from the mode list.

        ``edge_mode_table[e, k]`` is the id of edge ``e``'s mode ``k``
        (a read-only ``(nedges, P-1)`` array: an expansion is shared by
        every element of its kind, and a space by the campaign's worker
        threads).
        """
        kinds = [m.kind for m in self.modes]
        self._vertex_modes = [i for i, k in enumerate(kinds) if k == "vertex"]
        self._interior_modes = [i for i, k in enumerate(kinds) if k == "interior"]
        self._boundary_modes = [i for i, k in enumerate(kinds) if k != "interior"]
        table = np.empty((self.nedges, self.order - 1), dtype=np.int64)
        for i, m in enumerate(self.modes):
            if m.kind == "edge":
                table[m.entity, m.k] = i
        table.setflags(write=False)
        self.edge_mode_table = table

    # -- public API ------------------------------------------------------------

    @property
    def nmodes(self) -> int:
        return len(self.modes)

    # The getters hand out copies of the tables built at construction.

    @property
    def vertex_modes(self) -> list[int]:
        return list(self._vertex_modes)

    @property
    def interior_modes(self) -> list[int]:
        return list(self._interior_modes)

    @property
    def boundary_modes(self) -> list[int]:
        return list(self._boundary_modes)

    def mode_labels(self) -> list[str]:
        return [m.label for m in self.modes]


def _factors(order: int, x: Array) -> tuple[Array, Array]:
    """The order + 1 modified-basis functions and their derivatives at
    the abscissae ``x``, (order + 1, x.size) each."""
    return (
        np.array([b1.modified_a(p, order, x) for p in range(order + 1)]),
        np.array([b1.modified_a_deriv(p, order, x) for p in range(order + 1)]),
    )


def _tensor_tables(
    pq: Array, f: Array, df: Array, g: Array, dg: Array
) -> tuple[Array, Array, Array]:
    """(phi, dphi/dxi1, dphi/dxi2) of the modes ``pq`` (one (p, q) row
    each) on the tensor grid of the xi1 factors ``f, df`` and the xi2
    factors ``g, dg``, xi1 fastest: per mode and point the product
    f_p(xi1) g_q(xi2) that evaluating the mode's own factors there
    forms, so the tables are those values bit for bit."""
    p, q = pq[:, 0], pq[:, 1]
    return tuple(
        (b[q][:, :, None] * a[p][:, None, :]).reshape(len(pq), -1)
        for a, b in ((f, g), (df, g), (f, dg))
    )


def _dgemm_charge(m: int, n: int, k: int) -> tuple[float, float]:
    """What :func:`repro.linalg.blas.dgemm_batched` charges per item for
    an (m x k)(k x n) product."""
    return 2.0 * m * n * k, 8.0 * (m * k + k * n + 2 * m * n)


class _TensorLayout:
    """Sum-factorisation data of a quad expansion (see
    :meth:`QuadExpansion.tensor_layout`)."""

    def __init__(self, exp: "QuadExpansion"):
        P, n1 = exp.order, exp.nq1d
        self.b1, self.d1 = _factors(P, exp.rule.rule_a.points)
        self.pq = np.empty((exp.nmodes, 2), dtype=np.int64)
        vert_pq = {0: (0, 0), 1: (P, 0), 2: (P, P), 3: (0, P)}
        for m, mode in enumerate(exp.modes):
            if mode.kind == "vertex":
                self.pq[m] = vert_pq[mode.entity]
            elif mode.kind == "edge":
                k = mode.k + 1
                self.pq[m] = {
                    0: (k, 0),
                    1: (P, k),
                    2: (k, P),
                    3: (0, k),
                }[mode.entity]
            else:
                self.pq[m] = mode.k
        self.n1 = n1
        self.np1 = P + 1
        # Operands of the sum-factorised transforms and operator apply
        # (repro.assembly.space / matrix_free), fixed with the expansion
        # and so validated here, not per call.  ``ct_perm`` lists the modes in
        # C^T tensor order — ``coeffs[..., ct_perm]`` reshaped to
        # (P+1, P+1) is the transposed tensor, already contiguous — which
        # needs the modes to fill the tensor exactly.
        flat = self.pq[:, 1] * self.np1 + self.pq[:, 0]
        if not np.array_equal(np.sort(flat), np.arange(self.np1**2)):
            raise ValueError("modes do not fill the (P+1) x (P+1) tensor")
        self.ct_perm = np.argsort(flat)
        self.b1t, self.d1t = self.b1.T, self.d1.T
        # The operator apply's stacked tables, one entry per leg (the
        # xi2 derivative, the xi1 derivative, the mass term): a forward
        # contraction runs fast through ``bdb`` and slow through
        # ``dbb_t``, an adjoint one slow through ``bdb`` and fast
        # through ``dbb_t``.  Contiguous, transposes included, so each
        # leg is one dgemm of a stacked matmul.
        self.bdb = np.stack([self.b1, self.d1, self.b1])
        self.dbb_t = np.stack([self.d1t, self.b1t, self.b1t])
        for table in (self.b1, self.d1, self.pq, self.ct_perm, self.bdb, self.dbb_t):
            table.setflags(write=False)
        # (flops, bytes) one element is charged for each dgemm of a
        # forward contraction (C^T @ right, then left^T @ that) and of
        # an adjoint one (left @ V, then right @ that^T).
        n, q = self.np1, n1
        self.forward_charges = (_dgemm_charge(n, q, n), _dgemm_charge(q, q, n))
        self.adjoint_charges = (_dgemm_charge(n, q, q), _dgemm_charge(n, n, q))


class QuadExpansion(Expansion2D):
    """Tensor-product modified expansion on the reference quadrilateral.

    Local vertices: V0(-1,-1), V1(1,-1), V2(1,1), V3(-1,1).
    Local edges (with intrinsic direction): e0 = V0->V1 (+xi1 at
    xi2 = -1), e1 = V1->V2 (+xi2 at xi1 = 1), e2 = V3->V2 (+xi1 at
    xi2 = 1), e3 = V0->V3 (+xi2 at xi1 = -1).

    NekTar evaluates transforms and derivatives by two small dense
    contractions per element — O(P^3) instead of the O(P^4) of a
    tabulated (nmodes x nq) dgemv.  The expansion owns what those
    contractions read (:meth:`tensor_layout`: the 1-D tables, the mode
    <-> tensor index maps, the per-element charge of each dgemm); the
    contractions themselves run over whole element batches in
    :mod:`repro.assembly.matrix_free` and
    :class:`~repro.assembly.space.FunctionSpace`.  Its tables on the
    quadrature grid are outer products of those same 1-D tables.
    """

    nverts = 4
    nedges = 4

    def _make_rule(self, nq: int) -> TensorRule2D:
        return quad_rule(nq)

    def _tabulate(self) -> tuple[Array, Array, Array]:
        tl = self._tensor_layout = _TensorLayout(self)
        return _tensor_tables(tl.pq, tl.b1, tl.d1, tl.b1, tl.d1)

    def tensor_layout(self) -> _TensorLayout:
        return self._tensor_layout

    def edge_tables(self, s: Array) -> tuple[Array, Array, Array]:
        """(phi, dphi/dxi1, dphi/dxi2) at the abscissae ``s`` along each
        local edge in its intrinsic direction, (nedges, nmodes, s.size)
        each: outer products of the 1-D factors at ``s`` and at the
        edge's fixed coordinate, -1 or +1."""
        pq = self._tensor_layout.pq
        run = _factors(self.order, s)
        lo, hi = (
            tuple(t[:, i : i + 1] for t in _factors(self.order, np.array([-1.0, 1.0])))
            for i in (0, 1)
        )
        # (xi1 factors, xi2 factors) of e0 .. e3.
        sides = ((run, lo), (hi, run), (run, hi), (lo, run))
        tables = [_tensor_tables(pq, *f, *g) for f, g in sides]
        return tuple(np.stack([t[i] for t in tables]) for i in range(3))

    def _build_modes(self) -> list[Mode]:
        P = self.order

        def bub(k: int) -> tuple[Fn, Fn]:
            return (lambda x, k=k: b1.bubble(k, x)), (
                lambda x, k=k: b1.bubble_deriv(k, x)
            )

        H0, H1 = (b1.h0, b1.dh0), (b1.h1, b1.dh1)
        modes: list[Mode] = []
        # Vertices: (p, q) in {0, P}^2.
        for v, (fa, gb) in enumerate([(H0, H0), (H1, H0), (H1, H1), (H0, H1)]):
            modes.append(
                Mode(fa[0], fa[1], gb[0], gb[1], "vertex", v, 0, f"v{v}")
            )
        # Edge modes, k = 0 .. P-2 along each edge's intrinsic direction.
        for k in range(P - 1):
            f, df = bub(k)
            modes.append(Mode(f, df, b1.h0, b1.dh0, "edge", 0, k, f"e0_{k}"))
        for k in range(P - 1):
            f, df = bub(k)
            modes.append(Mode(b1.h1, b1.dh1, f, df, "edge", 1, k, f"e1_{k}"))
        for k in range(P - 1):
            f, df = bub(k)
            modes.append(Mode(f, df, b1.h1, b1.dh1, "edge", 2, k, f"e2_{k}"))
        for k in range(P - 1):
            f, df = bub(k)
            modes.append(Mode(b1.h0, b1.dh0, f, df, "edge", 3, k, f"e3_{k}"))
        # Interior modes, q fastest (Figure 9).
        for p in range(1, P):
            fp, dfp = bub(p - 1)
            for q in range(1, P):
                gq, dgq = bub(q - 1)
                modes.append(
                    Mode(fp, dfp, gq, dgq, "interior", -1, (p, q), f"i{p}_{q}")
                )
        return modes


class TriExpansion(Expansion2D):
    """Collapsed-coordinate modified expansion on the reference triangle
    {(xi1, xi2) : xi1, xi2 >= -1, xi1 + xi2 <= 0}.

    Local vertices: V0(-1,-1), V1(1,-1), V2(-1,1) (V2 is the collapsed
    vertex).  Local edges: e0 = V0->V1 (+a at b = -1), e1 = V1->V2 (the
    hypotenuse, +b at a = 1), e2 = V0->V2 (+b at a = -1).

    Mode count: 3 + 3(P-1) + (P-1)(P-2)/2 = (P+1)(P+2)/2 = dim P_P.
    """

    nverts = 3
    nedges = 3

    def _make_rule(self, nq: int) -> TensorRule2D:
        return tri_rule(nq)

    def _tabulate(self) -> tuple[Array, Array, Array]:
        return self.collapsed_tables(*self.rule.points)

    def collapse(self, xi1: Array, xi2: Array) -> tuple[Array, Array]:
        """(xi1, xi2) -> collapsed coordinates (a, b)."""
        xi1 = np.asarray(xi1, dtype=np.float64)
        xi2 = np.asarray(xi2, dtype=np.float64)
        denom = 1.0 - xi2
        a = np.where(denom > 1e-14, 2.0 * (1.0 + xi1) / np.maximum(denom, 1e-300) - 1.0, -1.0)
        return a, xi2

    def collapsed_tables(self, A: Array, B: Array) -> tuple[Array, Array, Array]:
        """(phi, dphi/dxi1, dphi/dxi2) at collapsed points (A, B), one
        mode at a time.  The points must avoid the collapsed vertex
        (b = 1), where the chain-rule factors blow up: Gauss rules never
        reach it."""
        phi = np.empty((self.nmodes, A.size))
        d1 = np.empty((self.nmodes, A.size))
        d2 = np.empty((self.nmodes, A.size))
        # d a/d xi1 = 2/(1-b);  d a/d xi2 = (1+a)/(1-b);  b = xi2.
        inv = 2.0 / (1.0 - B)
        for m, mode in enumerate(self.modes):
            fa, dfa = mode.f(A), mode.df(A)
            gb, dgb = mode.g(B), mode.dg(B)
            phi[m] = fa * gb
            d1[m] = dfa * gb * inv
            d2[m] = dfa * gb * 0.5 * (1.0 + A) * inv + fa * dgb
        return phi, d1, d2

    def _build_modes(self) -> list[Mode]:
        P = self.order

        def bub(k: int) -> tuple[Fn, Fn]:
            return (lambda x, k=k: b1.bubble(k, x)), (
                lambda x, k=k: b1.bubble_deriv(k, x)
            )

        modes: list[Mode] = []
        # Vertices.  V2 is independent of a (collapsed top vertex).
        modes.append(Mode(b1.h0, b1.dh0, b1.h0, b1.dh0, "vertex", 0, 0, "v0"))
        modes.append(Mode(b1.h1, b1.dh1, b1.h0, b1.dh0, "vertex", 1, 0, "v1"))
        modes.append(
            Mode(_const_one, _const_zero, b1.h1, b1.dh1, "vertex", 2, 0, "v2")
        )
        # Edge 0 (bottom): bubble in a, cleared by ((1-b)/2)^(k+2).
        for k in range(P - 1):
            f, df = bub(k)
            g, dg = _pow_h0(k + 2)
            modes.append(Mode(f, df, g, dg, "edge", 0, k, f"e0_{k}"))
        # Edge 1 (hypotenuse): h1(a) x bubble in b.
        for k in range(P - 1):
            g, dg = bub(k)
            modes.append(Mode(b1.h1, b1.dh1, g, dg, "edge", 1, k, f"e1_{k}"))
        # Edge 2 (left): h0(a) x bubble in b.
        for k in range(P - 1):
            g, dg = bub(k)
            modes.append(Mode(b1.h0, b1.dh0, g, dg, "edge", 2, k, f"e2_{k}"))
        # Interior: p = 1..P-2, q = 1..P-1-p, q fastest.
        for p in range(1, P - 1):
            fp, dfp = bub(p - 1)
            h0p, dh0p = _pow_h0(p + 1)
            for q in range(1, P - p):
                gq, dgq = self._interior_b_factor(p, q, h0p, dh0p)
                modes.append(
                    Mode(fp, dfp, gq, dgq, "interior", -1, (p, q), f"i{p}_{q}")
                )
        return modes

    @staticmethod
    def _interior_b_factor(
        p: int, q: int, h0p: Fn, dh0p: Fn
    ) -> tuple[Fn, Fn]:
        """b-factor of interior mode (p, q):
        ((1-b)/2)^(p+1) (1+b)/2 P_{q-1}^{2p+1, 1}(b)."""
        a, bb = 2.0 * p + 1.0, 1.0

        def val(x: Array) -> Array:
            return h0p(x) * b1.h1(x) * jacobi(q - 1, a, bb, x)

        def dval(x: Array) -> Array:
            j = jacobi(q - 1, a, bb, x)
            dj = jacobi_derivative(q - 1, a, bb, x)
            return (
                dh0p(x) * b1.h1(x) * j
                + h0p(x) * 0.5 * j
                + h0p(x) * b1.h1(x) * dj
            )

        return val, dval
