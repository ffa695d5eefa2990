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

so every mode is stored as a pair of 1-D factors, and evaluation on the
tensor quadrature grid is a pair of outer products.  The triangle's
per-mode powers of (1-b)/2 clear the Duffy denominators, keeping each
mode a polynomial of total degree <= P on the reference triangle; the
three expansions' edge traces are the *same* 1-D modified basis, which
is what makes C0 assembly across tri/quad interfaces work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..linalg import blas
from ..linalg.counters import charge
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
    collapsed: bool = False  # True when (a, b) are Duffy coordinates

    def __init__(self, order: int, nq: int | None = None):
        if order < 2:
            raise ValueError(
                "spectral/hp expansions need order >= 2 "
                "(order 1 has no edge or interior modes)"
            )
        self.order = order
        self.nq1d = nq if nq is not None else order + 2
        self.rule: TensorRule2D = self._make_rule(self.nq1d)
        self.modes: list[Mode] = self._build_modes()
        self._index_modes()
        self._tabulate()

    # -- subclass hooks ------------------------------------------------------

    def _make_rule(self, nq: int) -> TensorRule2D:
        raise NotImplementedError

    def _build_modes(self) -> list[Mode]:
        raise NotImplementedError

    def collapse(self, xi1: Array, xi2: Array) -> tuple[Array, Array]:
        """(xi1, xi2) -> separable coordinates (a, b)."""
        raise NotImplementedError

    def _ref_deriv(
        self, fa: Array, dfa: Array, gb: Array, dgb: Array, A: Array, B: Array
    ) -> tuple[Array, Array]:
        """Chain rule (a, b)-factors -> (d/dxi1, d/dxi2) at points (A, B)."""
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

    # -- tabulation on the quadrature grid ------------------------------------

    def _tabulate(self) -> None:
        A, B = self.rule.points
        nm, nq = self.nmodes, self.rule.nq
        self.phi = np.empty((nm, nq))
        self.dphi1 = np.empty((nm, nq))
        self.dphi2 = np.empty((nm, nq))
        for m, mode in enumerate(self.modes):
            fa, dfa = mode.f(A), mode.df(A)
            gb, dgb = mode.g(B), mode.dg(B)
            self.phi[m] = fa * gb
            self.dphi1[m], self.dphi2[m] = self._ref_deriv(fa, dfa, gb, dgb, A, B)
        self.weights = self.rule.weights
        self._mass: Array | None = None

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

    def edge_modes(self, edge: int) -> list[int]:
        """Edge-interior mode ids of local edge ``edge``, ascending k."""
        if not 0 <= edge < self.nedges:
            raise ValueError(f"edge {edge} out of range")
        return self.edge_mode_table[edge].tolist()

    def mass_matrix(self) -> Array:
        """Reference-element mass matrix (exact by quadrature)."""
        if self._mass is None:
            wphi = self.phi * self.weights
            mass = np.empty((self.nmodes, self.nmodes))
            blas.dgemm(1.0, wphi, self.phi, 0.0, mass, transb=True)
            self._mass = mass
        return self._mass

    def reference_stiffness(self) -> Array:
        """Reference-element Laplacian, int grad(phi_i) . grad(phi_j).

        With boundary-first mode ordering this is the matrix whose
        structure the paper plots in Figure 10.
        """
        w = self.weights
        stiff = np.empty((self.nmodes, self.nmodes))
        blas.dgemm(1.0, self.dphi1 * w, self.dphi1, 0.0, stiff, transb=True)
        blas.dgemm(1.0, self.dphi2 * w, self.dphi2, 1.0, stiff, transb=True)
        return stiff

    def backward(self, coeffs: Array) -> Array:
        """Modal coefficients -> values at the quadrature points."""
        coeffs = np.asarray(coeffs, dtype=np.float64)
        vals = np.empty(self.rule.nq)
        return blas.dgemv(1.0, self.phi, coeffs, 0.0, vals, trans=True)

    def forward(self, fvals: Array) -> Array:
        """L2 projection: values at quadrature points -> modal coefficients."""
        fvals = np.asarray(fvals, dtype=np.float64)
        rhs = np.empty(self.nmodes)
        blas.dgemv(1.0, self.phi, self.weights * np.ravel(fvals), 0.0, rhs)
        n = self.nmodes
        charge(2.0 * n**3 / 3.0, 8.0 * n * n, "mass-solve")
        return np.linalg.solve(self.mass_matrix(), rhs)

    def integrate(self, fvals: Array) -> float:
        return self.rule.integrate(fvals)

    def eval_basis(self, xi1: Array, xi2: Array) -> Array:
        """(nmodes, npts) table of mode values at arbitrary reference points."""
        xi1 = np.atleast_1d(np.asarray(xi1, dtype=np.float64))
        xi2 = np.atleast_1d(np.asarray(xi2, dtype=np.float64))
        A, B = self.collapse(xi1, xi2)
        out = np.empty((self.nmodes, xi1.size))
        for m, mode in enumerate(self.modes):
            out[m] = mode.f(A) * mode.g(B)
        return out

    def eval_basis_full(
        self, xi1: Array, xi2: Array
    ) -> tuple[Array, Array, Array]:
        """(phi, dphi/dxi1, dphi/dxi2) tables at arbitrary reference points.

        Points must avoid the triangle's collapsed vertex (xi2 = 1),
        where the chain-rule factors blow up.
        """
        xi1 = np.atleast_1d(np.asarray(xi1, dtype=np.float64))
        xi2 = np.atleast_1d(np.asarray(xi2, dtype=np.float64))
        A, B = self.collapse(xi1, xi2)
        if self.collapsed and np.any(1.0 - B < 1e-12):
            raise ValueError("derivative evaluation at the collapsed vertex")
        n = xi1.size
        phi = np.empty((self.nmodes, n))
        d1 = np.empty((self.nmodes, n))
        d2 = np.empty((self.nmodes, n))
        for m, mode in enumerate(self.modes):
            fa, dfa = mode.f(A), mode.df(A)
            gb, dgb = mode.g(B), mode.dg(B)
            phi[m] = fa * gb
            d1[m], d2[m] = self._ref_deriv(fa, dfa, gb, dgb, A, B)
        return phi, d1, d2

    # repro: waive[accounting] point-probe diagnostic, not a solver hot path
    def eval_at(self, coeffs: Array, xi1: Array, xi2: Array) -> Array:
        """Evaluate the expansion with given coefficients at points."""
        return self.eval_basis(xi1, xi2).T @ np.asarray(coeffs, dtype=np.float64)

    def mode_labels(self) -> list[str]:
        return [m.label for m in self.modes]


def _dgemm_charge(m: int, n: int, k: int) -> tuple[float, float]:
    """What :func:`repro.linalg.blas.dgemm_batched` charges per item for
    an (m x k)(k x n) product."""
    return 2.0 * m * n * k, 8.0 * (m * k + k * n + 2 * m * n)


class _TensorLayout:
    """Sum-factorisation data of a quad expansion (see
    :meth:`QuadExpansion.tensor_layout`)."""

    def __init__(self, exp: "QuadExpansion"):
        P, n1 = exp.order, exp.nq1d
        pts = exp.rule.rule_a.points
        from .basis import modified_a, modified_a_deriv

        self.b1 = np.array([modified_a(p, P, pts) for p in range(P + 1)])
        self.d1 = np.array([modified_a_deriv(p, P, pts) for p in range(P + 1)])
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
        for table in (self.b1, self.d1, self.pq, self.ct_perm):
            table.setflags(write=False)
        # (flops, bytes) one element is charged for each dgemm of a
        # forward contraction (C^T @ right, then left^T @ that) and of
        # an adjoint one (left @ V, then right @ that^T).
        n, q = self.np1, n1
        self.forward_charges = (_dgemm_charge(n, q, n), _dgemm_charge(q, q, n))
        self.adjoint_charges = (_dgemm_charge(n, q, q), _dgemm_charge(n, n, q))


class QuadExpansionMixin:
    """Sum-factorisation data of tensor-product (quad) expansions.

    NekTar evaluates transforms and derivatives by two small dense
    contractions per element — O(P^3) instead of the O(P^4) of a
    tabulated (nmodes x nq) dgemv.  The expansion owns what those
    contractions read (:meth:`tensor_layout`: the 1-D tables, the mode
    <-> tensor index maps, the per-element charge of each dgemm); the
    contractions themselves run over whole element batches in
    :mod:`repro.assembly.matrix_free` and
    :class:`~repro.assembly.space.FunctionSpace`.
    """

    def tensor_layout(self) -> _TensorLayout:
        if not hasattr(self, "_tensor_layout"):
            self._tensor_layout = _TensorLayout(self)
        return self._tensor_layout


class QuadExpansion(QuadExpansionMixin, Expansion2D):
    """Tensor-product modified expansion on the reference quadrilateral.

    Local vertices: V0(-1,-1), V1(1,-1), V2(1,1), V3(-1,1).
    Local edges (with intrinsic direction): e0 = V0->V1 (+xi1 at
    xi2 = -1), e1 = V1->V2 (+xi2 at xi1 = 1), e2 = V3->V2 (+xi1 at
    xi2 = 1), e3 = V0->V3 (+xi2 at xi1 = -1).
    """

    nverts = 4
    nedges = 4

    def _make_rule(self, nq: int) -> TensorRule2D:
        return quad_rule(nq)

    def collapse(self, xi1: Array, xi2: Array) -> tuple[Array, Array]:
        return np.asarray(xi1, dtype=np.float64), np.asarray(xi2, dtype=np.float64)

    def _ref_deriv(self, fa, dfa, gb, dgb, A, B):
        return dfa * gb, fa * dgb

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
    collapsed = True

    def _make_rule(self, nq: int) -> TensorRule2D:
        return tri_rule(nq)

    def collapse(self, xi1: Array, xi2: Array) -> tuple[Array, Array]:
        xi1 = np.asarray(xi1, dtype=np.float64)
        xi2 = np.asarray(xi2, dtype=np.float64)
        denom = 1.0 - xi2
        a = np.where(denom > 1e-14, 2.0 * (1.0 + xi1) / np.maximum(denom, 1e-300) - 1.0, -1.0)
        return a, xi2

    def _ref_deriv(self, fa, dfa, gb, dgb, A, B):
        # d a/d xi1 = 2/(1-b);  d a/d xi2 = (1+a)/(1-b);  b = xi2.
        inv = 2.0 / (1.0 - B)
        d1 = dfa * gb * inv
        d2 = dfa * gb * 0.5 * (1.0 + A) * inv + fa * dgb
        return d1, d2

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
