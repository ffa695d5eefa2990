"""FunctionSpace: the discrete field layer of the spectral/hp method.

Bundles a mesh + uniform polynomial order with the dof map, one element
batch per dof-map kind stack (its elements' stacked geometric factors)
and physical quadrature coordinates, and provides the
field operations every application stage is built from:

* ``backward``  — modal coefficients -> quadrature values (the paper's
  stage 1, "transformation from modal to quadrature space"),
* ``forward``   — global L2 projection (a mass solve),
* ``gradient``  — physical derivatives at quadrature points,
* ``load_vector`` / ``integrate`` — weak-form right-hand sides.

Values live in an (nelem, nq) array; modal coefficients in a global
C0 vector of length ``ndof``.
"""

from __future__ import annotations

import math

import numpy as np

from ..linalg import blas
from ..linalg.counters import charge_tape
from ..mesh.curved import element_stack
from ..mesh.mapping import GeomFactors
from ..mesh.mesh2d import Mesh2D
from . import matrix_free
from .batching import ElementBatch
from .boundary import DirichletPlan
from .dofmap import DofMap
from .operators import (
    elemental_helmholtz_batched,
    elemental_laplacian_batched,
    elemental_mass_batched,
)

__all__ = ["CHUNK", "ElementalOperator", "FunctionSpace"]


def _real_array(a, who: str, name: str) -> np.ndarray:
    """``a`` as float64.  A complex array is refused, not cast: the cast
    keeps the real part and drops the rest without an error."""
    if np.iscomplexobj(a):
        raise ValueError(
            f"{who}: {name} is complex; the transforms are real — pass the real "
            f"and imaginary parts as two fields, np.stack([{name}.real, {name}.imag])"
        )
    return np.asarray(a, dtype=np.float64)


#: Elements per tabulated operator chunk: the (chunk, nmodes, nq)
#: temporaries of a build stay cache-resident, and a reader that consumes
#: chunk by chunk never holds a whole kind stack.
CHUNK = 16


class ElementalOperator:
    """The per-element matrices of one operator of a space, by recipe:
    what :meth:`FunctionSpace.elemental_matrices` returns, and the one
    form :class:`~repro.assembly.condensation.CondensedOperator` reads.

    Nothing is stored: :meth:`chunks` tabulates (and charges) each
    :data:`CHUNK` of a kind stack when it is read, so a reader that
    consumes chunk by chunk — static condensation's set-up — never holds
    a whole stack (DESIGN.md section 9, "What a condensed operator
    keeps").  Reading it twice builds and charges twice.
    """

    def __init__(self, space: "FunctionSpace", kind: str, lam: float = 0.0):
        matrix_free.check_kind(kind)
        self.space = space
        self.kind = kind
        self.lam = lam

    @property
    def dofmap(self) -> DofMap:
        return self.space.dofmap

    def chunks(self, i: int):
        """``(rows, matrices)`` of kind stack ``i``, :data:`CHUNK` rows at
        a time, each built fresh."""
        return self.space._batch_operator_chunks(self.space.batches()[i], self.kind, self.lam)


class FunctionSpace:
    """H1-conforming spectral/hp space of uniform order on a 2-D mesh.

    ``sumfact`` evaluates transforms, gradients and load vectors on
    quadrilateral elements by sum-factorisation (two O(P^3) contractions
    instead of one O(P^4) tabulated dgemv) — NekTar's tensor-product
    evaluation; results are identical to machine precision.  The default
    (``None``) resolves to True on all-quad meshes and False otherwise;
    an explicit ``sumfact=True`` on a mixed mesh fast-paths the quad
    batches and falls back to the tabulated tables on the rest.

    Same-shape elements are grouped into contiguous operand stacks
    (:meth:`batches`), so transforms, load vectors, operator setup and
    static condensation run as stacked BLAS-3 calls that charge the
    OpCounter exactly what one call per element would.
    """

    def __init__(
        self,
        mesh: Mesh2D,
        order: int,
        sumfact: bool | None = None,
        periodic: list[tuple[str, str]] | tuple = (),
    ):
        self.mesh = mesh
        self.order = order
        if sumfact is None:
            sumfact = list(mesh.kind_groups()) == ["quad"]
        self.sumfact = bool(sumfact)
        self._flat_dofs = None
        self._op_mats: dict[tuple, np.ndarray] = {}
        self._diagonals: dict[tuple[str, float], np.ndarray] = {}
        self._dirichlet_plans: dict[tuple[str, ...], DirichletPlan] = {}
        self.dofmap = DofMap(mesh, order, periodic=periodic)
        # One batch per dof-map kind stack, its metric one stacked pass.
        self._batches = [
            ElementBatch(st, GeomFactors.compute(st.exp, *element_stack(mesh, st.elems)))
            for st in self.dofmap.stacks
        ]
        if len(self._batches) == 1:  # one kind: its stack is in mesh order
            self.xq, self.yq = self._batches[0].geom.x, self._batches[0].geom.y
        else:
            nq = self._batches[0].jw.shape[1]
            self.xq, self.yq = np.empty((self.nelem, nq)), np.empty((self.nelem, nq))
            for b in self._batches:
                self.xq[b.elems], self.yq[b.elems] = b.geom.x, b.geom.y

    # -- sizes ---------------------------------------------------------------

    @property
    def nelem(self) -> int:
        return self.mesh.nelements

    @property
    def nq(self) -> int:
        """Quadrature points per element (uniform: both reference rules
        use (order + 2)^2 points)."""
        return self.xq.shape[1]

    @property
    def ndof(self) -> int:
        return self.dofmap.ndof

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        return self.xq, self.yq

    def batches(self) -> list[ElementBatch]:
        """Same-shape element batches, one per dof-map kind stack in its
        order (element order is preserved within each batch)."""
        return self._batches

    def dirichlet_plan(self, tags) -> DirichletPlan:
        """The Dirichlet-projection plan of the given boundary tags,
        built at first request.  A space is a snapshot of its mesh (ALE
        makes a new one after every move), so the plan is never stale."""
        tags = tuple(tags)
        if tags not in self._dirichlet_plans:
            self._dirichlet_plans[tags] = DirichletPlan(self, tags)
        return self._dirichlet_plans[tags]

    # -- transforms ------------------------------------------------------------
    #
    # Every transform accepts arbitrary leading field dimensions:
    # coefficients of shape (..., ndof) map to values of shape
    # (..., nelem, nq) and vice versa, so multi-field callers (e.g. the
    # stacked real/imag mode fields of NekTar-F) go through one batched
    # sweep instead of one Python loop per field.

    def _coefficients(self, u: np.ndarray, who: str) -> np.ndarray:
        """``u`` as a float64 ``(..., ndof)`` array, or ``ValueError``:
        the gathers index, so a longer vector would be read short (and
        a shorter one die as an ``IndexError`` inside a fancy index)."""
        u = _real_array(u, who, "u")
        if u.shape[-1:] != (self.ndof,):
            raise ValueError(
                f"{who}: u must be (..., ndof = {self.ndof}), got {u.shape}"
            )
        return u

    def _quadrature_values(self, values: np.ndarray, who: str, name: str) -> np.ndarray:
        """``values`` as a float64 ``(..., nelem, nq)`` array, or
        ``ValueError``."""
        values = _real_array(values, who, name)
        if values.shape[-2:] != (self.nelem, self.nq):
            raise ValueError(
                f"{who}: {name} must be given at the quadrature points, "
                f"(..., nelem = {self.nelem}, nq = {self.nq}), got {values.shape}"
            )
        return values

    # A space whose elements all share one shape has one batch, and that
    # batch's ``elems`` is ``arange(nelem)``: its stacks *are* the
    # (..., nelem, nq) arrays, and the transforms read and return them
    # whole instead of through an ``[..., b.elems, :]`` copy.

    def _batch_values(self, b, values: np.ndarray) -> np.ndarray:
        """The (..., ng, nq) rows of ``values`` on the elements of ``b``."""
        return values if b.ng == self.nelem else values[..., b.elems, :]

    def _by_element(self, parts: list[np.ndarray]) -> np.ndarray:
        """Per-batch (..., ng, nq) stacks -> (..., nelem, nq) in mesh
        element order."""
        if len(parts) == 1:
            return parts[0]
        out = np.empty(parts[0].shape[:-2] + (self.nelem, self.nq))
        for b, vals in zip(self.batches(), parts):
            out[..., b.elems, :] = vals
        return out

    def _assemble(self, parts: list[np.ndarray]) -> np.ndarray:
        """Per-batch (..., ng, nmodes) element-local stacks -> a fresh
        (..., ndof) global vector: signed, accumulated.

        One ``np.bincount`` per leading index over all batches' entries
        in batch order.  ``bincount`` adds its weights from left to
        right into a vector that starts at zero, which is what an
        ``np.add.at`` sweep over the batches does to a zeroed vector:
        the same sum per dof, to the bit.  Only a *fresh* vector can be
        built this way — accumulating into one that already holds
        values (the pressure boundary term) stays an ``np.add.at``.
        """
        batches = self.batches()
        if self._flat_dofs is None:
            self._flat_dofs = np.concatenate([b.dofs.ravel() for b in batches])
        lead = parts[0].shape[:-2]
        signed = [
            (b.signs * loc).reshape(lead + (b.signs.size,)) for b, loc in zip(batches, parts)
        ]
        weights = signed[0] if len(signed) == 1 else np.concatenate(signed, axis=-1)
        if not lead:
            return np.bincount(self._flat_dofs, weights=weights, minlength=self.ndof)
        out = np.empty(lead + (self.ndof,))
        for idx in np.ndindex(*lead):
            out[idx] = np.bincount(
                self._flat_dofs, weights=weights[idx], minlength=self.ndof
            )
        return out

    # On quad batches under ``sumfact`` each transform is one pass over
    # operands hoisted on the batch and its expansion's tensor layout
    # (``dofs_em`` / ``signs_em`` / ``readout`` / ``dxi_stacks``; ``b1`` /
    # ``d1`` and their transposes), through the contraction helpers of
    # :mod:`.matrix_free`.  Those run on element-middle blocks, one GEMM
    # per leg; each transform converts once between them and its public
    # (..., nelem, nq) layout.  The helpers charge nothing: each branch
    # charges the batch's tape for the call, every contraction as the
    # two counted ``dgemm`` calls it once was (DESIGN.md section 15.3).

    def backward(self, u_hat: np.ndarray) -> np.ndarray:
        """Global modal coefficients -> values at quadrature points."""
        u_hat = self._coefficients(u_hat, "backward")
        lead = u_hat.shape[:-1]
        parts = []
        for b in self.batches():
            if self.sumfact and b.kind == "quad":
                tl = b.exp.tensor_layout()
                ct = matrix_free._coefficient_tensors(b, u_hat)
                vals = matrix_free._element_last(
                    matrix_free._forward(ct, tl.b1, tl.b1t), lead
                )
                charge_tape(matrix_free.call_tape(b, math.prod(lead), "backward"))
            else:
                vals = np.empty(lead + (b.ng, self.nq))
                blas.dgemv_batched(1.0, b.exp.phi, b.gather(u_hat), 0.0, vals, trans=True)
            parts.append(vals)
        return self._by_element(parts)

    def load_vector(self, values: np.ndarray) -> np.ndarray:
        """Assembled (f, phi_i) for f at quadrature points."""
        values = self._quadrature_values(values, "load_vector", "values")
        lead = values.shape[:-2]
        parts = []
        for b in self.batches():
            w = b.jw * self._batch_values(b, values)
            if self.sumfact and b.kind == "quad":
                tl = b.exp.tensor_layout()
                w = matrix_free._element_middle(tl, w)
                out = matrix_free._adjoint(w, tl.b1, tl.b1)
                charge_tape(matrix_free.call_tape(b, math.prod(lead), "load_vector"))
                local = matrix_free._modal(b, out, lead)
            else:
                local = np.zeros(lead + (b.ng, b.exp.nmodes))
                blas.dgemv_batched(1.0, b.exp.phi, w, 0.0, local)
            parts.append(local)
        return self._assemble(parts)

    def grad_load_vector(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        """Assembled (fx, dphi_i/dx) + (fy, dphi_i/dy).

        This is the weak pressure-Poisson right-hand side of the
        splitting scheme: with the consistent Neumann condition
        dp/dn = u_hat . n / dt, the boundary terms cancel and
        (grad p, grad phi) = (u_hat, grad phi) / dt.
        """
        fx = self._quadrature_values(fx, "grad_load_vector", "fx")
        fy = self._quadrature_values(fy, "grad_load_vector", "fy")
        if fx.shape != fy.shape:
            raise ValueError(
                f"grad_load_vector: fx {fx.shape} and fy {fy.shape} must have one shape"
            )
        lead = fx.shape[:-2]
        parts = []
        for b in self.batches():
            # Adjoint of the reference-first gradient: contract the
            # metric factors into the quadrature fields, then apply the
            # shared reference-derivative tables — two dgemv charges
            # per element (or two pairs of O(P^3) contractions with
            # sumfact).
            g = b.jw * self._batch_values(b, fx)
            h = b.jw * self._batch_values(b, fy)
            g11, g12, g21, g22 = b.dxi_stacks
            t1 = g11 * g + g12 * h
            t2 = g21 * g + g22 * h
            if self.sumfact and b.kind == "quad":
                tl = b.exp.tensor_layout()
                t1 = matrix_free._element_middle(tl, t1)
                t2 = matrix_free._element_middle(tl, t2)
                out = matrix_free._adjoint(t1, tl.b1, tl.d1)
                out += matrix_free._adjoint(t2, tl.d1, tl.b1)
                charge_tape(matrix_free.call_tape(b, math.prod(lead), "grad_load_vector"))
                local = matrix_free._modal(b, out, lead)
            else:
                local = np.zeros(lead + (b.ng, b.exp.nmodes))
                blas.dgemv_batched(1.0, b.exp.dphi1, t1, 0.0, local)
                blas.dgemv_batched(1.0, b.exp.dphi2, t2, 1.0, local)
            parts.append(local)
        return self._assemble(parts)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Global L2 projection: values -> modal coefficients (condensed
        mass solve, like every other direct solve in the code).

        The mass operator (a
        :class:`~repro.assembly.condensation.MassProjector`) lives for
        this one call: set-up, then one :meth:`load_vector` and one solve
        per leading row, in row order.
        A stacked call is the per-row calls, bits and charges, less their
        repeated set-ups, so project a whole state at once."""
        from .condensation import MassProjector

        values = self._quadrature_values(values, "forward", "values")
        lead = values.shape[:-2]
        out = np.empty(lead + (self.ndof,))
        if out.size == 0:
            return out
        mass = MassProjector(self)
        for idx in np.ndindex(*lead):
            out[idx] = mass.solve(self.load_vector(values[idx]))
        return out

    def gradient(self, u_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Physical (du/dx, du/dy) at quadrature points from modal coeffs."""
        u_hat = self._coefficients(u_hat, "gradient")
        lead = u_hat.shape[:-1]
        dudx, dudy = [], []
        for b in self.batches():
            # Reference-first evaluation: the shared reference-derivative
            # tables (two dgemv per element, or two pairs of O(P^3)
            # contractions with sumfact), with the metric factors
            # applied pointwise afterwards.
            if self.sumfact and b.kind == "quad":
                tl = b.exp.tensor_layout()
                ct = matrix_free._coefficient_tensors(b, u_hat)
                d1 = matrix_free._element_last(matrix_free._forward(ct, tl.d1, tl.b1t), lead)
                d2 = matrix_free._element_last(matrix_free._forward(ct, tl.b1, tl.d1t), lead)
                charge_tape(matrix_free.call_tape(b, math.prod(lead), "gradient"))
            else:
                local = b.gather(u_hat)
                d1 = np.empty(lead + (b.ng, self.nq))
                d2 = np.empty(lead + (b.ng, self.nq))
                blas.dgemv_batched(1.0, b.exp.dphi1, local, 0.0, d1, trans=True)
                blas.dgemv_batched(1.0, b.exp.dphi2, local, 0.0, d2, trans=True)
            g11, g12, g21, g22 = b.dxi_stacks
            dudx.append(d1 * g11 + d2 * g21)
            dudy.append(d1 * g12 + d2 * g22)
        return self._by_element(dudx), self._by_element(dudy)

    # -- integrals ---------------------------------------------------------------

    def _field(self, values: np.ndarray, who: str) -> np.ndarray:
        """One field at the quadrature points: a float64 ``(nelem, nq)``
        array, or ``ValueError``."""
        values = self._quadrature_values(values, who, "values")
        if values.ndim != 2:
            raise ValueError(f"{who}: values must be one field (nelem, nq), got {values.shape}")
        return values

    def integrate(self, values: np.ndarray) -> float:
        """Integral over the domain of one field given at the quadrature
        points."""
        values = self._field(values, "integrate")
        total = 0.0
        for b in self.batches():
            total += float(np.sum(blas.ddot_batched(b.jw, values[b.elems])))
        return total

    def norm_l2(self, values: np.ndarray) -> float:
        return float(np.sqrt(max(0.0, self.integrate(self._field(values, "norm_l2") ** 2))))

    # -- assembly ------------------------------------------------------------------

    def _batch_operator_chunks(self, b, kind: str, lam: float):
        """Tabulated operator stack of one batch as ``(rows, matrices)``
        pairs, :data:`CHUNK` elements at a time, each built when asked.

        Chunks keep the (chunk, nmodes, nq) temporaries cache-resident:
        one huge stack per batch is memory-bound and slower than a loop
        over elements.  Charges are integer per-element counts, so
        chunking sums them exactly.
        """
        for start in range(0, b.ng, CHUNK):
            rows = slice(start, start + CHUNK)
            if kind == "mass":
                yield rows, elemental_mass_batched(b.exp, b.jw[rows])
            elif kind == "laplacian":
                yield rows, elemental_laplacian_batched(b.exp, b.jw[rows], b.dxi[rows])
            else:
                yield rows, elemental_helmholtz_batched(b.exp, b.jw[rows], b.dxi[rows], lam)

    def elemental_matrices(self, kind: str, lam: float = 0.0) -> ElementalOperator:
        """Per-element operator matrices, by kind stack, as a recipe.

        ``kind`` is "mass", "laplacian" or "helmholtz" (the latter takes
        the Helmholtz constant ``lam``).  The matrices are built as
        stacked dgemm_batched calls, :data:`CHUNK` elements of a batch at
        a time, when the result's :meth:`~ElementalOperator.chunks` are
        read: static condensation's set-up, the one reader, never holds a
        whole stack.
        """
        return ElementalOperator(self, kind, lam)

    def _dense_batch_mats(self, bi: int, kind: str, lam: float) -> np.ndarray:
        """Operator stack of batch ``bi`` — the matrix-free path's
        fallback for non-tensor-product elements, its chunks built once
        per (batch, kind, lam), joined and cached."""
        key = (bi, kind, round(float(lam), 12))
        mats = self._op_mats.get(key)
        if mats is None:
            chunks = self._batch_operator_chunks(self.batches()[bi], kind, lam)
            mats = np.concatenate([chunk for _, chunk in chunks])
            self._op_mats[key] = mats
        return mats

    def operator_apply(
        self, kind: str, u: np.ndarray, lam: float = 0.0
    ) -> np.ndarray:
        """Global matrix-free operator application A @ u, where A is the
        assembled mass / laplacian / helmholtz operator (no Dirichlet
        elimination; restrict externally).

        Quad batches apply by sum-factorisation — O(P^3) per element,
        nothing assembled; other batches fall back to cached tabulated
        elemental stacks.  Leading axes of ``u`` batch through one
        sweep.
        """
        matrix_free.check_kind(kind)
        u = self._coefficients(u, "operator_apply")
        lead = u.shape[:-1]
        parts = []
        for bi, b in enumerate(self.batches()):
            if self.sumfact and b.kind == "quad":
                res = matrix_free.apply_operator_batched(b, u, kind, lam)
            else:
                mats = self._dense_batch_mats(bi, kind, lam)
                res = np.zeros(lead + (b.ng, b.exp.nmodes))
                blas.dgemv_batched(1.0, mats, b.gather(u), 0.0, res)
            parts.append(res)
        return self._assemble(parts)

    def operator_diagonal(self, kind: str, lam: float = 0.0) -> np.ndarray:
        """Assembled operator diagonal (Jacobi preconditioner) without
        assembling: sum-factorised on quad batches, tabulated stacks on
        the rest.

        Computed once per (kind, lam) and cached read-only: a repeat
        request charges what a fresh one does, each quad batch's
        diagonal tape (a triangle batch's stacks are cached either way).
        """
        matrix_free.check_kind(kind)
        key = (kind, float(lam))
        diag = self._diagonals.get(key)
        if diag is not None:
            for b in self.batches():
                if self.sumfact and b.kind == "quad":
                    charge_tape(matrix_free.diagonal_tape(b, kind, lam))
            return diag
        parts = []
        for bi, b in enumerate(self.batches()):
            if self.sumfact and b.kind == "quad":
                d = matrix_free.diagonal_operator_batched(b, kind, lam)
            else:
                mats = self._dense_batch_mats(bi, kind, lam)
                d = np.diagonal(mats, axis1=-2, axis2=-1)
            # Signs square to one on the diagonal; pre-multiplying
            # cancels the one the assembly applies.
            parts.append(b.signs * d)
        diag = self._assemble(parts)
        diag.flags.writeable = False
        self._diagonals[key] = diag
        return diag

    def eval_at_vertices(self, u_hat: np.ndarray) -> np.ndarray:
        """Field values at mesh vertices (vertex dofs are nodal; a
        periodic vertex reads its representative's dof)."""
        return self._coefficients(u_hat, "eval_at_vertices")[..., self.dofmap.vrep]
