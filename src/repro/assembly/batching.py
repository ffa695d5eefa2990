"""Contiguous same-shape element batches: the stacked-operand layer.

The paper's central observation is that the DNS codes spend their time
in BLAS; our per-element hot loops issue one *tiny* counted dgemv/dgemm
per element from Python, so interpreter overhead — not kernel
throughput — dominates wall-clock.  This module groups elements by
(shape, order, quadrature) into :class:`ElementBatch` objects holding
3-D operand stacks (stacked dof maps, signs, quadrature weights and
metric factors), so the transforms, load vectors and operator setup in
:class:`~repro.assembly.space.FunctionSpace` can run as a handful of
stacked level-3 calls per field instead of one level-2 call per
element.

With uniform polynomial order the grouping key collapses to the element
kind ("tri"/"quad"), so a batch is one of the dof map's per-kind stacks
(:class:`~repro.assembly.dofmap.KindStack`) plus its elements' metric.
Batches preserve element order within each group, and the signed
gather here and the signed, accumulating assembly in
``FunctionSpace._assemble`` do, per element, exactly what a one-element
gather and scatter would.  :class:`FunctionSpace` builds its batches
with itself, one per kind stack.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .matrix_free import _element_middle

__all__ = ["ElementBatch"]


class ElementBatch:
    """One group of same-shape elements with stacked operands.

    Attributes
    ----------
    kind:
        Element kind, "tri" or "quad".
    exp:
        The shared reference expansion of every element in the batch.
    elems:
        (ng,) element indices, in mesh element order.
    dofs, signs:
        (ng, nmodes) stacked global dof numbers and C0 edge signs: the
        dof map's read-only stacks of the kind, not copies.
    geom:
        The kind stack's :class:`~repro.mesh.mapping.GeomFactors` (its
        elements' metric, one stacked pass).
    jw:
        (ng, nq) stacked physical quadrature weights.
    dxi:
        (ng, 2, 2, nq) stacked inverse-Jacobian factors
        (``dxi[e, i, j]`` is d(xi_i)/d(x_j) on element ``elems[e]``).
        Both are fields of ``geom``, not copies.

    A quad batch also lays out, at first use, what the sum-factorised
    calls read in their element-middle layout (``dofs_em``,
    ``signs_em``, ``readout``, ``dxi_em``, ``jw_em``, ``scaled_jw``;
    :mod:`repro.assembly.matrix_free`).
    """

    def __init__(self, stack, geom):
        self.kind = stack.kind
        self.exp = stack.exp
        self.elems = stack.elems
        self.dofs = stack.dofs
        self.signs = stack.signs
        self.geom = geom
        self.jw = geom.jw
        self.dxi = geom.dxi_dx
        self._scaled_jw: dict[float, np.ndarray] = {}
        #: Charge tapes of the sum-factorised calls on this batch
        #: (:func:`repro.assembly.matrix_free.call_tape`); immutable tuples.
        self.tapes: dict[tuple, tuple] = {}

    @property
    def ng(self) -> int:
        """Number of elements in the batch."""
        return self.elems.size

    # -- operands of the one-pass transforms and matrix-free apply ------------
    #
    # What FunctionSpace.backward / gradient / load_vector /
    # grad_load_vector and repro.assembly.matrix_free.apply_operator_batched
    # read on every call and that depends on the space only, laid out
    # once the way they consume it.  The sum-factorised contractions run
    # on element-middle blocks (slow, element, fast): a coefficient
    # tensor block is (P+1, ng, P+1) with index [q, e, p], a quadrature
    # block (n1, ng, n1) with index [j, e, i] (DESIGN.md section 15.3).
    # Nothing here is written after it is built, so calls on one space
    # may run concurrently (the ``scaled_jw`` and ``tapes`` caches gain
    # entries, but never change one).

    @cached_property
    def dofs_em(self) -> np.ndarray:
        """(P+1, ng, P+1) global dofs in element-middle C^T order: the
        signed gather of ``u`` at ``dofs_em``, times ``signs_em``, is the
        block of transposed coefficient tensors the contractions start
        from (``[q, e, p]`` holds element e's mode (p, q))."""
        return self._tensor_block(self.dofs)

    @cached_property
    def signs_em(self) -> np.ndarray:
        return self._tensor_block(self.signs)

    def _tensor_block(self, table: np.ndarray) -> np.ndarray:
        tl = self.exp.tensor_layout()
        ct = table[:, tl.ct_perm].reshape(self.ng, tl.np1, tl.np1)
        return np.ascontiguousarray(ct.transpose(1, 0, 2))

    @cached_property
    def readout(self) -> np.ndarray:
        """(ng, nmodes) positions of each element's modes in a flattened
        (P+1, ng, P+1) tensor block: the one read-out to modal order."""
        tl = self.exp.tensor_layout()
        e = np.arange(self.ng)[:, None]
        return (tl.pq[:, 1] * self.ng + e) * tl.np1 + tl.pq[:, 0]

    @cached_property
    def dxi_stacks(self) -> tuple[np.ndarray, ...]:
        """``dxi[:, a, b]`` for (a, b) = (0, 0), (0, 1), (1, 0), (1, 1)
        as four contiguous (ng, nq) stacks."""
        return tuple(
            np.ascontiguousarray(self.dxi[:, a, b]) for a in (0, 1) for b in (0, 1)
        )

    @cached_property
    def dxi_em(self) -> np.ndarray:
        """``dxi`` as one contiguous (2, 2, 1, n1, ng, n1) block of
        element-middle factors: ``dxi_em[a, b]`` is d(xi_a)/d(x_b), so
        ``dxi_em[0]``, ``dxi_em[1]``, ``dxi_em[:, 0]`` and
        ``dxi_em[:, 1]`` are the metric stage's stacked operands as views."""
        tl = self.exp.tensor_layout()
        block = _element_middle(tl, self.dxi.transpose(1, 2, 0, 3))
        return block.reshape((2, 2, 1) + block.shape[1:])

    @cached_property
    def jw_em(self) -> np.ndarray:
        """``jw`` as an element-middle (1, n1, ng, n1) block."""
        return _element_middle(self.exp.tensor_layout(), self.jw)

    def scaled_jw(self, scale: float) -> np.ndarray:
        """``scale * jw_em`` (the Helmholtz mass term's weights), kept
        per constant: a space serves a handful of solvers."""
        w = self._scaled_jw.get(scale)
        if w is None:
            w = self._scaled_jw[scale] = scale * self.jw_em
        return w

    def gather(self, uglobal: np.ndarray) -> np.ndarray:
        """(..., ndof) global coefficients -> (..., ng, nmodes) signed
        element-local coefficients, all elements at once."""
        uglobal = np.asarray(uglobal, dtype=np.float64)
        return uglobal[..., self.dofs] * self.signs

