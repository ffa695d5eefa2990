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
``FunctionSpace._assemble`` reproduce the per-element
:class:`~repro.assembly.dofmap.DofMap` semantics exactly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["ElementBatch", "build_batches"]


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
    jw:
        (ng, nq) stacked physical quadrature weights.
    dxi:
        (ng, 2, 2, nq) stacked inverse-Jacobian factors
        (``dxi[e, i, j]`` is d(xi_i)/d(x_j) on element ``elems[e]``).
    """

    def __init__(self, stack, geom):
        self.kind = stack.kind
        self.exp = stack.exp
        self.elems = stack.elems
        self.dofs = stack.dofs
        self.signs = stack.signs
        self.jw = np.stack([geom[e].jw for e in self.elems])
        self.dxi = np.stack([geom[e].dxi_dx for e in self.elems])
        self._scaled_jw: dict[float, np.ndarray] = {}

    @property
    def ng(self) -> int:
        """Number of elements in the batch."""
        return self.elems.size

    # -- operands of the one-pass transforms and matrix-free apply ------------
    #
    # What FunctionSpace.backward / gradient / load_vector /
    # grad_load_vector and repro.assembly.matrix_free.apply_operator_batched
    # read on every call and that depends on the space only, laid out
    # once the way they consume it.  Nothing here is written after it is
    # built, so calls on one space may run concurrently.

    @cached_property
    def dofs_ct(self) -> np.ndarray:
        """(ng, P+1, P+1) global dofs in C^T tensor order: the signed
        gather of ``u`` at ``dofs_ct``, times ``signs_ct``, is the stack
        of transposed coefficient tensors the contractions start from."""
        tl = self.exp.tensor_layout()
        return self.dofs[:, tl.ct_perm].reshape(self.ng, tl.np1, tl.np1)

    @cached_property
    def signs_ct(self) -> np.ndarray:
        tl = self.exp.tensor_layout()
        return self.signs[:, tl.ct_perm].reshape(self.ng, tl.np1, tl.np1)

    @cached_property
    def dxi_stacks(self) -> tuple[np.ndarray, ...]:
        """``dxi[:, a, b]`` for (a, b) = (0, 0), (0, 1), (1, 0), (1, 1)
        as four contiguous (ng, nq) stacks."""
        return tuple(
            np.ascontiguousarray(self.dxi[:, a, b]) for a in (0, 1) for b in (0, 1)
        )

    def scaled_jw(self, scale: float) -> np.ndarray:
        """``scale * jw`` (the Helmholtz mass term's weights), kept per
        constant: a space serves a handful of solvers."""
        w = self._scaled_jw.get(scale)
        if w is None:
            w = self._scaled_jw[scale] = scale * self.jw
        return w

    def gather(self, uglobal: np.ndarray) -> np.ndarray:
        """(..., ndof) global coefficients -> (..., ng, nmodes) signed
        element-local coefficients, all elements at once."""
        uglobal = np.asarray(uglobal, dtype=np.float64)
        return uglobal[..., self.dofs] * self.signs


def build_batches(space) -> list[ElementBatch]:
    """One batch per element kind of the space's dof map.

    A kind has one expansion, so it is one (shape, order, quadrature)
    group.  Batches come out in first-appearance order and keep mesh
    element order within each group, so per-element results reassembled
    from batches line up with the sequential loops they replace.
    """
    return [ElementBatch(stack, space.geom) for stack in space.dofmap.stacks]
