"""Frozen reference: the fully assembled direct solve and the per-element
operators it was first checked with.

None of this is on a run's path — every direct solve in ``src/`` goes
through the statically condensed ``CondensedOperator`` — so it lives
here, verbatim but for methods turned into functions, as what the live
code is compared against:

* ``assemble(space, elem_mats)`` (was ``FunctionSpace.assemble``): the
  signed elemental matrices scattered into one global CSR matrix;
* ``AssembledOperator``: that matrix with its Dirichlet dofs lifted out,
  reverse Cuthill-McKee ordered and banded-Cholesky factored (through the
  live ``rcm_band`` / ``BandedSPDSolver``), so a ``solve`` is one banded
  sweep over every free dof;
* ``elemental_helmholtz`` / ``elemental_load``: one element's H = L + lam M
  and load vector by counted ``dgemm`` / ``dgemv``, the per-element twins
  of the batched set-up and ``FunctionSpace.load_vector``;
* ``element_geom``: one element's ``GeomFactors``, the row of its kind
  stack's (a space holds the metric per kind stack, on its batches);
* ``StoredMatrices``: per-element matrices held whole (stored stacks, a
  per-element list), handed to ``CondensedOperator`` in the one form it
  reads (``.dofmap`` and ``.chunks(i)``, what ``elemental_matrices``
  returns).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.assembly.global_system import dirichlet_block, rcm_band
from repro.assembly.operators import elemental_laplacian, elemental_mass
from repro.assembly.space import CHUNK
from repro.linalg.banded import BandedSPDSolver
from repro.linalg.counters import charge

from ..linalg._vector_kernels import dgemv
from . import _dofmap_oracle as dmo


def element_geom(space, e: int):
    """Element ``e``'s :class:`~repro.mesh.mapping.GeomFactors`: its row
    of the space's kind-stack factors (views)."""
    i, (r,) = space.dofmap.locate([e])
    return space.batches()[i].geom.row(r)


def kind_stacks(mats) -> list[np.ndarray]:
    """The whole (n, nmodes, nmodes) stack of each dof-map kind stack of
    ``mats`` (anything with ``.dofmap`` and ``.chunks(i)``): a recipe's
    chunks are built, and charged, once."""
    return [
        np.concatenate([chunk for _, chunk in mats.chunks(i)])
        for i in range(len(mats.dofmap.stacks))
    ]


def element_rows(mats) -> list:
    """Per-element matrices in mesh element order: a list as given, or
    the rows of :func:`kind_stacks` (views)."""
    if isinstance(mats, list):
        return mats
    dm = mats.dofmap
    stacks = kind_stacks(mats)
    return [stacks[dm._stack_of[e]][dm._row_of[e]] for e in range(dm.mesh.nelements)]


class StoredMatrices:
    """Per-element matrices held whole, read the way
    ``CondensedOperator`` reads a space's recipe: ``.dofmap`` and
    ``.chunks(i)``, :data:`CHUNK` rows of kind stack ``i`` at a time (as
    views).  The one adapter through which a test condenses matrices it
    built, changed or wants to reuse: ``mats`` is a per-element list in
    mesh element order, or a recipe, read once."""

    def __init__(self, dofmap, mats):
        self.dofmap = dofmap
        if isinstance(mats, list):
            self.stacks = [
                np.stack([np.asarray(mats[e], dtype=np.float64) for e in st.elems])
                for st in dofmap.stacks
            ]
        else:
            self.stacks = kind_stacks(mats)

    def chunks(self, i: int):
        a = self.stacks[i]
        for start in range(0, len(a), CHUNK):
            rows = slice(start, start + CHUNK)
            yield rows, a[rows]


def assemble(space, elem_mats) -> sp.csr_matrix:
    """Scatter elemental matrices into the global sparse operator."""
    rows, cols, vals = [], [], []
    elem_dofs, elem_signs = dmo.elem_dofs(space.dofmap), dmo.elem_signs(space.dofmap)
    for ei, a in enumerate(element_rows(elem_mats)):
        dofs = elem_dofs[ei]
        signs = elem_signs[ei]
        sa = (signs[:, None] * a) * signs[None, :]
        n = dofs.size
        rows.append(np.repeat(dofs, n))
        cols.append(np.tile(dofs, n))
        vals.append(sa.ravel())
    m = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.ndof, space.ndof),
    )
    return m.tocsr()


def scatter_add(dofmap, elem: int, ulocal: np.ndarray, uglobal: np.ndarray) -> None:
    """Accumulate signed element-local values into the global vector."""
    i, (r,) = dofmap.locate([elem])
    st = dofmap.stacks[i]
    np.add.at(uglobal, st.dofs[r], st.signs[r] * ulocal)


def edge_load(eq, fvals: np.ndarray) -> np.ndarray:
    """(f, phi_i) over one side's ``EdgeQuadrature`` (the per-side record
    of ``tests/mesh/_metric_oracle``), local (unsigned) coefficients;
    runs load a whole ``EdgeBatch`` at once."""
    m, n = eq.phi.shape
    charge(2.0 * m * n, 8.0 * (m * n + n + m), "edge-load")
    return eq.phi @ (eq.jw * fvals)


class AssembledOperator:
    """A = sum_e Q_e^T A_e Q_e, factored for repeated solves.

    ``elem_mats`` holds one symmetric (nmodes x nmodes) matrix per
    element; ``dirichlet_dofs`` are eliminated and their coupling lifted
    to the right-hand side.
    """

    def __init__(self, space, elem_mats, dirichlet_dofs=()):
        self.space = space
        self.a_full = assemble(space, elem_mats)
        ndof = space.ndof
        self.dirichlet = np.asarray(sorted(set(int(d) for d in dirichlet_dofs)), dtype=np.int64)
        if self.dirichlet.size and (
            self.dirichlet.min() < 0 or self.dirichlet.max() >= ndof
        ):
            raise ValueError("dirichlet dof out of range")
        self.free = np.setdiff1d(np.arange(ndof), self.dirichlet)
        self.a_uk = self.a_full[np.ix_(self.free, self.dirichlet)].tocsr()
        self.perm, ab = rcm_band(self.a_full[np.ix_(self.free, self.free)].tocsr())
        self.solver = BandedSPDSolver.from_banded(ab)
        self.bandwidth = self.solver.kd

    @property
    def ndof(self) -> int:
        return self.space.ndof

    def matvec(self, u: np.ndarray) -> np.ndarray:
        # Sparse matvec: 2 flops per stored entry, value+index+vector traffic.
        charge(2.0 * self.a_full.nnz, 12.0 * self.a_full.nnz + 16.0 * self.ndof, "spmv")
        return self.a_full @ u

    def solve(self, rhs: np.ndarray, dirichlet_values: np.ndarray | None = None) -> np.ndarray:
        """Solve A u = rhs with u fixed on the Dirichlet dofs.

        ``rhs`` is the assembled load vector over all dofs, or a
        row-stacked (nrhs, ndof) block; ``dirichlet_values`` follow the
        sorted Dirichlet dof list (one shared vector or one row per RHS).
        Returns the full solution including the prescribed values.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        block = rhs[None] if rhs.ndim == 1 else rhs
        if block.ndim != 2 or block.shape[1] != self.ndof:
            raise ValueError("rhs must cover all global dofs")
        nrhs = block.shape[0]
        dv = dirichlet_block(dirichlet_values, nrhs, self.dirichlet.size)
        b = block[:, self.free]
        if self.dirichlet.size:
            charge(
                nrhs * 2.0 * self.a_uk.nnz,
                nrhs * 12.0 * self.a_uk.nnz,
                "dirichlet-lift",
            )
            b = b - (self.a_uk @ dv.T).T
        x = np.empty_like(b)
        x[:, self.perm] = self.solver.solve_many(b[:, self.perm])
        u = np.zeros((nrhs, self.ndof))
        u[:, self.free] = x
        u[:, self.dirichlet] = dv
        return u[0] if rhs.ndim == 1 else u


def elemental_helmholtz(exp, gf, lam: float) -> np.ndarray:
    """H = L + lam M, the operator of the paper's steps 5 and 7."""
    if lam < 0.0:
        raise ValueError("Helmholtz constant must be >= 0")
    h = elemental_laplacian(exp, gf)
    if lam != 0.0:
        h += lam * elemental_mass(exp, gf)
    return h


def elemental_load(exp, gf, fvals: np.ndarray) -> np.ndarray:
    """(f, phi_i) for f given at the element quadrature points."""
    fvals = np.ravel(np.asarray(fvals, dtype=np.float64))
    if fvals.size != gf.jw.size:
        raise ValueError("fvals must be given at the quadrature points")
    out = np.zeros(exp.nmodes)
    dgemv(1.0, exp.phi, gf.jw * fvals, 0.0, out)
    return out
