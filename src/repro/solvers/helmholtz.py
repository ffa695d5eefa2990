"""Global Helmholtz / Poisson solvers on a FunctionSpace.

The two workhorse solves of the splitting scheme (paper stages 5 and 7):

    (nabla^2 - lam) u = -f      (weak form: L + lam M)

with Dirichlet conditions on tagged boundary parts and natural
(zero-flux Neumann) conditions elsewhere — the paper's outflow/side
treatment for the bluff-body runs.  Two backends:

* :class:`HelmholtzDirect` — banded Cholesky, factored once (NekTar's
  serial and NekTar-F path),
* :class:`HelmholtzCG` — diagonally preconditioned conjugate gradient
  (NekTar-ALE's path).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..assembly.condensation import CondensedOperator
from ..assembly.global_system import AssembledOperator
from ..assembly.space import FunctionSpace
from ..linalg.cg import pcg, pcg_block
from ..linalg.counters import charge

__all__ = ["HelmholtzDirect", "HelmholtzCG", "solve_poisson"]

ScalarFn = Callable[[float, float], float]


def _sample(space: FunctionSpace, fn: ScalarFn | np.ndarray) -> np.ndarray:
    if callable(fn):
        xq, yq = space.coords()
        vec = np.vectorize(fn, otypes=[np.float64])
        return vec(xq, yq)
    arr = np.asarray(fn, dtype=np.float64)
    if arr.shape != (space.nelem, space.nq):
        raise ValueError("field array must be (nelem, nq)")
    return arr


class _HelmholtzBase:
    """Shared setup: elemental matrices + Dirichlet bookkeeping."""

    def __init__(
        self,
        space: FunctionSpace,
        lam: float = 0.0,
        dirichlet_tags: tuple[str, ...] = (),
    ):
        self.space = space
        self.lam = float(lam)
        self.dirichlet_tags = tuple(dirichlet_tags)
        self._elem_mats: list[np.ndarray] | None = None
        if self.dirichlet_tags:
            self.bc_plan = space.dirichlet_plan(self.dirichlet_tags)
            self.bc_plan.charge_projection()  # the zero projection that found the dofs
            self.dirichlet_dofs = self.bc_plan.dofs
        else:
            self.dirichlet_dofs = np.array([], dtype=np.int64)
        if self.lam == 0.0 and self.dirichlet_dofs.size == 0:
            raise ValueError(
                "pure-Neumann Poisson problem is singular; fix a Dirichlet "
                "part or use lam > 0"
            )

    @property
    def elem_mats(self) -> list[np.ndarray]:
        """Tabulated elemental matrices, built on first access only —
        the matrix-free CG backend never touches them."""
        if self._elem_mats is None:
            self._elem_mats = self.space.elemental_matrices("helmholtz", self.lam)
        return self._elem_mats

    def rhs_for(self, f: ScalarFn | np.ndarray) -> np.ndarray:
        """Assembled load vector of the forcing (weak form of -lap u + lam u = f)."""
        return self.space.load_vector(_sample(self.space, f))

    def bc_values(self, g: ScalarFn | None) -> np.ndarray | None:
        if not self.dirichlet_dofs.size:
            return None
        if g is None:
            return np.zeros(self.dirichlet_dofs.size)
        return self.bc_plan.project(g)

    def bc_values_by_tag(self, fns, *args) -> np.ndarray | None:
        """As :meth:`bc_values`, one fn(x, y, *args) per tag (a later tag wins a corner)."""
        return self.bc_plan.project_by_tag(fns, *args) if self.dirichlet_tags else None


class HelmholtzDirect(_HelmholtzBase):
    """Direct backend: static condensation + banded boundary solve
    (NekTar's structure; Figure 10).  Set ``condense=False`` for the
    plain full-banded factorisation."""

    def __init__(self, space, lam=0.0, dirichlet_tags=(), condense=True):
        super().__init__(space, lam, dirichlet_tags)
        cls = CondensedOperator if condense else AssembledOperator
        self.op = cls(space, self.elem_mats, self.dirichlet_dofs)

    def solve(
        self, f: ScalarFn | np.ndarray, g: ScalarFn | None = None
    ) -> np.ndarray:
        """Solve (L + lam M) u = (f, phi) with u = g on the Dirichlet part."""
        return self.op.solve(self.rhs_for(f), self.bc_values(g))

    def solve_rhs(
        self, rhs: np.ndarray, dirichlet_values: np.ndarray | None = None
    ) -> np.ndarray:
        """Solve with a pre-assembled global load vector (NS inner loop).

        ``rhs`` may be a single (ndof,) vector or a row-stacked
        (nrhs, ndof) block — the operator layer runs stacked blocks
        through the batched condense / blocked banded sweep, charging
        exactly nrhs single-RHS solves.
        """
        return self.op.solve(rhs, dirichlet_values)


class HelmholtzCG(_HelmholtzBase):
    """Jacobi-preconditioned CG backend (the NekTar-ALE solver).

    ``matrix_free`` selects how the CG matvec runs:

    * ``False`` — assemble the global sparse operator once and apply it
      as a counted CSR spmv (the original path; kept as the oracle),
    * ``True`` — never assemble anything: each matvec is the
      sum-factorised elemental apply of
      :meth:`FunctionSpace.operator_apply` (O(P^3) per quad element)
      and the Jacobi diagonal comes from
      :meth:`FunctionSpace.operator_diagonal`.

    The default (``None``) follows ``space.sumfact``, so all-quad
    meshes go matrix-free automatically.  Both paths produce the same
    solutions to solver tolerance; their ledger profiles differ
    ("spmv" vs the sum-factorised "dgemm"/"mfree-metric" charges).
    """

    def __init__(
        self,
        space,
        lam=0.0,
        dirichlet_tags=(),
        tol=1e-10,
        maxiter=None,
        matrix_free: bool | None = None,
    ):
        super().__init__(space, lam, dirichlet_tags)
        self.tol = tol
        self.maxiter = maxiter
        if matrix_free is None:
            matrix_free = space.sumfact
        self.matrix_free = bool(matrix_free)
        mask = np.ones(space.ndof, dtype=bool)
        mask[self.dirichlet_dofs] = False
        self.free = np.nonzero(mask)[0]
        if self.matrix_free:
            self.a_full = self.a_uu = self.a_uk = None
            self.diag = space.operator_diagonal("helmholtz", self.lam)[self.free]
        else:
            self.a_full = space.assemble(self.elem_mats)
            self.a_uu = self.a_full[np.ix_(self.free, self.free)].tocsr()
            self.a_uk = self.a_full[
                np.ix_(self.free, self.dirichlet_dofs)
            ].tocsr()
            self.diag = np.asarray(self.a_uu.diagonal())
        self.last_iterations = 0

    def _apply_extended(self, dofs: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Free rows of A @ w, where w is ``values`` on ``dofs`` and zero
        elsewhere: one global sum-factorised apply, for one vector or a
        row-stacked block of them."""
        full = np.zeros(values.shape[:-1] + (self.space.ndof,))
        full[..., dofs] = values
        return self.space.operator_apply("helmholtz", full, self.lam)[..., self.free]

    def _apply_free(self, v: np.ndarray) -> np.ndarray:
        """A_uu @ v for one vector or a row-stacked block of them.

        Matrix-free: the free dofs extended by zero, so the Dirichlet
        columns vanish.  Dense: counted CSR spmv, charged like
        AssembledOperator.
        """
        if self.matrix_free:
            return self._apply_extended(self.free, v)
        charge(
            2.0 * self.a_uu.nnz,
            12.0 * self.a_uu.nnz + 16.0 * v.shape[-1],
            "spmv",
        )
        return self.a_uu @ v

    def _lift(self, rhs_free: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """rhs_free - A_uk @ dv: move known Dirichlet values to the RHS.

        ``rhs_free``/``dv`` may carry one leading block axis.  The
        matrix-free form extends the boundary values by zero.
        """
        if self.matrix_free:
            return rhs_free - self._apply_extended(self.dirichlet_dofs, dv)
        nrhs = dv.shape[0] if dv.ndim == 2 else 1
        charge(
            nrhs * 2.0 * self.a_uk.nnz,
            nrhs * 12.0 * self.a_uk.nnz,
            "dirichlet-lift",
        )
        if dv.ndim == 2:
            return rhs_free - (self.a_uk @ dv.T).T
        return rhs_free - self.a_uk @ dv

    def solve(self, f, g=None) -> np.ndarray:
        return self.solve_rhs(self.rhs_for(f), self.bc_values(g))

    def solve_rhs(self, rhs, dirichlet_values=None) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim == 2:
            return self._solve_rhs_many(rhs, dirichlet_values)
        if self.dirichlet_dofs.size:
            if dirichlet_values is None:
                dirichlet_values = np.zeros(self.dirichlet_dofs.size)
            b = self._lift(rhs[self.free], np.asarray(dirichlet_values))
        else:
            b = rhs[self.free]
        res = pcg(
            self._apply_free,
            b,
            self.diag,
            tol=self.tol,
            maxiter=self.maxiter,
        )
        if not res.converged:
            raise RuntimeError(
                f"CG failed to converge: residual {res.residual:.3e} "
                f"after {res.iterations} iterations"
            )
        self.last_iterations = res.iterations
        u = np.zeros(self.space.ndof)
        u[self.free] = res.x
        if self.dirichlet_dofs.size:
            u[self.dirichlet_dofs] = dirichlet_values
        return u

    def _solve_rhs_many(self, rhs: np.ndarray, dirichlet_values) -> np.ndarray:
        """Row-stacked multi-RHS path: one block-Jacobi-PCG sweep whose
        per-column iterates and charges match ``nrhs`` solo solves; the
        matrix-free backend applies the whole block per iteration in a
        single batched elemental sweep."""
        nrhs = rhs.shape[0]
        dv = None
        if self.dirichlet_dofs.size:
            nd = self.dirichlet_dofs.size
            if dirichlet_values is None:
                dv = np.zeros((nrhs, nd))
            else:
                dv = np.asarray(dirichlet_values, dtype=np.float64)
                if dv.ndim == 1:
                    dv = np.broadcast_to(dv, (nrhs, nd))
                if dv.shape != (nrhs, nd):
                    raise ValueError("dirichlet_values shape mismatch")
            b = self._lift(rhs[:, self.free], dv)
        else:
            b = rhs[:, self.free]
        results = pcg_block(
            self._apply_free,
            b,
            self.diag,
            tol=self.tol,
            maxiter=self.maxiter,
            apply_block=self._apply_free if self.matrix_free else None,
        )
        bad = [res for res in results if not res.converged]
        if bad:
            raise RuntimeError(
                f"CG failed to converge: residual {bad[0].residual:.3e} "
                f"after {bad[0].iterations} iterations"
            )
        self.last_iterations = max(res.iterations for res in results)
        u = np.zeros((nrhs, self.space.ndof))
        u[:, self.free] = np.stack([res.x for res in results])
        if dv is not None:
            u[:, self.dirichlet_dofs] = dv
        return u


def solve_poisson(
    space: FunctionSpace,
    f: ScalarFn | np.ndarray,
    dirichlet_tags: tuple[str, ...],
    g: ScalarFn | None = None,
    backend: str = "direct",
) -> np.ndarray:
    """One-shot Poisson solve: -lap u = f, u = g on tagged boundaries."""
    cls = {"direct": HelmholtzDirect, "cg": HelmholtzCG}.get(backend)
    if cls is None:
        raise ValueError(f"unknown backend {backend!r}")
    return cls(space, 0.0, tuple(dirichlet_tags)).solve(f, g)
