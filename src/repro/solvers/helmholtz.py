"""Global Helmholtz / Poisson solvers on a FunctionSpace.

The two workhorse solves of the splitting scheme (paper stages 5 and 7):

    (nabla^2 - lam) u = -f      (weak form: L + lam M)

with Dirichlet conditions on tagged boundary parts and natural
(zero-flux Neumann) conditions elsewhere — the paper's outflow/side
treatment for the bluff-body runs.  Two solvers, one implementation
each:

* :class:`HelmholtzDirect` — static condensation + banded Cholesky,
  factored once (NekTar's serial and NekTar-F path),
* :class:`HelmholtzCG` — diagonally preconditioned conjugate gradient
  on the space's elemental operator apply (NekTar-ALE's path).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..assembly.condensation import CondensedOperator
from ..assembly.global_system import dirichlet_block
from ..assembly.space import FunctionSpace
from ..linalg.cg import pcg, pcg_block

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
    """Shared setup: Dirichlet bookkeeping."""

    def __init__(
        self,
        space: FunctionSpace,
        lam: float = 0.0,
        dirichlet_tags: tuple[str, ...] = (),
    ):
        self.space = space
        self.lam = float(lam)
        self.dirichlet_tags = tuple(dirichlet_tags)
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
    """Direct solver: static condensation + banded boundary solve
    (NekTar's structure; Figure 10) over the tabulated elemental
    matrices ``elem_mats``."""

    def __init__(self, space, lam=0.0, dirichlet_tags=()):
        super().__init__(space, lam, dirichlet_tags)
        self.elem_mats = space.elemental_matrices("helmholtz", self.lam)
        self.op = CondensedOperator(space, self.elem_mats, self.dirichlet_dofs)

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
        through the batched condense and one multi-RHS ``dpbtrs``,
        charging exactly nrhs single-RHS solves.
        """
        return self.op.solve(rhs, dirichlet_values)


class HelmholtzCG(_HelmholtzBase):
    """Jacobi-preconditioned CG (the NekTar-ALE solver).

    Nothing is assembled: each matvec is
    :meth:`FunctionSpace.operator_apply` — the sum-factorised elemental
    apply on quad batches (O(P^3) per element), the cached elemental
    stacks on triangle batches — and the Jacobi diagonal is
    :meth:`FunctionSpace.operator_diagonal`.
    """

    def __init__(self, space, lam=0.0, dirichlet_tags=(), tol=1e-10, maxiter=None):
        super().__init__(space, lam, dirichlet_tags)
        self.tol = tol
        self.maxiter = maxiter
        mask = np.ones(space.ndof, dtype=bool)
        mask[self.dirichlet_dofs] = False
        self.free = np.nonzero(mask)[0]
        self.diag = space.operator_diagonal("helmholtz", self.lam)[self.free]
        self.last_iterations = 0

    def _apply_extended(self, dofs: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Free rows of A @ w, where w is ``values`` on ``dofs`` and zero
        elsewhere: one global elemental apply."""
        full = np.zeros(values.shape[:-1] + (self.space.ndof,))
        full[..., dofs] = values
        return self.space.operator_apply("helmholtz", full, self.lam)[..., self.free]

    def _apply_free(self, v: np.ndarray) -> np.ndarray:
        """A_uu @ v: the free dofs extended by zero, so the Dirichlet
        columns vanish."""
        return self._apply_extended(self.free, v)

    def _lift(self, rhs_free: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """rhs_free - A_uk @ dv: move known Dirichlet values to the RHS
        by extending them by zero."""
        return rhs_free - self._apply_extended(self.dirichlet_dofs, dv)

    def solve(self, f, g=None) -> np.ndarray:
        return self.solve_rhs(self.rhs_for(f), self.bc_values(g))

    def solve_rhs(self, rhs, dirichlet_values=None) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.ndim == 2:
            return self._solve_rhs_many(rhs, dirichlet_values)
        dv = dirichlet_block(dirichlet_values, 1, self.dirichlet_dofs.size)[0]
        if self.dirichlet_dofs.size:
            b = self._lift(rhs[self.free], dv)
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
        u[self.dirichlet_dofs] = dv
        return u

    def _solve_rhs_many(self, rhs: np.ndarray, dirichlet_values) -> np.ndarray:
        """Row-stacked multi-RHS path: the rows, iteration counts and
        charges of ``nrhs`` single solves."""
        nrhs = rhs.shape[0]
        dv = dirichlet_block(dirichlet_values, nrhs, self.dirichlet_dofs.size)
        b = rhs[:, self.free]
        if self.dirichlet_dofs.size:
            # Row by row: a stacked apply runs another dgemv kernel on
            # triangle batches, and CG amplifies its last bits.
            b = np.stack([self._lift(row, v) for row, v in zip(b, dv)])
        results = pcg_block(
            self._apply_free, b, self.diag, tol=self.tol, maxiter=self.maxiter
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
        u[:, self.dirichlet_dofs] = dv
        return u


def solve_poisson(
    space: FunctionSpace,
    f: ScalarFn | np.ndarray,
    dirichlet_tags: tuple[str, ...],
    g: ScalarFn | None = None,
) -> np.ndarray:
    """One-shot direct Poisson solve: -lap u = f, u = g on tagged boundaries."""
    return HelmholtzDirect(space, 0.0, tuple(dirichlet_tags)).solve(f, g)
