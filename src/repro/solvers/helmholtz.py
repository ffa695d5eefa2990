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

and the set-up the Navier-Stokes solvers share: :func:`pressure_operator`
picks the condensed operator of a pressure solve, and
:class:`ViscousHolder` keeps one viscous solver alive at a time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..assembly.condensation import CondensedOperator
from ..assembly.global_system import dirichlet_block
from ..assembly.space import FunctionSpace
from ..linalg.cg import pcg
from ..obs import metrics

__all__ = [
    "HelmholtzDirect",
    "HelmholtzCG",
    "ViscousHolder",
    "pressure_operator",
    "solve_poisson",
]

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

    def bc_values_by_tag(self, fns, *args) -> np.ndarray | None:
        """Dirichlet values of one fn(x, y, *args) per tag, projected onto
        the boundary dofs (a later tag wins a corner)."""
        return self.bc_plan.project_by_tag(fns, *args) if self.dirichlet_tags else None


class HelmholtzDirect(_HelmholtzBase):
    """Direct solver: static condensation + banded boundary solve
    (NekTar's structure; Figure 10) over the tabulated elemental
    Helmholtz matrices.

    The solver keeps only the condensed operator ``op``, whose set-up
    builds the elemental matrices chunk by chunk and condenses each
    chunk as it comes (DESIGN.md section 9, "What a condensed operator
    keeps").
    """

    def __init__(self, space, lam=0.0, dirichlet_tags=()):
        super().__init__(space, lam, dirichlet_tags)
        self.op = CondensedOperator(space, self.elem_mats, self.dirichlet_dofs)

    @property
    def elem_mats(self):
        """The elemental matrices the operator is built from: the space's
        recipe, which builds (and charges) them again on every read."""
        return self.space.elemental_matrices("helmholtz", self.lam)

    def solve(self, f: ScalarFn | np.ndarray) -> np.ndarray:
        """Solve (L + lam M) u = (f, phi) with u = 0 on the Dirichlet part."""
        return self.op.solve(self.rhs_for(f))

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

    def solve(self, f) -> np.ndarray:
        """Solve (L + lam M) u = (f, phi) with u = 0 on the Dirichlet part."""
        return self.solve_rhs(self.rhs_for(f))

    def solve_rhs(self, rhs, dirichlet_values=None) -> np.ndarray:
        """Solve with a pre-assembled global load vector: one (ndof,)
        vector or a row-stacked (nrhs, ndof) block.  A vector is a
        one-row block and each row is one :func:`pcg` call, so a block
        has the rows, iteration counts and charges of ``nrhs`` single
        solves; ``last_iterations`` is the largest row count."""
        rhs = np.asarray(rhs, dtype=np.float64)
        block = rhs[None] if rhs.ndim == 1 else rhs
        if block.ndim != 2 or block.shape[1] != self.space.ndof:
            raise ValueError("rhs must cover all global dofs")
        dv = dirichlet_block(dirichlet_values, block.shape[0], self.dirichlet_dofs.size)
        u = np.zeros(block.shape)
        iterations = []
        for row, v, out in zip(block, dv, u):
            b = row[self.free]
            if self.dirichlet_dofs.size:
                b = self._lift(b, v)
            res = pcg(self._apply_free, b, self.diag, tol=self.tol, maxiter=self.maxiter)
            if not res.converged:
                raise RuntimeError(
                    f"CG failed to converge: residual {res.residual:.3e} "
                    f"after {res.iterations} iterations"
                )
            out[self.free] = res.x
            out[self.dirichlet_dofs] = v
            iterations.append(res.iterations)
        self.last_iterations = max(iterations)
        return u[0] if rhs.ndim == 1 else u


def pressure_operator(
    space: FunctionSpace, dirichlet_tags: tuple[str, ...] = (), lam: float = 0.0
) -> CondensedOperator:
    """The condensed operator of a pressure solve, (L + lam M) p = rhs
    with p = 0 on the tagged boundary parts: :class:`HelmholtzDirect`'s
    when there is a Dirichlet part or lam > 0, else (an enclosed flow's
    singular Poisson problem) the Laplacian with the first boundary dof
    pinned.  ``op.solve(rhs)`` imposes the zero values."""
    if dirichlet_tags or lam > 0.0:
        return HelmholtzDirect(space, lam, dirichlet_tags).op
    pin = int(space.dofmap.boundary_dofs()[0])
    return CondensedOperator(space, space.elemental_matrices("laplacian"), [pin])


class ViscousHolder:
    """The one live viscous solver of a Navier-Stokes solver (or of one
    of its Fourier modes), keyed by its rounded lambda: the start-up
    steps' lower-order gamma0 is another key.  A stale solver is freed
    before its successor is built, so two factorisations are never
    alive at once (DESIGN.md section 10)."""

    def __init__(self, space: FunctionSpace, dirichlet_tags: tuple[str, ...]):
        self.space = space
        self.dirichlet_tags = dirichlet_tags
        self.key: float | None = None
        self.current: HelmholtzDirect | None = None

    def solver(self, lam: float) -> HelmholtzDirect:
        """The held solver if ``lam`` rounds to its key, else a new one."""
        key = round(lam, 9)
        if key == self.key:
            metrics.inc("visc_cache.hits")
            return self.current
        metrics.inc("visc_cache.misses")
        self.current = None  # free the stale solver before its successor is built
        self.current = HelmholtzDirect(self.space, lam, self.dirichlet_tags)
        self.key = key
        return self.current


def solve_poisson(
    space: FunctionSpace, f: ScalarFn | np.ndarray, dirichlet_tags: tuple[str, ...]
) -> np.ndarray:
    """One-shot direct Poisson solve: -lap u = f, u = 0 on tagged boundaries."""
    return HelmholtzDirect(space, 0.0, tuple(dirichlet_tags)).solve(f)
