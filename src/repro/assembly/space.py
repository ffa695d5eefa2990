"""FunctionSpace: the discrete field layer of the spectral/hp method.

Bundles a mesh + uniform polynomial order with the dof map, per-element
geometric factors and physical quadrature coordinates, and provides the
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

import numpy as np
import scipy.sparse as sp

from ..linalg import blas
from ..mesh.mapping import GeomFactors, quadrature_reference
from ..mesh.mesh2d import Mesh2D
from . import matrix_free
from .boundary import DirichletPlan
from .dofmap import DofMap
from .operators import (
    elemental_helmholtz_batched,
    elemental_laplacian_batched,
    elemental_mass_batched,
)

__all__ = ["FunctionSpace"]


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
            sumfact = all(e.kind == "quad" for e in mesh.elements)
        self.sumfact = bool(sumfact)
        self._batches = None
        self._op_mats: dict[tuple, np.ndarray] = {}
        self._dirichlet_plans: dict[tuple[str, ...], DirichletPlan] = {}
        self.dofmap = DofMap(mesh, order, periodic=periodic)
        from ..mesh.curved import make_element_map

        self.geom: list[GeomFactors] = []
        xq, yq = [], []
        for ei, elem in enumerate(mesh.elements):
            exp = self.dofmap.expansion(ei)
            coords = mesh.element_coords(ei)
            emap = make_element_map(mesh, ei)
            self.geom.append(GeomFactors.compute(exp, coords, emap))
            x, y = emap.x(*quadrature_reference(elem.kind, exp.nq1d))
            xq.append(x)
            yq.append(y)
        self.xq = np.array(xq)
        self.yq = np.array(yq)
        self._mass_solver = None

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

    def batches(self):
        """Same-shape element batches (built lazily; element order is
        preserved within each batch)."""
        if self._batches is None:
            from .batching import build_batches

            self._batches = build_batches(self)
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
        u = np.asarray(u, dtype=np.float64)
        if u.shape[-1:] != (self.ndof,):
            raise ValueError(
                f"{who}: u must be (..., ndof = {self.ndof}), got {u.shape}"
            )
        return u

    def backward(self, u_hat: np.ndarray) -> np.ndarray:
        """Global modal coefficients -> values at quadrature points."""
        u_hat = self._coefficients(u_hat, "backward")
        lead = u_hat.shape[:-1]
        out = np.empty(lead + (self.nelem, self.nq))
        for b in self.batches():
            local = b.gather(u_hat)
            if self.sumfact and b.kind == "quad":
                vals = b.exp.backward_sumfact_batched(local)
            else:
                vals = np.empty(lead + (b.ng, self.nq))
                blas.dgemv_batched(1.0, b.exp.phi, local, 0.0, vals, trans=True)
            out[..., b.elems, :] = vals
        return out

    def load_vector(self, values: np.ndarray) -> np.ndarray:
        """Assembled (f, phi_i) for f at quadrature points."""
        values = np.asarray(values, dtype=np.float64)
        lead = values.shape[:-2]
        rhs = np.zeros(lead + (self.ndof,))
        if values.shape[-2:] != (self.nelem, self.nq):
            raise ValueError("values must be given at the quadrature points")
        for b in self.batches():
            w = b.jw * values[..., b.elems, :]
            if self.sumfact and b.kind == "quad":
                local = b.exp.iproduct_sumfact_batched(w)
            else:
                local = np.zeros(lead + (b.ng, b.exp.nmodes))
                blas.dgemv_batched(1.0, b.exp.phi, w, 0.0, local)
            b.scatter_add(local, rhs)
        return rhs

    def grad_load_vector(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        """Assembled (fx, dphi_i/dx) + (fy, dphi_i/dy).

        This is the weak pressure-Poisson right-hand side of the
        splitting scheme: with the consistent Neumann condition
        dp/dn = u_hat . n / dt, the boundary terms cancel and
        (grad p, grad phi) = (u_hat, grad phi) / dt.
        """
        fx = np.asarray(fx, dtype=np.float64)
        fy = np.asarray(fy, dtype=np.float64)
        lead = fx.shape[:-2]
        rhs = np.zeros(lead + (self.ndof,))
        if fx.shape != fy.shape or fx.shape[-2:] != (self.nelem, self.nq):
            raise ValueError("fields must be given at the quadrature points")
        for b in self.batches():
            # Adjoint of the reference-first gradient: contract the
            # metric factors into the quadrature fields, then apply the
            # shared reference-derivative tables — two dgemv charges
            # per element (or two pairs of O(P^3) contractions with
            # sumfact).
            g = b.jw * fx[..., b.elems, :]
            h = b.jw * fy[..., b.elems, :]
            t1 = b.dxi[:, 0, 0] * g + b.dxi[:, 0, 1] * h
            t2 = b.dxi[:, 1, 0] * g + b.dxi[:, 1, 1] * h
            if self.sumfact and b.kind == "quad":
                local = b.exp.iproduct_sumfact_batched(t1, deriv=1)
                local += b.exp.iproduct_sumfact_batched(t2, deriv=2)
            else:
                local = np.zeros(lead + (b.ng, b.exp.nmodes))
                blas.dgemv_batched(1.0, b.exp.dphi1, t1, 0.0, local)
                blas.dgemv_batched(1.0, b.exp.dphi2, t2, 1.0, local)
            b.scatter_add(local, rhs)
        return rhs

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Global L2 projection: values -> modal coefficients (condensed
        mass solve, like every other direct solve in the code)."""
        from .condensation import CondensedOperator

        values = np.asarray(values, dtype=np.float64)
        if self._mass_solver is None:
            self._mass_solver = CondensedOperator(self, self.elemental_matrices("mass"))
        rhs = self.load_vector(values)
        # Row-by-row substitution, not CondensedOperator.solve: these bits
        # seed ale_cg's pinned PCG counts (see _solve_by_substitution).
        solve = self._mass_solver._solve_by_substitution
        lead = values.shape[:-2]
        if lead:
            out = np.empty(lead + (self.ndof,))
            for idx in np.ndindex(*lead):
                out[idx] = solve(rhs[idx])
            return out
        return solve(rhs)

    def gradient(self, u_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Physical (du/dx, du/dy) at quadrature points from modal coeffs."""
        u_hat = self._coefficients(u_hat, "gradient")
        lead = u_hat.shape[:-1]
        dudx = np.empty(lead + (self.nelem, self.nq))
        dudy = np.empty(lead + (self.nelem, self.nq))
        for b in self.batches():
            local = b.gather(u_hat)
            if self.sumfact and b.kind == "quad":
                d1, d2 = b.exp.gradient_sumfact_batched(local)
            else:
                # Reference-first evaluation: two shared-table dgemv
                # per element, with the metric factors applied
                # pointwise afterwards.
                d1 = np.empty(lead + (b.ng, self.nq))
                d2 = np.empty(lead + (b.ng, self.nq))
                blas.dgemv_batched(1.0, b.exp.dphi1, local, 0.0, d1, trans=True)
                blas.dgemv_batched(1.0, b.exp.dphi2, local, 0.0, d2, trans=True)
            dudx[..., b.elems, :] = d1 * b.dxi[:, 0, 0] + d2 * b.dxi[:, 1, 0]
            dudy[..., b.elems, :] = d1 * b.dxi[:, 0, 1] + d2 * b.dxi[:, 1, 1]
        return dudx, dudy

    def gradient_of_values(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of a quadrature-space field (projects first)."""
        return self.gradient(self.forward(values))

    # -- integrals ---------------------------------------------------------------

    def integrate(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=np.float64)
        total = 0.0
        for b in self.batches():
            total += float(np.sum(blas.ddot_batched(b.jw, values[b.elems])))
        return total

    def norm_l2(self, values: np.ndarray) -> float:
        return float(np.sqrt(max(0.0, self.integrate(np.asarray(values) ** 2))))

    # -- assembly ------------------------------------------------------------------

    def _batch_operator_stack(self, b, kind: str, lam: float) -> np.ndarray:
        """Tabulated (ng, nmodes, nmodes) operator stack of one batch.

        Built in chunks so the (chunk, nmodes, nq) temporaries stay
        cache-resident: one huge stack per batch is memory-bound and
        slower than a loop over elements.  Charges are integer
        per-element counts, so chunking sums them exactly.
        """
        mats = np.empty((b.ng, b.exp.nmodes, b.exp.nmodes))
        chunk = 16
        for start in range(0, b.ng, chunk):
            sl = slice(start, start + chunk)
            if kind == "mass":
                mats[sl] = elemental_mass_batched(b.exp, b.jw[sl])
            elif kind == "laplacian":
                mats[sl] = elemental_laplacian_batched(b.exp, b.jw[sl], b.dxi[sl])
            else:
                mats[sl] = elemental_helmholtz_batched(
                    b.exp, b.jw[sl], b.dxi[sl], lam
                )
        return mats

    def elemental_matrices(self, kind: str, lam: float = 0.0) -> list[np.ndarray]:
        """Per-element operator matrices, in mesh element order.

        ``kind`` is "mass", "laplacian" or "helmholtz" (the latter takes
        the Helmholtz constant ``lam``).  The matrices are built as
        stacked dgemm_batched calls per element batch and handed out as
        the per-element list the condensation and solver layers consume.
        """
        matrix_free.check_kind(kind)
        mats: list[np.ndarray] = [None] * self.nelem  # type: ignore[list-item]
        for b in self.batches():
            stack = self._batch_operator_stack(b, kind, lam)
            for j, ei in enumerate(b.elems):
                mats[int(ei)] = stack[j]
        return mats

    def _dense_batch_mats(self, bi: int, kind: str, lam: float) -> np.ndarray:
        """Operator stack of batch ``bi`` — the matrix-free path's
        fallback for non-tensor-product elements, built once per
        (batch, kind, lam) and cached."""
        key = (bi, kind, round(float(lam), 12))
        mats = self._op_mats.get(key)
        if mats is None:
            mats = self._batch_operator_stack(self.batches()[bi], kind, lam)
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
        sweep (the block-CG path applies whole RHS blocks at once).
        """
        matrix_free.check_kind(kind)
        u = self._coefficients(u, "operator_apply")
        lead = u.shape[:-1]
        out = np.zeros(lead + (self.ndof,))
        for bi, b in enumerate(self.batches()):
            if self.sumfact and b.kind == "quad":
                res = matrix_free.apply_operator_batched(b, u, kind, lam)
            else:
                mats = self._dense_batch_mats(bi, kind, lam)
                res = np.zeros(lead + (b.ng, b.exp.nmodes))
                blas.dgemv_batched(1.0, mats, b.gather(u), 0.0, res)
            b.scatter_add(res, out)
        return out

    def operator_diagonal(self, kind: str, lam: float = 0.0) -> np.ndarray:
        """Assembled operator diagonal (Jacobi preconditioner) without
        assembling: sum-factorised on quad batches, tabulated stacks on
        the rest."""
        matrix_free.check_kind(kind)
        diag = np.zeros(self.ndof)
        for bi, b in enumerate(self.batches()):
            if self.sumfact and b.kind == "quad":
                d = matrix_free.diagonal_operator_batched(b, kind, lam)
            else:
                mats = self._dense_batch_mats(bi, kind, lam)
                d = np.diagonal(mats, axis1=-2, axis2=-1)
            # Signs square to one on the diagonal; pre-multiplying
            # cancels the one scatter_add applies.
            b.scatter_add(b.signs * d, diag)
        return diag

    def assemble(self, elem_mats: list[np.ndarray]) -> sp.csr_matrix:
        """Scatter elemental matrices into the global sparse operator."""
        rows, cols, vals = [], [], []
        for ei, a in enumerate(elem_mats):
            dofs = self.dofmap.elem_dofs[ei]
            signs = self.dofmap.elem_signs[ei]
            sa = (signs[:, None] * a) * signs[None, :]
            n = dofs.size
            rows.append(np.repeat(dofs, n))
            cols.append(np.tile(dofs, n))
            vals.append(sa.ravel())
        m = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.ndof, self.ndof),
        )
        return m.tocsr()

    def eval_at_vertices(self, u_hat: np.ndarray) -> np.ndarray:
        """Field values at mesh vertices (vertex dofs are nodal)."""
        return np.asarray(u_hat, dtype=np.float64)[: self.mesh.nvertices]
