"""Pieces of a global direct solve shared by its operators.

"The Poisson and Helmholtz-type equations are solved using direct
solves, considering the banded and symmetric nature of the Laplacian
matrices" (Section 4).  Every such solve in a run is statically
condensed (:class:`~repro.assembly.condensation.CondensedOperator`):
:func:`rcm_band` reorders its boundary Schur complement with reverse
Cuthill-McKee into the band the Cholesky substrate factors, and
:func:`dirichlet_block` shapes the prescribed values of a solve.

:func:`project_dirichlet` turns a boundary function into modal edge
coefficients (exact for polynomial traces) so inhomogeneous BCs work at
any order.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = ["project_dirichlet"]


def rcm_band(a) -> tuple[np.ndarray, np.ndarray]:
    """Reverse Cuthill-McKee order ``perm`` of symmetric CSR ``a`` and the
    permuted upper band ``ab``, Fortran-ordered so that ``from_banded``
    factors it in place; the permuted copy dies here."""
    perm = np.asarray(reverse_cuthill_mckee(a, symmetric_mode=True))
    p = a[np.ix_(perm, perm)].tocoo()  # canonical: no duplicates to sum
    kd = int(np.abs(p.row - p.col).max()) if p.nnz else 0
    ab = np.zeros((kd + 1, a.shape[0]), order="F")
    up = p.row <= p.col
    ab[kd + p.row[up] - p.col[up], p.col[up]] = p.data[up]
    return perm, ab


def dirichlet_block(values: np.ndarray | None, nrhs: int, nd: int) -> np.ndarray:
    """Prescribed values as one (nrhs, nd) row per RHS: ``None`` is zero
    and a single (nd,) vector is shared by every row."""
    if values is None:
        return np.zeros((nrhs, nd))
    dv = np.asarray(values, dtype=np.float64)
    if dv.shape == (nd,):
        dv = np.broadcast_to(dv, (nrhs, nd))
    if dv.shape != (nrhs, nd):
        raise ValueError("dirichlet_values shape mismatch")
    return dv


def project_dirichlet(space, tags, fn):
    """Modal boundary coefficients for u = fn(x, y) on the tagged sides.

    Returns (dofs, values): the sorted global Dirichlet dofs and the
    matching prescribed coefficients.  One-shot form of the space's
    cached :class:`~repro.assembly.boundary.DirichletPlan`.
    """
    plan = space.dirichlet_plan(tags)
    return plan.dofs, plan.project(fn)
