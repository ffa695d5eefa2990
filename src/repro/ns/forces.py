"""Aerodynamic force diagnostics: traction integrals on tagged walls.

Wake DNS is run for its force signals (the paper's bluff-body and
flapping-wing cases are classic lift/drag studies).  The traction of an
incompressible Newtonian fluid on a boundary with outward normal n is

    t = -p n + nu (grad u + grad u^T) n

(density-normalised), where n is the *body's* outward normal (pointing
into the fluid) — the opposite of the edge quadrature's fluid-outward
normal, so a stagnation front produces positive drag.  The body force
is the traction integral over the wall.  Evaluation uses the element
modal coefficients directly on the edge quadrature of
:mod:`repro.assembly.boundary`, one element kind's sides at a time —
no interpolation or mass solves needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assembly.boundary import build_edge_quadrature
from ..assembly.space import FunctionSpace
from ..linalg import blas

__all__ = ["BodyForces", "traction", "body_forces", "ForceRecorder"]


@dataclass(frozen=True)
class BodyForces:
    """Integrated force (drag = x, lift = y) and its two contributions."""

    drag: float
    lift: float
    pressure_drag: float
    pressure_lift: float
    viscous_drag: float
    viscous_lift: float


def traction(
    space: FunctionSpace,
    group,
    u_hat: np.ndarray,
    v_hat: np.ndarray,
    p_hat: np.ndarray,
    nu: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise traction on one kind group of
    :func:`~repro.assembly.boundary.build_edge_quadrature`:
    (tx_p, ty_p, tx_v, ty_v), each (ns, npts)."""
    b, rows = space.batches()[group.stack], group.rows
    u_loc, v_loc, p_loc = (b.signs[rows] * f[b.dofs[rows]] for f in (u_hat, v_hat, p_hat))
    p, dudx, dudy, dvdx, dvdy = (np.empty(group.jw.shape) for _ in range(5))
    blas.dgemv_batched(1.0, group.phi, p_loc, 0.0, p, trans=True)
    blas.dgemv_batched(1.0, group.dphi_x, u_loc, 0.0, dudx, trans=True)
    blas.dgemv_batched(1.0, group.dphi_y, u_loc, 0.0, dudy, trans=True)
    blas.dgemv_batched(1.0, group.dphi_x, v_loc, 0.0, dvdx, trans=True)
    blas.dgemv_batched(1.0, group.dphi_y, v_loc, 0.0, dvdy, trans=True)
    # Body-outward normal = -(fluid-outward normal of the edge rule).
    nx, ny = -group.nx, -group.ny
    tx_p = -p * nx
    ty_p = -p * ny
    tx_v = nu * (2.0 * dudx * nx + (dudy + dvdx) * ny)
    ty_v = nu * ((dudy + dvdx) * nx + 2.0 * dvdy * ny)
    return tx_p, ty_p, tx_v, ty_v


def body_forces(
    space: FunctionSpace,
    u_hat: np.ndarray,
    v_hat: np.ndarray,
    p_hat: np.ndarray,
    nu: float,
    tag: str = "wall",
    edge_quads: list | None = None,
) -> BodyForces:
    """Integrate the traction over the tagged boundary (``edge_quads``:
    its :func:`~repro.assembly.boundary.build_edge_quadrature` groups,
    when the caller keeps them)."""
    if edge_quads is None:
        edge_quads = build_edge_quadrature(space, space.mesh.boundary_sides(tag))
    totals = np.zeros(4)
    for g in edge_quads:
        t = np.stack(traction(space, g, u_hat, v_hat, p_hat, nu))
        # One ddot per side and component: the (4, ns) integrals.
        totals += blas.ddot_batched(np.broadcast_to(g.jw, t.shape), t).sum(axis=1)
    pd, pl, vd, vl = totals.tolist()
    return BodyForces(
        drag=pd + vd,
        lift=pl + vl,
        pressure_drag=pd,
        pressure_lift=pl,
        viscous_drag=vd,
        viscous_lift=vl,
    )


class ForceRecorder:
    """Per-step force history of an NS solver (vortex-shedding signals).

    Works with any solver exposing ``space``, ``u_hat``, ``v_hat``,
    ``p_hat``, ``nu`` and ``t`` (both the serial and ALE solvers do).
    The edge quadrature is cached for the solver's current space, so
    recording is cheap per step; an ALE solver builds a new space after
    every mesh move, and the next record builds the quadrature anew.
    """

    def __init__(self, solver, tag: str = "wall"):
        self.solver = solver
        self.tag = tag
        self.times: list[float] = []
        self.history: list[BodyForces] = []
        self._space = self._quads = None

    def record(self) -> BodyForces:
        s = self.solver
        if s.space is not self._space:
            self._space = s.space
            self._quads = build_edge_quadrature(s.space, s.space.mesh.boundary_sides(self.tag))
        f = body_forces(
            s.space, s.u_hat, s.v_hat, s.p_hat, s.nu, self.tag, self._quads
        )
        self.times.append(s.t)
        self.history.append(f)
        return f

    def lift_series(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self.times), np.array([f.lift for f in self.history])

    def strouhal(self, diameter: float = 1.0, velocity: float = 1.0) -> float | None:
        """Shedding frequency from lift-signal zero crossings, as
        St = f D / U; None until a full period has been seen."""
        t, lift = self.lift_series()
        if t.size < 8:
            return None
        # A symmetric wake's lift is round-off around zero: its sign
        # changes are noise, not shedding.
        if np.ptp(lift) <= 1e-9 * max(abs(f.drag) for f in self.history):
            return None
        sign = np.sign(lift - lift.mean())
        crossings = t[1:][np.diff(sign) != 0]
        if crossings.size < 3:
            return None
        period = 2.0 * float(np.mean(np.diff(crossings)))
        return diameter / (velocity * period)
