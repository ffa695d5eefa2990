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
:mod:`repro.assembly.boundary` — no interpolation or mass solves
needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..assembly.boundary import EdgeQuadrature, build_edge_quadrature
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
    eq: EdgeQuadrature,
    u_hat: np.ndarray,
    v_hat: np.ndarray,
    p_hat: np.ndarray,
    nu: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise traction on one edge: (tx_p, ty_p, tx_v, ty_v)."""
    dm = space.dofmap
    ei = eq.elem
    u_loc = dm.gather(ei, u_hat)
    v_loc = dm.gather(ei, v_hat)
    p_loc = dm.gather(ei, p_hat)
    p, dudx, dudy, dvdx, dvdy = (np.empty(eq.npts) for _ in range(5))
    blas.dgemv(1.0, eq.phi, p_loc, 0.0, p, trans=True)
    blas.dgemv(1.0, eq.dphi_x, u_loc, 0.0, dudx, trans=True)
    blas.dgemv(1.0, eq.dphi_y, u_loc, 0.0, dudy, trans=True)
    blas.dgemv(1.0, eq.dphi_x, v_loc, 0.0, dvdx, trans=True)
    blas.dgemv(1.0, eq.dphi_y, v_loc, 0.0, dvdy, trans=True)
    # Body-outward normal = -(fluid-outward normal of the edge rule).
    nx, ny = -eq.nx, -eq.ny
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
    edge_quads: list[EdgeQuadrature] | None = None,
) -> BodyForces:
    """Integrate the traction over the tagged boundary."""
    if edge_quads is None:
        edge_quads = build_edge_quadrature(space, space.mesh.boundary_sides(tag))
    pd = pl = vd = vl = 0.0
    for eq in edge_quads:
        tx_p, ty_p, tx_v, ty_v = traction(space, eq, u_hat, v_hat, p_hat, nu)
        pd += eq.integrate(tx_p)
        pl += eq.integrate(ty_p)
        vd += eq.integrate(tx_v)
        vl += eq.integrate(ty_v)
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
    The edge quadrature is cached, so recording is cheap per step —
    rebuild with ``refresh_geometry()`` after ALE mesh motion.
    """

    def __init__(self, solver, tag: str = "wall"):
        self.solver = solver
        self.tag = tag
        self.times: list[float] = []
        self.history: list[BodyForces] = []
        self.refresh_geometry()

    def refresh_geometry(self) -> None:
        self._quads = build_edge_quadrature(
            self.solver.space, self.solver.space.mesh.boundary_sides(self.tag)
        )

    def record(self) -> BodyForces:
        s = self.solver
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
