"""Serial 2-D incompressible Navier-Stokes solver (the NekTar analogue).

Implements the paper's Section 4 algorithm: spectral/hp element
discretisation in space, stiffly-stable splitting in time, with each
timestep split into the seven instrumented stages of Figure 12:

1. transform modal -> quadrature space,
2. evaluate the non-linear terms in quadrature space,
3. weight-average non-linear terms with previous time-steps,
4. set up the pressure-Poisson right-hand side,
5. direct (banded LAPACK) Poisson solve,
6. set up the viscous Helmholtz right-hand side,
7. direct Helmholtz solves for the velocity components.

Each stage is timed (CPU + wall) and op-counted, so a run yields both
the Figure 12 percentage breakdown and the flop/byte totals that the
machine models price into Table 1.

:meth:`NavierStokes2D.step` is the one non-Fourier step body:
NekTar-ALE (:mod:`repro.ns.ale`) is a subclass that runs it on a moving
geometry through the hooks marked below (geometry advance, solver
family, pointwise charges).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..assembly.boundary import EdgeBatch
from ..assembly.space import FunctionSpace
from ..linalg.counters import OpCounter, charge
from ..solvers.helmholtz import HelmholtzCG, HelmholtzDirect, ViscousHolder, pressure_operator
from ..util.timing import StageTimer
from .splitting import SplittingHistory
from .stages import STAGES, StageScope

__all__ = ["NavierStokes2D"]

BCFn = Callable[[float, float, float], float]  # (x, y, t) -> value


class NavierStokes2D:
    """Incompressible NS on a FunctionSpace with the 7-stage timestep.

    Parameters
    ----------
    space:
        Velocity/pressure function space (equal order, P_N - P_N).
    nu:
        Kinematic viscosity.
    dt:
        Timestep.
    velocity_bcs:
        tag -> (u_fn, v_fn) Dirichlet velocity parts; every untagged
        boundary side gets the natural (zero-flux Neumann) condition the
        paper uses at the outflow and the domain sides.
    pressure_dirichlet:
        Tags where p = 0 is imposed (the outflow).  If empty, the
        pressure is pinned at one dof (enclosed-flow case).
    time_order:
        Order of the stiffly-stable scheme (1-3; the paper uses 2).
    """

    def __init__(
        self,
        space: FunctionSpace,
        nu: float,
        dt: float,
        velocity_bcs: dict[str, tuple[BCFn, BCFn]],
        pressure_dirichlet: tuple[str, ...] = (),
        time_order: int = 2,
    ):
        if nu <= 0.0 or dt <= 0.0:
            raise ValueError("nu and dt must be positive")
        self.nu = float(nu)
        self.dt = float(dt)
        self.history = SplittingHistory(time_order)
        self.scheme = self.history.target
        self.velocity_bcs = dict(velocity_bcs)
        self.vel_tags = tuple(sorted(self.velocity_bcs))
        self.pressure_dirichlet = tuple(pressure_dirichlet)

        self.t = 0.0
        self.step_count = 0
        self.timer = StageTimer()
        self.stage_ops: dict[str, OpCounter] = {s: OpCounter() for s in STAGES}
        self._set_space(space)
        self.u_hat = np.zeros(space.ndof)
        self.v_hat = np.zeros(space.ndof)
        self.p_hat = np.zeros(space.ndof)

    @property
    def vel_solver(self) -> HelmholtzDirect | HelmholtzCG | None:
        """The current viscous solver (``None`` before the first step;
        ALE's PCG family holds one per geometry)."""
        return self._viscous.current

    # -- hooks (ALENavierStokes2D replaces each) --------------------------------

    #: Stages 2, 3 and 6 charge their pointwise arithmetic.
    _CHARGES_POINTWISE = True

    def _set_space(self, space: FunctionSpace) -> None:
        """Hold ``space`` and build the solvers on it.  The viscous
        solver is built in stage 7 of the step that first needs its
        lambda (the start-up one is freed first); the pressure operator
        is condensed and factored here."""
        self.space = space
        self._viscous = ViscousHolder(space, self.vel_tags)
        self.p_op = pressure_operator(space, self.pressure_dirichlet)
        # High-order pressure BC operands on the velocity-Dirichlet boundary.
        self._edges = EdgeBatch(space, self.vel_tags)

    def _advance_geometry(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Move the geometry to t + dt (before stage 1) and return the
        mesh velocity at the quadrature points; a fixed mesh returns
        ``None``."""
        return None

    def _pressure_solve(self, rhs: np.ndarray) -> np.ndarray:
        return self.p_op.solve(rhs)

    def _viscous_solver(self, lam: float) -> HelmholtzDirect | HelmholtzCG:
        return self._viscous.solver(lam)

    def _viscous_solve(self, solver, rhs: np.ndarray, bc) -> np.ndarray:
        return solver.solve_rhs(rhs, bc)

    # -- setup -----------------------------------------------------------------

    def set_initial(self, u_fn: BCFn, v_fn: BCFn) -> None:
        """Project the initial velocity (functions of x, y, t=0)."""
        xq, yq = self.space.coords()
        ones = np.ones_like(xq)
        self.u_hat, self.v_hat = self.space.forward(
            np.stack([u_fn(xq, yq, 0.0) * ones, v_fn(xq, yq, 0.0) * ones])
        )
        self.history.clear()

    # -- timestep ----------------------------------------------------------------

    def step(self) -> None:
        """Advance one timestep through the seven stages."""
        scheme = self.history.scheme()
        lam_eff = scheme.gamma0 / (self.nu * self.dt)
        w = self._advance_geometry()
        space, dt = self.space, self.dt
        pointwise = self._CHARGES_POINTWISE

        # Stage 1: modal -> quadrature transform.
        with StageScope(self, STAGES[0]):
            u_vals = space.backward(self.u_hat)
            v_vals = space.backward(self.v_hat)

        # Stage 2: non-linear terms N = -((V - w) . grad) V at quadrature
        # points, w the mesh velocity (zero on a fixed mesh).
        with StageScope(self, STAGES[1]):
            dudx, dudy = space.gradient(self.u_hat)
            dvdx, dvdy = space.gradient(self.v_hat)
            cu, cv = (u_vals, v_vals) if w is None else (u_vals - w[0], v_vals - w[1])
            nu_term = -(cu * dudx + cv * dudy)
            nv_term = -(cu * dvdx + cv * dvdy)
            omega = dvdx - dudy
            npts = u_vals.size
            if pointwise:
                charge(9.0 * npts, 9.0 * 24.0 * npts)  # pointwise products/sums

        # Stage 3: weight-average with previous steps (alpha / beta sums).
        with StageScope(self, STAGES[2]):
            vel, nl = (u_vals, v_vals), (nu_term, nv_term)
            uhx, uhy = self.history.extrapolate(vel, nl, dt)
            if pointwise:
                k = scheme.order
                charge((8.0 * k + 4.0) * npts, (8.0 * k + 4.0) * 16.0 * npts)

        # Stage 4: weak pressure-Poisson RHS, (u_hat, grad phi)/dt, plus the
        # high-order rotational pressure BC surface term
        # oint phi [-nu n.(curl omega)_beta - gamma0 (u_b^{n+1}.n)/dt].
        t_new = self.t + dt
        bcs = [self.velocity_bcs[tag] for tag in self.vel_tags]
        with StageScope(self, STAGES[3]):
            rhs_p = space.grad_load_vector(uhx, uhy)
            rhs_p /= dt
            (w_extrap,) = self.history.vorticity((omega,))
            ubn = self._edges.normal_component(bcs, t_new)
            self._edges.add_pressure_bc(rhs_p, w_extrap, ubn, self.nu, scheme.gamma0 / dt)

        # Stage 5: Poisson solve for the pressure.
        with StageScope(self, STAGES[4]):
            self.p_hat = self._pressure_solve(rhs_p)

        # Stage 6: project and set up the Helmholtz RHS.
        with StageScope(self, STAGES[5]):
            dpdx, dpdy = space.gradient(self.p_hat)
            ustar = uhx - dt * dpdx
            vstar = uhy - dt * dpdy
            if pointwise:
                charge(4.0 * npts, 4.0 * 24.0 * npts)
            scale = 1.0 / (self.nu * dt)
            rhs_u = space.load_vector(ustar) * scale
            rhs_v = space.load_vector(vstar) * scale

        # Stage 7: Helmholtz solves for the new velocity.
        with StageScope(self, STAGES[6]):
            solver = self._viscous_solver(lam_eff)
            bc = solver.bc_values_by_tag  # project, solve, project, solve: the old order
            self.u_hat = self._viscous_solve(solver, rhs_u, bc([b[0] for b in bcs], t_new))
            self.v_hat = self._viscous_solve(solver, rhs_v, bc([b[1] for b in bcs], t_new))

        self.history.push(vel, nl, (omega,))
        self.t = t_new
        self.step_count += 1

    def run(self, nsteps: int) -> None:
        for _ in range(nsteps):
            self.step()

    # -- diagnostics ------------------------------------------------------------

    def velocity(self) -> tuple[np.ndarray, np.ndarray]:
        """Velocity values at the quadrature points."""
        return self.space.backward(self.u_hat), self.space.backward(self.v_hat)

    def kinetic_energy(self) -> float:
        u, v = self.velocity()
        return 0.5 * self.space.integrate(u * u + v * v)

    def divergence_norm(self) -> float:
        dudx, _ = self.space.gradient(self.u_hat)
        _, dvdy = self.space.gradient(self.v_hat)
        return self.space.norm_l2(dudx + dvdy)

    def stage_percentages(self, kind: str = "cpu") -> dict[str, float]:
        """Figure-12-style per-stage share of the time loop."""
        return self.timer.percentages(kind)

    def reset_instrumentation(self) -> None:
        """Clear timers and op counters (call after warm-up steps so
        one-time factorisations don't pollute per-step costs)."""
        self.timer.reset()
        self.stage_ops = {s: OpCounter() for s in STAGES}

    def stage_flops(self) -> dict[str, float]:
        return {s: c.flops for s, c in self.stage_ops.items()}
