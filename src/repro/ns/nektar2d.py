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
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from ..assembly.boundary import EdgeBatch
from ..assembly.condensation import CondensedOperator
from ..assembly.space import FunctionSpace
from ..linalg.counters import OpCounter, charge
from ..solvers.helmholtz import HelmholtzDirect
from ..util.timing import StageTimer
from .splitting import stiffly_stable
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
        force: tuple[BCFn, BCFn] | None = None,
    ):
        if nu <= 0.0 or dt <= 0.0:
            raise ValueError("nu and dt must be positive")
        self.force = force
        self.space = space
        self.nu = float(nu)
        self.dt = float(dt)
        self.scheme = stiffly_stable(time_order)
        self.velocity_bcs = dict(velocity_bcs)
        self.vel_tags = tuple(sorted(self.velocity_bcs))

        lam = self.scheme.gamma0 / (self.nu * self.dt)
        self.vel_solver = HelmholtzDirect(space, lam, self.vel_tags)
        if pressure_dirichlet:
            self.p_solver = HelmholtzDirect(space, 0.0, tuple(pressure_dirichlet))
            self._p_pin = None
        else:
            mats = space.elemental_matrices("laplacian")
            pin = int(space.dofmap.boundary_dofs()[0])
            self._p_pin = pin
            self.p_op = CondensedOperator(space, mats, [pin])

        # High-order pressure BC operands on the velocity-Dirichlet boundary.
        self._edges = EdgeBatch(space, self.vel_tags)
        self._startup_solvers: dict[float, HelmholtzDirect] = {}

        self.t = 0.0
        self.step_count = 0
        self.u_hat = np.zeros(space.ndof)
        self.v_hat = np.zeros(space.ndof)
        self.p_hat = np.zeros(space.ndof)
        # Histories, newest first: velocity values, nonlinear terms and
        # vorticity (for the rotational pressure boundary condition).
        self._hist_u: deque = deque(maxlen=self.scheme.order)
        self._hist_n: deque = deque(maxlen=self.scheme.order)
        self._hist_w: deque = deque(maxlen=self.scheme.order)
        self.timer = StageTimer()
        self.stage_ops: dict[str, OpCounter] = {s: OpCounter() for s in STAGES}

    # -- setup -----------------------------------------------------------------

    def set_initial(self, u_fn: BCFn, v_fn: BCFn) -> None:
        """Project the initial velocity (functions of x, y, t=0)."""
        xq, yq = self.space.coords()
        self.u_hat = self.space.forward(u_fn(xq, yq, 0.0) * np.ones_like(xq))
        self.v_hat = self.space.forward(v_fn(xq, yq, 0.0) * np.ones_like(xq))
        self._hist_u.clear()
        self._hist_n.clear()
        self._hist_w.clear()

    # -- timestep ----------------------------------------------------------------

    def step(self) -> None:
        """Advance one timestep through the seven stages."""
        space, dt = self.space, self.dt
        # Startup ramp: use the highest order the history supports.
        order = max(1, min(self.scheme.order, len(self._hist_u) + 1))
        scheme = stiffly_stable(order) if order != self.scheme.order else self.scheme
        lam_eff = scheme.gamma0 / (self.nu * dt)

        # Stage 1: modal -> quadrature transform.
        with StageScope(self, STAGES[0]):
            u_vals = space.backward(self.u_hat)
            v_vals = space.backward(self.v_hat)

        # Stage 2: non-linear terms N = -(V . grad) V at quadrature points.
        with StageScope(self, STAGES[1]):
            dudx, dudy = space.gradient(self.u_hat)
            dvdx, dvdy = space.gradient(self.v_hat)
            nu_term = -(u_vals * dudx + v_vals * dudy)
            nv_term = -(u_vals * dvdx + v_vals * dvdy)
            if self.force is not None:
                xq, yq = space.coords()
                fx, fy = self.force
                nu_term = nu_term + fx(xq, yq, self.t) * np.ones_like(xq)
                nv_term = nv_term + fy(xq, yq, self.t) * np.ones_like(xq)
            omega = dvdx - dudy
            npts = u_vals.size
            charge(9.0 * npts, 9.0 * 24.0 * npts)  # pointwise products/sums

        # Stage 3: weight-average with previous steps (alpha / beta sums).
        with StageScope(self, STAGES[2]):
            hist_u = [(u_vals, v_vals)] + list(self._hist_u)
            hist_n = [(nu_term, nv_term)] + list(self._hist_n)
            uhx = sum(a * h[0] for a, h in zip(scheme.alpha, hist_u))
            uhy = sum(a * h[1] for a, h in zip(scheme.alpha, hist_u))
            uhx = uhx + dt * sum(b * h[0] for b, h in zip(scheme.beta, hist_n))
            uhy = uhy + dt * sum(b * h[1] for b, h in zip(scheme.beta, hist_n))
            npts = uhx.size
            charge((8.0 * order + 4.0) * npts, (8.0 * order + 4.0) * 16.0 * npts)

        # Stage 4: weak pressure-Poisson RHS, (u_hat, grad phi)/dt, plus the
        # high-order rotational pressure BC surface term
        # oint phi [-nu n.(curl omega)_beta - gamma0 (u_b^{n+1}.n)/dt].
        t_new = self.t + dt
        bcs = [self.velocity_bcs[tag] for tag in self.vel_tags]
        with StageScope(self, STAGES[3]):
            rhs_p = space.grad_load_vector(uhx, uhy)
            rhs_p /= dt
            hist_w = [omega] + list(self._hist_w)
            w_extrap = sum(b * h for b, h in zip(scheme.beta, hist_w))
            ubn = self._edges.normal_component(bcs, t_new)
            self._edges.add_pressure_bc(rhs_p, w_extrap, ubn, self.nu, scheme.gamma0 / dt)

        # Stage 5: Poisson solve for the pressure.
        with StageScope(self, STAGES[4]):
            if self._p_pin is None:
                self.p_hat = self.p_solver.solve_rhs(
                    rhs_p, self.p_solver.bc_values(None)
                )
            else:
                self.p_hat = self.p_op.solve(rhs_p, np.zeros(1))

        # Stage 6: project and set up the Helmholtz RHS.
        with StageScope(self, STAGES[5]):
            dpdx, dpdy = space.gradient(self.p_hat)
            ustar = uhx - dt * dpdx
            vstar = uhy - dt * dpdy
            charge(4.0 * ustar.size, 4.0 * 24.0 * ustar.size)
            scale = 1.0 / (self.nu * dt)
            rhs_u = space.load_vector(ustar) * scale
            rhs_v = space.load_vector(vstar) * scale

        # Stage 7: Helmholtz solves for the new velocity.
        with StageScope(self, STAGES[6]):
            solver = self._viscous_solver(lam_eff)
            bc = solver.bc_values_by_tag  # project, solve, project, solve: the old order
            self.u_hat = solver.solve_rhs(rhs_u, bc([b[0] for b in bcs], t_new))
            self.v_hat = solver.solve_rhs(rhs_v, bc([b[1] for b in bcs], t_new))

        self._hist_u.appendleft((u_vals, v_vals))
        self._hist_n.appendleft((nu_term, nv_term))
        self._hist_w.appendleft(omega)
        self.t = t_new
        self.step_count += 1

    def _viscous_solver(self, lam_eff: float) -> HelmholtzDirect:
        """Viscous solver for the effective lambda (startup steps use a
        lower-order gamma0; cache the extra factorisation)."""
        if abs(lam_eff - self.vel_solver.lam) < 1e-12 * max(1.0, lam_eff):
            return self.vel_solver
        key = round(lam_eff, 9)
        if key not in self._startup_solvers:
            self._startup_solvers[key] = HelmholtzDirect(self.space, lam_eff, self.vel_tags)
        return self._startup_solvers[key]

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

    def max_velocity(self) -> float:
        u, v = self.velocity()
        return float(np.sqrt(u * u + v * v).max())

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

    def stage_bytes(self) -> dict[str, float]:
        return {s: c.bytes for s, c in self.stage_ops.items()}
