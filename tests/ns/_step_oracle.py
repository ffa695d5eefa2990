"""Frozen reference: the two non-Fourier step bodies as they were before
``ALENavierStokes2D`` became a subclass running ``NavierStokes2D``'s
step.

``NavierStokes2D`` is the serial solver with condensed direct solves
and pointwise charges in stages 2, 3 and 6; ``ALENavierStokes2D`` is
the moving-mesh solver with its own seven stage scopes, PCG solvers and
no pointwise charges.  Both are copied verbatim (module docstrings
dropped) and run on today's ``FunctionSpace`` / solver layer, so a
difference from the merged solvers is a difference of the step body.
Test-only; do not import from ``src/``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.assembly.boundary import EdgeBatch
from repro.assembly.space import FunctionSpace
from repro.linalg.counters import OpCounter, charge
from repro.ns.splitting import SplittingHistory
from repro.ns.stages import STAGES, StageScope
from repro.solvers.helmholtz import HelmholtzCG, HelmholtzDirect, ViscousHolder, pressure_operator
from repro.util.timing import StageTimer

BCFn = Callable[[float, float, float], float]
MotionFn = Callable[[float, float, float], tuple[float, float]]

CG_TOL = 1e-9


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
        self.space = space
        self.nu = float(nu)
        self.dt = float(dt)
        self.history = SplittingHistory(time_order)
        self.scheme = self.history.target
        self.velocity_bcs = dict(velocity_bcs)
        self.vel_tags = tuple(sorted(self.velocity_bcs))

        # The viscous solver is built in stage 7 of the step that first
        # needs its lambda; the start-up one is freed first.
        self._viscous = ViscousHolder(space, self.vel_tags)
        self.p_op = pressure_operator(space, tuple(pressure_dirichlet))

        # High-order pressure BC operands on the velocity-Dirichlet boundary.
        self._edges = EdgeBatch(space, self.vel_tags)

        self.t = 0.0
        self.step_count = 0
        self.u_hat = np.zeros(space.ndof)
        self.v_hat = np.zeros(space.ndof)
        self.p_hat = np.zeros(space.ndof)
        self.timer = StageTimer()
        self.stage_ops: dict[str, OpCounter] = {s: OpCounter() for s in STAGES}

    @property
    def vel_solver(self) -> HelmholtzDirect | None:
        """The current viscous solver (``None`` before the first step)."""
        return self._viscous.current

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
        space, dt = self.space, self.dt
        scheme = self.history.scheme()
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
            omega = dvdx - dudy
            npts = u_vals.size
            charge(9.0 * npts, 9.0 * 24.0 * npts)  # pointwise products/sums

        # Stage 3: weight-average with previous steps (alpha / beta sums).
        with StageScope(self, STAGES[2]):
            vel, nl = (u_vals, v_vals), (nu_term, nv_term)
            uhx, uhy = self.history.extrapolate(vel, nl, dt)
            npts = uhx.size
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
            self.p_hat = self.p_op.solve(rhs_p)

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
            solver = self._viscous.solver(lam_eff)
            bc = solver.bc_values_by_tag  # project, solve, project, solve: the old order
            self.u_hat = solver.solve_rhs(rhs_u, bc([b[0] for b in bcs], t_new))
            self.v_hat = solver.solve_rhs(rhs_v, bc([b[1] for b in bcs], t_new))

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


class ALENavierStokes2D:
    """Incompressible NS on a moving mesh, PCG solvers, 7-stage timestep
    of the second-order splitting scheme."""

    def __init__(
        self,
        mesh,
        order: int,
        nu: float,
        dt: float,
        velocity_bcs: dict[str, tuple[BCFn, BCFn]],
        pressure_dirichlet: tuple[str, ...] = (),
        motion: MotionFn | str | None = None,
        body_velocity: tuple[BCFn, BCFn] | None = None,
        outer_tags: tuple[str, ...] = (),
    ):
        if nu <= 0 or dt <= 0:
            raise ValueError("nu and dt must be positive")
        self.mesh = mesh
        self.order = order
        self.nu = float(nu)
        self.dt = float(dt)
        self.history = SplittingHistory(2)
        self.scheme = self.history.target
        self.velocity_bcs = dict(velocity_bcs)
        self.vel_tags = tuple(sorted(velocity_bcs))
        self.pressure_dirichlet = tuple(pressure_dirichlet)
        self.motion = motion
        self.body_velocity = body_velocity
        self.outer_tags = tuple(outer_tags)
        if motion == "solve" and body_velocity is None:
            raise ValueError("motion='solve' needs body_velocity")

        self.vertices0 = mesh.vertices.copy()
        self.t = 0.0
        self.step_count = 0
        self.timer = StageTimer()
        self.stage_ops: dict[str, OpCounter] = {s: OpCounter() for s in STAGES}
        self.cg_iterations: dict[str, int] = {"pressure": 0, "viscous": 0, "mesh": 0}
        self._rebuild_space()
        self.u_hat = np.zeros(self.space.ndof)
        self.v_hat = np.zeros(self.space.ndof)
        self.p_hat = np.zeros(self.space.ndof)

    # -- geometry ---------------------------------------------------------------

    def _rebuild_space(self) -> None:
        """Recompute all geometry-dependent objects on the current mesh."""
        self.space = FunctionSpace(self.mesh, self.order)
        lam = self.scheme.gamma0 / (self.nu * self.dt)
        self.vel_solver = HelmholtzCG(self.space, lam, self.vel_tags, tol=CG_TOL)
        if self.pressure_dirichlet:
            self.p_solver = HelmholtzCG(self.space, 0.0, self.pressure_dirichlet, tol=CG_TOL)
        else:
            # The pinned Laplacian, factored once per geometry.
            self.p_op = pressure_operator(self.space)
        if self.motion == "solve":
            tags = ("wall",) + self.outer_tags
            self.mesh_solver = HelmholtzCG(self.space, 0.0, tags, tol=CG_TOL)
        # Pressure-BC machinery on the fresh geometry.
        self._edges = EdgeBatch(self.space, self.vel_tags)

    def set_initial(self, u_fn: BCFn, v_fn: BCFn) -> None:
        xq, yq = self.space.coords()
        uf = np.vectorize(lambda x, y: float(u_fn(x, y, 0.0)), otypes=[np.float64])
        vf = np.vectorize(lambda x, y: float(v_fn(x, y, 0.0)), otypes=[np.float64])
        self.u_hat, self.v_hat = self.space.forward(np.stack([uf(xq, yq), vf(xq, yq)]))
        self.history.clear()

    # -- mesh velocity -----------------------------------------------------------

    def _mesh_velocity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mesh velocity at vertices and quadrature points at time t.

        Returns (vertex_velocities (nv, 2), wx_quad, wy_quad).
        """
        if self.motion is None:
            nv = self.mesh.nvertices
            zq = np.zeros((self.space.nelem, self.space.nq))
            return np.zeros((nv, 2)), zq, zq
        if callable(self.motion):
            h = 1e-6
            vel = np.empty((self.mesh.nvertices, 2))
            for i, (x0, y0) in enumerate(self.vertices0):
                xp = np.array(self.motion(x0, y0, self.t + h))
                xm = np.array(self.motion(x0, y0, self.t - h))
                vel[i] = (xp - xm) / (2 * h)
            # Quadrature-point mesh velocity: the vertex-mode interpolant
            # of the vertex field (mesh velocity is bilinear per element).
            w_hat = np.zeros((2, self.space.ndof))
            w_hat[:, : self.mesh.nvertices] = vel.T
            wx, wy = self.space.backward(w_hat)
            return vel, wx, wy
        # motion == "solve": Laplace solve with body velocity on the wall.
        wx_hat = self._solve_mesh_component(0)
        wy_hat = self._solve_mesh_component(1)
        vel = np.stack(
            [
                self.space.eval_at_vertices(wx_hat),
                self.space.eval_at_vertices(wy_hat),
            ],
            axis=1,
        )
        return vel, self.space.backward(wx_hat), self.space.backward(wy_hat)

    def _solve_mesh_component(self, comp: int) -> np.ndarray:
        # The body's velocity on the wall, zero on the outer tags.
        fns = [self.body_velocity[comp]] + [lambda x, y, t: 0.0] * len(self.outer_tags)
        bc = self.mesh_solver.bc_values_by_tag(fns, self.t)
        zero = np.zeros((self.space.nelem, self.space.nq))
        w_hat = self.mesh_solver.solve_rhs(self.space.load_vector(zero), bc)
        self.cg_iterations["mesh"] += self.mesh_solver.last_iterations
        return w_hat

    def _move_mesh(self, vertex_vel: np.ndarray) -> None:
        if self.motion is None:
            return
        if callable(self.motion):
            new = np.array(
                [self.motion(x0, y0, self.t + self.dt) for x0, y0 in self.vertices0]
            )
        else:
            new = self.mesh.vertices + self.dt * vertex_vel
        # Field coefficients ride along with the mesh (ALE description).
        self.set_vertices(new)

    def set_vertices(self, vertices: np.ndarray) -> None:
        """Move the mesh to ``vertices`` and rebuild the space, solvers
        and edge batch on it (also how a checkpoint restores geometry)."""
        self.mesh.vertices[:] = vertices
        self._rebuild_space()

    # -- timestep --------------------------------------------------------------------

    def step(self) -> None:
        dt = self.dt
        scheme = self.history.scheme()
        t_new = self.t + dt

        # ALE-specific work first: advance the mesh to t^{n+1} and form
        # the discrete mesh velocity of the (grid-riding) quadrature
        # points.  The paper charges the vertex updates to step 2 and the
        # mesh-velocity Helmholtz solve to step 7.
        if self.motion is not None:
            old_xq, old_yq = self.space.coords()
            with StageScope(self, STAGES[6]):
                vertex_vel, _, _ = self._mesh_velocity()
            with StageScope(self, STAGES[1]):
                self._move_mesh(vertex_vel)
                new_xq, new_yq = self.space.coords()
                wx = (new_xq - old_xq) / dt
                wy = (new_yq - old_yq) / dt
        else:
            wx = wy = 0.0
        space = self.space

        with StageScope(self, STAGES[0]):
            u_vals = space.backward(self.u_hat)
            v_vals = space.backward(self.v_hat)

        with StageScope(self, STAGES[1]):
            dudx, dudy = space.gradient(self.u_hat)
            dvdx, dvdy = space.gradient(self.v_hat)
            cu = u_vals - wx
            cv = v_vals - wy
            nu_term = -(cu * dudx + cv * dudy)
            nv_term = -(cu * dvdx + cv * dvdy)
            omega = dvdx - dudy

        with StageScope(self, STAGES[2]):
            vel, nl = (u_vals, v_vals), (nu_term, nv_term)
            uhx, uhy = self.history.extrapolate(vel, nl, dt)
            (w_extrap,) = self.history.vorticity((omega,))

        with StageScope(self, STAGES[3]):
            rhs_p = space.grad_load_vector(uhx, uhy)
            rhs_p /= dt
            bcs = [self.velocity_bcs[tag] for tag in self.vel_tags]
            ubn = self._edges.normal_component(bcs, t_new)
            self._edges.add_pressure_bc(rhs_p, w_extrap, ubn, self.nu, scheme.gamma0 / dt)

        with StageScope(self, STAGES[4]):
            if self.pressure_dirichlet:
                self.p_hat = self.p_solver.solve_rhs(rhs_p)
                self.cg_iterations["pressure"] += self.p_solver.last_iterations
            else:
                self.p_hat = self.p_op.solve(rhs_p)

        with StageScope(self, STAGES[5]):
            dpdx, dpdy = space.gradient(self.p_hat)
            scale = 1.0 / (self.nu * dt)
            rhs_u = space.load_vector(uhx - dt * dpdx) * scale
            rhs_v = space.load_vector(uhy - dt * dpdy) * scale

        with StageScope(self, STAGES[6]):
            solver = self._viscous_solver(scheme.gamma0)
            bc = solver.bc_values_by_tag
            self.u_hat = solver.solve_rhs(rhs_u, bc([b[0] for b in bcs], t_new))
            self.cg_iterations["viscous"] += solver.last_iterations
            self.v_hat = solver.solve_rhs(rhs_v, bc([b[1] for b in bcs], t_new))
            self.cg_iterations["viscous"] += solver.last_iterations

        self.history.push(vel, nl, (omega,))
        self.t = t_new
        self.step_count += 1

    def _viscous_solver(self, gamma0: float) -> HelmholtzCG:
        lam = gamma0 / (self.nu * self.dt)
        if abs(lam - self.vel_solver.lam) < 1e-12 * max(1.0, lam):
            return self.vel_solver
        return HelmholtzCG(self.space, lam, self.vel_tags, tol=CG_TOL)

    def run(self, nsteps: int) -> None:
        for _ in range(nsteps):
            self.step()

    # -- diagnostics -------------------------------------------------------------

    def velocity(self) -> tuple[np.ndarray, np.ndarray]:
        return self.space.backward(self.u_hat), self.space.backward(self.v_hat)

    def kinetic_energy(self) -> float:
        u, v = self.velocity()
        return 0.5 * self.space.integrate(u * u + v * v)

    def stage_percentages(self, kind: str = "cpu") -> dict[str, float]:
        return self.timer.percentages(kind)
