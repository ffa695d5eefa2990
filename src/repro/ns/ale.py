"""NekTar-ALE analogue: Navier-Stokes on moving meshes (2-D).

Section 4.2.2: the arbitrary Lagrangian-Eulerian version adds, to the
standard splitting timestep, (i) "a term ... in the non-linear step,
associated with the updating of the positions of the vertices of each
element" — the convective velocity becomes (u - w_mesh) — and (ii) "an
extra Helmholtz solve, associated with the calculation of the velocity
of the moving mesh", charged to step 7.  Instead of direct solvers, "a
diagonally preconditioned conjugate gradient iterative solver is
predominantly used": the operators change with the geometry every step,
so there is nothing to factor once.

Two mesh-motion modes:

* ``motion=callable`` — prescribed analytic vertex motion
  (x0, y0, t) -> (x, y); used by the verification tests (free-stream
  preservation, translating-frame accuracy).
* ``motion="solve"`` — the paper's mode: mesh velocity solved from a
  Laplace problem with the body's velocity on the "wall" boundary and
  zero on the outer boundaries, then vertices advected.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

import numpy as np

from ..assembly.boundary import EdgeBatch
from ..assembly.condensation import CondensedOperator
from ..assembly.space import FunctionSpace
from ..linalg.counters import OpCounter
from ..solvers.helmholtz import HelmholtzCG
from ..util.timing import StageTimer
from .splitting import stiffly_stable
from .stages import STAGES, StageScope

__all__ = ["ALENavierStokes2D"]

BCFn = Callable[[float, float, float], float]
MotionFn = Callable[[float, float, float], tuple[float, float]]


class ALENavierStokes2D:
    """Incompressible NS on a moving mesh, PCG solvers, 7-stage timestep."""

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
        wall_tag: str = "wall",
        outer_tags: tuple[str, ...] = (),
        time_order: int = 2,
        cg_tol: float = 1e-9,
        ale_convection: bool = True,
    ):
        if nu <= 0 or dt <= 0:
            raise ValueError("nu and dt must be positive")
        self.mesh = mesh
        self.order = order
        self.nu = float(nu)
        self.dt = float(dt)
        self.scheme = stiffly_stable(time_order)
        self.velocity_bcs = dict(velocity_bcs)
        self.vel_tags = tuple(sorted(velocity_bcs))
        self.pressure_dirichlet = tuple(pressure_dirichlet)
        self.cg_tol = cg_tol
        self.ale_convection = ale_convection
        self.motion = motion
        self.body_velocity = body_velocity
        self.wall_tag = wall_tag
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
        self._hist_u: deque = deque(maxlen=self.scheme.order)
        self._hist_n: deque = deque(maxlen=self.scheme.order)
        self._hist_w: deque = deque(maxlen=self.scheme.order)

    # -- geometry ---------------------------------------------------------------

    def _rebuild_space(self) -> None:
        """Recompute all geometry-dependent objects on the current mesh."""
        self.space = FunctionSpace(self.mesh, self.order)
        lam = self.scheme.gamma0 / (self.nu * self.dt)
        self.vel_solver = HelmholtzCG(self.space, lam, self.vel_tags, tol=self.cg_tol)
        if self.pressure_dirichlet:
            self.p_solver = HelmholtzCG(
                self.space, 0.0, self.pressure_dirichlet, tol=self.cg_tol
            )
            self._p_pin = None
        else:
            # Pin one dof: assemble the Laplacian once per geometry.
            mats = self.space.elemental_matrices("laplacian")
            self._p_pin = int(self.space.dofmap.boundary_dofs()[0])
            self.p_op = CondensedOperator(self.space, mats, [self._p_pin])
        if self.motion == "solve":
            tags = (self.wall_tag,) + self.outer_tags
            self.mesh_solver = HelmholtzCG(self.space, 0.0, tags, tol=self.cg_tol)
        # Pressure-BC machinery on the fresh geometry.
        self._edges = EdgeBatch(self.space, self.vel_tags)

    def set_initial(self, u_fn: BCFn, v_fn: BCFn) -> None:
        xq, yq = self.space.coords()
        uf = np.vectorize(lambda x, y: float(u_fn(x, y, 0.0)), otypes=[np.float64])
        vf = np.vectorize(lambda x, y: float(v_fn(x, y, 0.0)), otypes=[np.float64])
        self.u_hat = self.space.forward(uf(xq, yq))
        self.v_hat = self.space.forward(vf(xq, yq))
        self._hist_u.clear()
        self._hist_n.clear()
        self._hist_w.clear()

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
            # Quadrature-point mesh velocity: interpolate the vertex field
            # through the space (mesh velocity is bilinear per element).
            wx = self._vertex_field_to_quad(vel[:, 0])
            wy = self._vertex_field_to_quad(vel[:, 1])
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

    def _vertex_field_to_quad(self, vvals: np.ndarray) -> np.ndarray:
        """Evaluate the vertex-interpolant of a vertex field at the
        quadrature points (uses only the vertex modes)."""
        u_hat = np.zeros(self.space.ndof)
        u_hat[: self.mesh.nvertices] = vvals
        return self.space.backward(u_hat)

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
        self.mesh.vertices[:] = new
        self._rebuild_space()

    # -- timestep --------------------------------------------------------------------

    def step(self) -> None:
        dt = self.dt
        order = max(1, min(self.scheme.order, len(self._hist_u) + 1))
        scheme = stiffly_stable(order)
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
            cu = u_vals - wx if self.ale_convection else u_vals
            cv = v_vals - wy if self.ale_convection else v_vals
            nu_term = -(cu * dudx + cv * dudy)
            nv_term = -(cu * dvdx + cv * dvdy)
            omega = dvdx - dudy

        with StageScope(self, STAGES[2]):
            hist_u = [(u_vals, v_vals)] + list(self._hist_u)
            hist_n = [(nu_term, nv_term)] + list(self._hist_n)
            uhx = sum(a * h[0] for a, h in zip(scheme.alpha, hist_u))
            uhy = sum(a * h[1] for a, h in zip(scheme.alpha, hist_u))
            uhx = uhx + dt * sum(b * h[0] for b, h in zip(scheme.beta, hist_n))
            uhy = uhy + dt * sum(b * h[1] for b, h in zip(scheme.beta, hist_n))
            hist_w = [omega] + list(self._hist_w)
            w_extrap = sum(b * h for b, h in zip(scheme.beta, hist_w))

        with StageScope(self, STAGES[3]):
            rhs_p = space.grad_load_vector(uhx, uhy)
            rhs_p /= dt
            bcs = [self.velocity_bcs[tag] for tag in self.vel_tags]
            ubn = self._edges.normal_component(bcs, t_new)
            self._edges.add_pressure_bc(rhs_p, w_extrap, ubn, self.nu, scheme.gamma0 / dt)

        with StageScope(self, STAGES[4]):
            if self._p_pin is None:
                self.p_hat = self.p_solver.solve_rhs(
                    rhs_p, np.zeros(self.p_solver.dirichlet_dofs.size)
                )
                self.cg_iterations["pressure"] += self.p_solver.last_iterations
            else:
                self.p_hat = self.p_op.solve(rhs_p, np.zeros(1))

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

        self._hist_u.appendleft((u_vals, v_vals))
        self._hist_n.appendleft((nu_term, nv_term))
        self._hist_w.appendleft(omega)
        self.t = t_new
        self.step_count += 1

    def _viscous_solver(self, gamma0: float) -> HelmholtzCG:
        lam = gamma0 / (self.nu * self.dt)
        if abs(lam - self.vel_solver.lam) < 1e-12 * max(1.0, lam):
            return self.vel_solver
        return HelmholtzCG(self.space, lam, self.vel_tags, tol=self.cg_tol)

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
