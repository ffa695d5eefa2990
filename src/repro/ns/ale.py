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

So :class:`ALENavierStokes2D` has no step body of its own: it runs
:meth:`NavierStokes2D.step <repro.ns.nektar2d.NavierStokes2D.step>`
and supplies its hooks —

* the geometry advance before stage 1: the mesh velocity (a Laplace
  PCG solve in ``motion="solve"`` mode) under stage 7's scope, the
  vertex move, space rebuild and quadrature-point mesh velocity w under
  stage 2's; the shared stage 2 subtracts w from the convective
  velocity;
* the PCG solver family: pressure, viscous and mesh
  :class:`~repro.solvers.helmholtz.HelmholtzCG` rebuilt with every
  geometry, their iterations counted in ``cg_iterations`` (an enclosed
  flow's pinned pressure Laplacian is the one condensed operator);
* no pointwise charges in stages 2, 3 and 6.

Two mesh-motion modes:

* ``motion=callable`` — prescribed analytic vertex motion
  (x0, y0, t) -> (x, y); used by the verification tests (free-stream
  preservation, translating-frame accuracy).
* ``motion="solve"`` — the paper's mode: mesh velocity solved from a
  Laplace problem with the body's velocity on the "wall" boundary and
  zero on the outer boundaries, then vertices advected.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..assembly.boundary import EdgeBatch
from ..assembly.space import FunctionSpace
from ..solvers.helmholtz import HelmholtzCG, pressure_operator
from .nektar2d import BCFn, NavierStokes2D
from .stages import STAGES, StageScope

__all__ = ["ALENavierStokes2D"]

MotionFn = Callable[[float, float, float], tuple[float, float]]

#: Relative residual every PCG solve of the step stops at.
CG_TOL = 1e-9


class ALENavierStokes2D(NavierStokes2D):
    """Incompressible NS on a moving mesh, PCG solvers, 7-stage timestep
    of the second-order splitting scheme."""

    _CHARGES_POINTWISE = False

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
        if motion == "solve" and body_velocity is None:
            raise ValueError("motion='solve' needs body_velocity")
        self.mesh = mesh
        self.order = order
        self.motion = motion
        self.body_velocity = body_velocity
        self.outer_tags = tuple(outer_tags)
        self.vertices0 = mesh.vertices.copy()
        self.cg_iterations: dict[str, int] = {"pressure": 0, "viscous": 0, "mesh": 0}
        super().__init__(
            FunctionSpace(mesh, order), nu, dt, velocity_bcs, pressure_dirichlet
        )

    # The shared projection and step, bound in this class too so that a
    # per-class wrapper (a profiler, the e2e tracer) tells ALE calls from
    # serial ones.
    set_initial = NavierStokes2D.set_initial
    step = NavierStokes2D.step

    @property
    def vel_solver(self) -> HelmholtzCG:
        """The current geometry's viscous PCG solver at the scheme's lambda."""
        return self._vel_cg

    # -- geometry ---------------------------------------------------------------

    def _rebuild_space(self) -> None:
        """Recompute all geometry-dependent objects on the current mesh."""
        self._set_space(FunctionSpace(self.mesh, self.order))

    def _set_space(self, space: FunctionSpace) -> None:
        self.space = space
        lam = self.scheme.gamma0 / (self.nu * self.dt)
        self._vel_cg = HelmholtzCG(space, lam, self.vel_tags, tol=CG_TOL)
        if self.pressure_dirichlet:
            self.p_solver = HelmholtzCG(space, 0.0, self.pressure_dirichlet, tol=CG_TOL)
        else:
            # The pinned Laplacian, factored once per geometry.
            self.p_op = pressure_operator(space)
        if self.motion == "solve":
            tags = ("wall",) + self.outer_tags
            self.mesh_solver = HelmholtzCG(space, 0.0, tags, tol=CG_TOL)
        # Pressure-BC machinery on the fresh geometry.
        self._edges = EdgeBatch(space, self.vel_tags)

    def _advance_geometry(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Advance the mesh to t^{n+1} and return the discrete mesh
        velocity of the (grid-riding) quadrature points.  The paper
        charges the mesh-velocity Helmholtz solve to step 7 and the
        vertex updates to step 2."""
        if self.motion is None:
            return None
        old_xq, old_yq = self.space.coords()
        with StageScope(self, STAGES[6]):
            vertex_vel, _, _ = self._mesh_velocity()
        with StageScope(self, STAGES[1]):
            self._move_mesh(vertex_vel)
            new_xq, new_yq = self.space.coords()
            return (new_xq - old_xq) / self.dt, (new_yq - old_yq) / self.dt

    # -- mesh velocity -----------------------------------------------------------

    def _mesh_velocity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mesh velocity at vertices and quadrature points at time t
        (a moving mesh's).

        Returns (vertex_velocities (nv, 2), wx_quad, wy_quad).
        """
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
        return self._cg("mesh", self.mesh_solver, self.space.load_vector(zero), bc)

    def _move_mesh(self, vertex_vel: np.ndarray) -> None:
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

    # -- PCG solves ----------------------------------------------------------------

    def _cg(self, kind: str, solver: HelmholtzCG, rhs: np.ndarray, bc=None) -> np.ndarray:
        """One PCG solve, its iterations counted under ``kind``."""
        x = solver.solve_rhs(rhs, bc)
        self.cg_iterations[kind] += solver.last_iterations
        return x

    def _pressure_solve(self, rhs: np.ndarray) -> np.ndarray:
        if self.pressure_dirichlet:
            return self._cg("pressure", self.p_solver, rhs)
        return super()._pressure_solve(rhs)

    def _viscous_solver(self, lam: float) -> HelmholtzCG:
        """The held solver at the scheme's lambda, else (a start-up step's
        lower order) a throwaway one."""
        held = self.vel_solver
        if abs(lam - held.lam) < 1e-12 * max(1.0, lam):
            return held
        return HelmholtzCG(self.space, lam, self.vel_tags, tol=CG_TOL)

    def _viscous_solve(self, solver, rhs: np.ndarray, bc) -> np.ndarray:
        return self._cg("viscous", solver, rhs, bc)
