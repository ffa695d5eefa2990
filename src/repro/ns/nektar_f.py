"""NekTar-F: Fourier x spectral/hp parallel Navier-Stokes solver.

The paper's Section 4.2.1 algorithm, run on simmpi: one homogeneous
(spanwise) direction is expanded in Fourier modes, distributed one
block of modes per processor; the x-y planes are the 2-D spectral/hp
discretisation.  Per timestep (stages as in Figures 13-14):

1. per-mode modal -> quadrature transforms,
2. non-linear terms: **global exchange (MPI_Alltoall) of the velocity
   components** and their derivatives to the point decomposition,
   Nxy 1-D inverse FFTs, physical-space products, FFTs, **global
   exchange back** — the communication bottleneck the paper identifies,
3. stiffly-stable weight-averaging,
4. per-mode pressure-Poisson RHS (with the high-order rotational
   pressure BC),
5. per-mode direct banded Poisson solves, lambda = k^2,
6. per-mode viscous RHS,
7. per-mode direct Helmholtz solves (3 velocity components),
   lambda = gamma0/(nu dt) + k^2.

Real and imaginary parts share the same factorised matrices, exactly as
the paper notes.  All compute is op-counted and (optionally) charged to
the simulated machine's CPU model, so a run yields Table-2-style
CPU/wall timings plus Figure 13-14 stage breakdowns.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable

import numpy as np

from ..assembly.boundary import EdgeBatch
from ..assembly.condensation import CondensedOperator
from ..assembly.space import FunctionSpace
from ..fourier.pipeline import FusedFourierPipeline
from ..fourier.transforms import ifft_z, mode_blocks, nmodes_for, wavenumbers
from ..linalg.counters import OpCounter
from ..obs import metrics
from ..parallel.simmpi import VirtualComm
from ..solvers.helmholtz import HelmholtzDirect
from ..util.timing import StageTimer
from .splitting import stiffly_stable
from .stages import STAGES, StageScope

__all__ = ["NekTarF"]

# Mode amplitude BC: fn(mode_index, x, y, t) -> complex amplitude.
AmpFn = Callable[[int, float, float, float], complex]


class NekTarF:
    """One rank's share of the Fourier-parallel Navier-Stokes solver."""

    def __init__(
        self,
        comm: VirtualComm,
        space: FunctionSpace,
        nz: int,
        nu: float,
        dt: float,
        velocity_bcs: dict[str, tuple[AmpFn, AmpFn, AmpFn]],
        pressure_dirichlet: tuple[str, ...] = (),
        lz: float = 2.0 * np.pi,
        time_order: int = 2,
        charge_compute: bool = False,
    ):
        if nu <= 0 or dt <= 0:
            raise ValueError("nu and dt must be positive")
        self.comm = comm
        self.space = space
        self.nz = nz
        self.nu = float(nu)
        self.dt = float(dt)
        self.lz = float(lz)
        self.scheme = stiffly_stable(time_order)
        self.charge_compute = charge_compute
        self._pipeline = FusedFourierPipeline()
        self.velocity_bcs = dict(velocity_bcs)
        self.vel_tags = tuple(sorted(velocity_bcs))
        self.pressure_dirichlet = tuple(pressure_dirichlet)

        nm = nmodes_for(nz)
        self.all_k = wavenumbers(nz, lz)
        self.my_modes = list(mode_blocks(nm, comm.size)[comm.rank])
        self.k = self.all_k[self.my_modes]

        # Per-local-mode solvers; real/imag share these factorizations.
        self.p_solvers: list = []
        self._p_pin = None
        for m, k in zip(self.my_modes, self.k):
            lam = float(k * k)
            if self.pressure_dirichlet:
                self.p_solvers.append(
                    HelmholtzDirect(space, lam, self.pressure_dirichlet)
                )
            elif lam > 0.0:
                self.p_solvers.append(HelmholtzDirect(space, lam))
            else:
                mats = space.elemental_matrices("laplacian")
                self._p_pin = int(space.dofmap.boundary_dofs()[0])
                self.p_solvers.append(
                    CondensedOperator(space, mats, [self._p_pin])
                )
        # The current viscous operator of each local mode, keyed by its
        # rounded lambda (the startup step's gamma0 differs).
        self._visc_cache: dict[int, tuple[float, HelmholtzDirect]] = {}

        # Pressure-BC operands and the velocity tags' Dirichlet plan.
        self._edges = EdgeBatch(space, self.vel_tags)
        if self.vel_tags:
            self._bc_plan = space.dirichlet_plan(self.vel_tags)
            self._bc_plan.charge_projection()  # the former zero projection

        # Dirichlet values are cached per (component, local mode), u_b . n
        # at the edge points for all; kept for good when steady (probed).
        self._bc_cache: dict[tuple[int, int], tuple[float | None, np.ndarray]] = {}
        self._ubn: np.ndarray | None = None
        self._bc_steady = self._probe_bc_steady()

        nloc = len(self.my_modes)
        self.u_hat = np.zeros((nloc, space.ndof), dtype=np.complex128)
        self.v_hat = np.zeros_like(self.u_hat)
        self.w_hat = np.zeros_like(self.u_hat)
        self.p_hat = np.zeros_like(self.u_hat)
        self._hist_n: deque = deque(maxlen=self.scheme.order)
        self._hist_u: deque = deque(maxlen=self.scheme.order)
        self._hist_w: deque = deque(maxlen=self.scheme.order)
        self.t = 0.0
        self.step_count = 0
        self.timer = StageTimer()
        self.stage_ops: dict[str, OpCounter] = {s: OpCounter() for s in STAGES}
        self.virtual = StageTimer()  # simulated machine per-stage cpu/wall

    # -- helpers ---------------------------------------------------------------------

    @property
    def nlocal(self) -> int:
        return len(self.my_modes)

    # The complex-field helpers stack real and imaginary parts (and all
    # local Fourier modes) into one leading batch axis, so each helper
    # is a single sweep through the space's batched transforms instead
    # of a Python loop over modes and parts.

    def _backward_c(self, field_hat: np.ndarray) -> np.ndarray:
        """(..., ndof) complex coefficients -> (..., nelem, nq) values."""
        vals = self.space.backward(np.stack([field_hat.real, field_hat.imag]))
        return vals[0] + 1j * vals[1]

    def _gradient_c(self, field_hat: np.ndarray):
        gx, gy = self.space.gradient(np.stack([field_hat.real, field_hat.imag]))
        return gx[0] + 1j * gx[1], gy[0] + 1j * gy[1]

    def _load_c(self, vals: np.ndarray) -> np.ndarray:
        rhs = self.space.load_vector(np.stack([vals.real, vals.imag]))
        return rhs[0] + 1j * rhs[1]

    def _grad_load_c(self, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
        rhs = self.space.grad_load_vector(
            np.stack([fx.real, fx.imag]), np.stack([fy.real, fy.imag])
        )
        return rhs[0] + 1j * rhs[1]

    def set_initial(self, u_amp: AmpFn, v_amp: AmpFn, w_amp: AmpFn) -> None:
        """Project initial modal amplitudes (complex functions of x, y)."""
        xq, yq = self.space.coords()
        for i, m in enumerate(self.my_modes):
            for hat, amp in ((self.u_hat, u_amp), (self.v_hat, v_amp), (self.w_hat, w_amp)):
                vals = np.vectorize(
                    lambda x, y: complex(amp(m, x, y, 0.0)), otypes=[np.complex128]
                )(xq, yq)
                hat[i] = self.space.forward(vals.real) + 1j * self.space.forward(
                    vals.imag
                )
        self._hist_n.clear()
        self._hist_u.clear()
        self._hist_w.clear()

    def _mode_bcs(self, m: int) -> list[tuple]:
        """Per velocity tag, the (u, v, w) amplitudes of mode m as fn(x, y, t)."""
        return [tuple(partial(a, m) for a in self.velocity_bcs[tag]) for tag in self.vel_tags]

    def _probe_bc_steady(self) -> dict[int, bool]:
        """Per-component time-independence of the velocity BC amplitudes,
        probed at every sample point of the Dirichlet plan (vertices and
        edge Gauss points) for the first and last local mode at a few
        times: where nothing moves, the per-step projections are skipped."""
        steady = {c: True for c in range(3)}
        if not self.vel_tags or not self.my_modes:
            return steady
        for m in sorted({self.my_modes[0], self.my_modes[-1]}):
            bcs = self._mode_bcs(m)
            for comp in range(3):
                ref, *later = (
                    self._bc_plan.sample([b[comp] for b in bcs], t, dtype=np.complex128)
                    for t in (0.0, 0.37, 1.91)
                )
                steady[comp] &= all(np.array_equal(ref, g) for g in later)
        return steady

    def _bc_values(self, comp: int, mode_i: int, t: float) -> np.ndarray | None:
        """Dirichlet amplitude coefficients of one component and local mode.

        Cached per (comp, mode): a steady amplitude is projected exactly
        once; an unsteady one is re-projected only when ``t`` changes.
        """
        if not self.vel_tags:
            return None
        hit = self._bc_cache.get((comp, mode_i))
        if hit is not None and (hit[0] is None or hit[0] == t):
            metrics.inc("bc_cache.hits")
            return hit[1]
        metrics.inc("bc_cache.misses")
        fns = [b[comp] for b in self._mode_bcs(self.my_modes[mode_i])]
        out = self._bc_plan.project_by_tag(fns, t, dtype=np.complex128)
        self._bc_cache[(comp, mode_i)] = (
            None if self._bc_steady[comp] else t,
            out,
        )
        return out

    def _wall_normal_velocity(self, t: float) -> np.ndarray:
        """u_b . n of every local mode at the pressure-BC edge points."""
        if self._ubn is None or not (self._bc_steady[0] and self._bc_steady[1]):
            ubn = [
                self._edges.normal_component(self._mode_bcs(m), t, dtype=np.complex128)
                for m in self.my_modes
            ]
            self._ubn = np.reshape(ubn, (self.nlocal,) + self._edges.x.shape)
        return self._ubn

    def _viscous_solver(self, mode_i: int, gamma0: float) -> HelmholtzDirect:
        k = float(self.k[mode_i])
        lam = gamma0 / (self.nu * self.dt) + k * k
        key = round(lam, 9)
        held = self._visc_cache.get(mode_i)
        if held is not None and held[0] == key:
            metrics.inc("visc_cache.hits")
            return held[1]
        metrics.inc("visc_cache.misses")
        # Free the stale operator before its successor is built.
        del held
        self._visc_cache.pop(mode_i, None)
        solver = HelmholtzDirect(self.space, lam, self.vel_tags)
        self._visc_cache[mode_i] = (key, solver)
        return solver

    # -- the timestep ------------------------------------------------------------------

    def step(self) -> None:
        comm, space, dt = self.comm, self.space, self.dt
        # Announce the step boundary to the fault layer (no-op without
        # a FaultPlan): CrashSpec(at_step=k) fires at the top of step k.
        comm.mark_step(self.step_count)
        order = max(1, min(self.scheme.order, len(self._hist_u) + 1))
        scheme = stiffly_stable(order)
        t_new = self.t + dt

        # Stage 1: modal -> quadrature.
        with StageScope(self, STAGES[0]):
            u = self._backward_c(self.u_hat)
            v = self._backward_c(self.v_hat)
            w = self._backward_c(self.w_hat)

        # Stage 2: non-linear terms via the distributed transpose.
        with StageScope(self, STAGES[1]):
            ux, uy = self._gradient_c(self.u_hat)
            vx, vy = self._gradient_c(self.v_hat)
            wx, wy = self._gradient_c(self.w_hat)
            ik = (1j * self.k)[:, None, None]
            uz, vz, wz = ik * u, ik * v, ik * w
            fields = [u, v, w, ux, uy, uz, vx, vy, vz, wx, wy, wz]
            npts = space.nelem * space.nq
            # All 12 forward fields ride ONE Alltoall and the 3 products
            # ONE Alltoall back, via the z-major workspace pipeline.
            phys = self._pipeline.to_physical(
                comm, [f.reshape(self.nlocal, npts) for f in fields], self.nz
            )  # 12 x (nz, mypts)
            pu, pv, pw, pux, puy, puz, pvx, pvy, pvz, pwx, pwy, pwz = phys
            nu_p = -(pu * pux + pv * puy + pw * puz)
            nv_p = -(pu * pvx + pv * pvy + pw * pvz)
            nw_p = -(pu * pwx + pv * pwy + pw * pwz)
            back = self._pipeline.to_modal(
                comm, (nu_p, nv_p, nw_p), npts, self.nz
            )  # (3, my_modes, npoints)
            nu_t, nv_t, nw_t = back.reshape(
                3, self.nlocal, space.nelem, space.nq
            )
            omega_z = vx - uy
            omega_x = wy - vz
            omega_y = uz - wx

        # Stage 3: weight-averaging.
        with StageScope(self, STAGES[2]):
            hist_u = [(u, v, w)] + list(self._hist_u)
            hist_n = [(nu_t, nv_t, nw_t)] + list(self._hist_n)
            uhx = sum(a * h[0] for a, h in zip(scheme.alpha, hist_u))
            uhy = sum(a * h[1] for a, h in zip(scheme.alpha, hist_u))
            uhz = sum(a * h[2] for a, h in zip(scheme.alpha, hist_u))
            uhx = uhx + dt * sum(b * h[0] for b, h in zip(scheme.beta, hist_n))
            uhy = uhy + dt * sum(b * h[1] for b, h in zip(scheme.beta, hist_n))
            uhz = uhz + dt * sum(b * h[2] for b, h in zip(scheme.beta, hist_n))
            hist_w = [(omega_x, omega_y, omega_z)] + list(self._hist_w)
            wx_e = sum(b * h[0] for b, h in zip(scheme.beta, hist_w))
            wy_e = sum(b * h[1] for b, h in zip(scheme.beta, hist_w))
            wz_e = sum(b * h[2] for b, h in zip(scheme.beta, hist_w))

        # Stage 4: pressure RHS + rotational pressure BC
        # oint phi [-nu (n . curl omega)_mode - gamma0 (u_b . n)/dt],
        # all local modes at once.
        with StageScope(self, STAGES[3]):
            ik = (1j * self.k)[:, None]
            rhs_p = self._grad_load_c(uhx, uhy) - ik * self._load_c(uhz)
            rhs_p /= dt
            ubn = self._wall_normal_velocity(t_new)
            self._edges.add_pressure_bc_modes(
                rhs_p, self.k, wx_e, wy_e, wz_e, ubn, self.nu, scheme.gamma0 / dt
            )

        # Stage 5: per-mode Poisson solves — real and imaginary parts
        # share the factorisation, so they are swept as one (2, ndof)
        # RHS block per mode.
        with StageScope(self, STAGES[4]):
            for i in range(self.nlocal):
                self.p_hat[i] = self._solve_pressure_block(i, rhs_p[i])

        # Stage 6: viscous RHS, all local modes at once.
        with StageScope(self, STAGES[5]):
            scale = 1.0 / (self.nu * dt)
            px, py = self._gradient_c(self.p_hat)
            pz = (1j * self.k)[:, None, None] * self._backward_c(self.p_hat)
            rhs_u = self._load_c(uhx - dt * px) * scale
            rhs_v = self._load_c(uhy - dt * py) * scale
            rhs_w = self._load_c(uhz - dt * pz) * scale

        # Stage 7: per-mode Helmholtz solves, three components: all six
        # real solves per mode (3 components x re/im, all sharing the
        # mode's factorisation) go as one (6, ndof) block.
        with StageScope(self, STAGES[6]):
            for i in range(self.nlocal):
                self._solve_viscous_block(
                    i, rhs_u[i], rhs_v[i], rhs_w[i], scheme.gamma0, t_new
                )

        self._hist_u.appendleft((u, v, w))
        self._hist_n.appendleft((nu_t, nv_t, nw_t))
        self._hist_w.appendleft((omega_x, omega_y, omega_z))
        self.t = t_new
        self.step_count += 1

    def _solve_pressure_block(self, i: int, rhs: np.ndarray) -> np.ndarray:
        """Real + imaginary parts as one (2, ndof) multi-RHS sweep."""
        solver = self.p_solvers[i]
        block = np.stack([rhs.real, rhs.imag])
        if isinstance(solver, CondensedOperator):
            out = solver.solve(block, np.zeros(1))
        else:
            out = solver.solve_rhs(block, solver.bc_values(None))
        return out[0] + 1j * out[1]

    def _solve_viscous_block(
        self,
        i: int,
        rhs_u: np.ndarray,
        rhs_v: np.ndarray,
        rhs_w: np.ndarray,
        gamma0: float,
        t_new: float,
    ) -> None:
        """All six real Helmholtz solves of one mode (u, v, w x re/im)
        as a single (6, ndof) multi-RHS sweep through the shared
        factorisation."""
        solver = self._viscous_solver(i, gamma0)
        block = np.stack(
            [
                rhs_u.real,
                rhs_u.imag,
                rhs_v.real,
                rhs_v.imag,
                rhs_w.real,
                rhs_w.imag,
            ]
        )
        bcs = [self._bc_values(comp, i, t_new) for comp in range(3)]
        if bcs[0] is None:
            dv = None
        else:
            dv = np.stack(
                [
                    bcs[0].real,
                    bcs[0].imag,
                    bcs[1].real,
                    bcs[1].imag,
                    bcs[2].real,
                    bcs[2].imag,
                ]
            )
        out = solver.solve_rhs(block, dv)
        self.u_hat[i] = out[0] + 1j * out[1]
        self.v_hat[i] = out[2] + 1j * out[3]
        self.w_hat[i] = out[4] + 1j * out[5]

    def run(
        self,
        nsteps: int,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | None = None,
    ) -> None:
        """Advance ``nsteps`` steps, optionally checkpointing.

        With ``checkpoint_every=k``, each rank writes its state to
        ``checkpoint_dir`` whenever ``step_count`` is a multiple of k
        (see :class:`repro.io.NekTarFCheckpoint`).  Checkpoint I/O is
        host-side and not priced on the virtual clocks.
        """
        if (checkpoint_every is None) != (checkpoint_dir is None):
            raise ValueError(
                "checkpoint_every and checkpoint_dir must be given together"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        for _ in range(nsteps):
            self.step()
            if checkpoint_every and self.step_count % checkpoint_every == 0:
                self.save_checkpoint(checkpoint_dir)

    def save_checkpoint(self, directory: str) -> None:
        """Write this rank's full stepping state (see NekTarFCheckpoint)."""
        from ..io.writers import NekTarFCheckpoint

        NekTarFCheckpoint.save(directory, self)

    def restore_checkpoint(self, directory: str, step: int | None = None) -> int:
        """Restore from the newest complete checkpoint set (or ``step``);
        returns the step restored.  Continuation is bit-for-bit on
        fault-free runs: coefficients and scheme histories both round-trip."""
        from ..io.writers import NekTarFCheckpoint

        return NekTarFCheckpoint.load(directory, self, step)

    # -- diagnostics -----------------------------------------------------------------

    def velocity_physical(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gather all modes (on every rank) and return physical-space
        velocity arrays of shape (nelem, nq, nz)."""
        out = []
        for hat in (self.u_hat, self.v_hat, self.w_hat):
            vals = self._backward_c(hat)  # (nloc, nelem, nq)
            gathered = self.comm.allgather(vals)
            modes = np.concatenate(gathered, axis=0)  # (nmodes, nelem, nq)
            phys = ifft_z(np.moveaxis(modes, 0, -1), self.nz)
            out.append(phys)
        return tuple(out)

    def kinetic_energy(self) -> float:
        u, v, w = self.velocity_physical()
        e = 0.0
        for iz in range(self.nz):
            e += 0.5 * self.space.integrate(
                u[:, :, iz] ** 2 + v[:, :, iz] ** 2 + w[:, :, iz] ** 2
            )
        return e * (self.lz / self.nz)

    def mode_energies(self) -> np.ndarray:
        """Spanwise kinetic-energy spectrum E_m (all modes, every rank).

        Parseval over the two-sided convention: the physical energy is
        E = sum_m E_m with E_0 = (Lz/2) int |u_0|^2 and
        E_m = Lz int |u_m|^2 for m >= 1.
        """
        local = np.zeros(len(self.all_k))
        for i, m in enumerate(self.my_modes):
            for hat in (self.u_hat, self.v_hat, self.w_hat):
                vals = self.space.backward(hat[i].real) + 1j * self.space.backward(
                    hat[i].imag
                )
                e2 = self.space.integrate(np.abs(vals) ** 2)
                local[m] += 0.5 * self.lz * e2 * (1.0 if m == 0 else 2.0)
        return np.asarray(self.comm.allreduce(local, op="sum"))

    def stage_percentages(self, kind: str = "cpu") -> dict[str, float]:
        timer = self.virtual if self.charge_compute else self.timer
        return timer.percentages(kind)

