import gc
import weakref

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.machines.catalog import CPUS
from repro.machines.network import NetworkModel
from repro.mesh.generators import rectangle_quads
from repro.ns.nektar2d import NavierStokes2D
from repro.ns.nektar_f import NekTarF
from repro.ns.stages import STAGES
from repro.obs import scoped
from repro.parallel.simmpi import VirtualCluster
from repro.solvers import helmholtz

from .._exact import Kovasznay

NET = NetworkModel("t", latency_us=5, bandwidth=1e9)


def test_zinvariant_matches_serial_2d():
    """A z-invariant flow in NekTar-F must reproduce the serial 2-D
    solver step for step (w stays identically zero)."""
    kv = Kovasznay(40.0)
    mesh = rectangle_quads(2, 2, -0.5, 1.0, -0.5, 0.5)
    P, dt, nsteps = 6, 2e-3, 4

    # Serial reference.
    space2d = FunctionSpace(mesh, P)
    bcs2d = {
        t: (lambda x, y, tt: float(kv.u(x, y)), lambda x, y, tt: float(kv.v(x, y)))
        for t in ("left", "top", "bottom")
    }
    ns2d = NavierStokes2D(space2d, kv.nu, dt, bcs2d, pressure_dirichlet=("right",))
    ns2d.set_initial(lambda x, y, t: kv.u(x, y), lambda x, y, t: kv.v(x, y))
    ns2d.run(nsteps)

    def amp(fn):
        return lambda m, x, y, t: complex(fn(x, y)) if m == 0 else 0.0

    def rank_fn(comm):
        space = FunctionSpace(mesh, P)
        bcs = {
            t: (amp(kv.u), amp(kv.v), lambda m, x, y, tt: 0.0)
            for t in ("left", "top", "bottom")
        }
        nf = NekTarF(
            comm, space, nz=4, nu=kv.nu, dt=dt, velocity_bcs=bcs,
            pressure_dirichlet=("right",),
        )
        nf.set_initial(amp(kv.u), amp(kv.v), lambda m, x, y, t: 0.0)
        nf.run(nsteps)
        u, v, w = nf.velocity_physical()
        return u, v, w, nf.u_hat

    res = VirtualCluster(2, NET).run(rank_fn)
    u3, v3, w3, _ = res[0]
    u2 = space2d.backward(ns2d.u_hat)
    v2 = space2d.backward(ns2d.v_hat)
    for iz in range(4):
        np.testing.assert_allclose(u3[:, :, iz], u2, atol=1e-9)
        np.testing.assert_allclose(v3[:, :, iz], v2, atol=1e-9)
    np.testing.assert_allclose(w3, 0.0, atol=1e-9)


class Beltrami:
    """ABC-type Beltrami flow: curl u = u, exact NS solution decaying
    as exp(-nu t) with p = -|u|^2/2."""

    def __init__(self, nu, a=0.5, b=0.4, c=0.3):
        self.nu, self.a, self.b, self.c = nu, a, b, c

    def g(self, t):
        return np.exp(-self.nu * t)

    def u(self, x, y, z, t):
        return (self.a * np.sin(z) + self.c * np.cos(y)) * self.g(t)

    def v(self, x, y, z, t):
        return (self.b * np.sin(x) + self.a * np.cos(z)) * self.g(t)

    def w(self, x, y, z, t):
        return (self.c * np.sin(y) + self.b * np.cos(x)) * self.g(t)

    # Fourier amplitudes in z (two-sided convention: f = a0 + 2 Re a1 e^{iz}).
    def u_amp(self, m, x, y, t):
        if m == 0:
            return complex(self.c * np.cos(y) * self.g(t))
        if m == 1:
            return complex(0.0, -0.5 * self.a * self.g(t))
        return 0.0

    def v_amp(self, m, x, y, t):
        if m == 0:
            return complex(self.b * np.sin(x) * self.g(t))
        if m == 1:
            return complex(0.5 * self.a * self.g(t), 0.0)
        return 0.0

    def w_amp(self, m, x, y, t):
        if m == 0:
            return complex((self.c * np.sin(y) + self.b * np.cos(x)) * self.g(t))
        return 0.0


def test_beltrami_exact_solution():
    bel = Beltrami(nu=0.1)
    mesh = rectangle_quads(2, 2, 0.0, 2 * np.pi, 0.0, 2 * np.pi)
    P, nz, dt, nsteps = 7, 4, 5e-3, 10
    tags = ("left", "right", "top", "bottom")

    def rank_fn(comm):
        space = FunctionSpace(mesh, P)
        bcs = {t: (bel.u_amp, bel.v_amp, bel.w_amp) for t in tags}
        nf = NekTarF(comm, space, nz=nz, nu=bel.nu, dt=dt, velocity_bcs=bcs)
        nf.set_initial(bel.u_amp, bel.v_amp, bel.w_amp)
        nf.run(nsteps)
        u, v, w = nf.velocity_physical()
        return u, v, w, nf.t, space

    res = VirtualCluster(2, NET).run(rank_fn)
    u, v, w, t_end, space = res[0]
    z = 2 * np.pi * np.arange(nz) / nz
    xq, yq = space.coords()
    err = 0.0
    for iz in range(nz):
        err = max(err, np.abs(u[:, :, iz] - bel.u(xq, yq, z[iz], t_end)).max())
        err = max(err, np.abs(v[:, :, iz] - bel.v(xq, yq, z[iz], t_end)).max())
        err = max(err, np.abs(w[:, :, iz] - bel.w(xq, yq, z[iz], t_end)).max())
    assert err < 5e-4


def test_beltrami_energy_decay():
    bel = Beltrami(nu=0.2)
    mesh = rectangle_quads(2, 2, 0.0, 2 * np.pi, 0.0, 2 * np.pi)
    tags = ("left", "right", "top", "bottom")

    def rank_fn(comm):
        space = FunctionSpace(mesh, 6)
        bcs = {t: (bel.u_amp, bel.v_amp, bel.w_amp) for t in tags}
        nf = NekTarF(comm, space, nz=4, nu=bel.nu, dt=5e-3, velocity_bcs=bcs)
        nf.set_initial(bel.u_amp, bel.v_amp, bel.w_amp)
        e0 = nf.kinetic_energy()
        nf.run(10)
        return e0, nf.kinetic_energy(), nf.t

    res = VirtualCluster(2, NET).run(rank_fn)
    e0, e1, t = res[0]
    assert e1 == pytest.approx(e0 * np.exp(-2 * bel.nu * t), rel=5e-3)


def test_mode_distribution_and_shapes():
    mesh = rectangle_quads(1, 1)

    def rank_fn(comm):
        space = FunctionSpace(mesh, 3)
        nf = NekTarF(comm, space, nz=8, nu=0.1, dt=1e-2, velocity_bcs={})
        return nf.my_modes, nf.u_hat.shape

    res = VirtualCluster(4, NET).run(rank_fn)
    assert [r[0] for r in res] == [[0], [1], [2], [3]]
    for _, shape in res:
        assert shape[0] == 1


def test_more_ranks_than_modes_step_to_the_same_energy():
    # nz = 4 is two Fourier modes: on 3 or 4 ranks some rank holds none,
    # and every transform it makes runs on an empty leading axis.
    bel = Beltrami(nu=0.2)
    mesh = rectangle_quads(2, 2, 0.0, 2 * np.pi, 0.0, 2 * np.pi)
    tags = ("left", "right", "top", "bottom")

    def rank_fn(comm):
        space = FunctionSpace(mesh, 4)
        bcs = {t: (bel.u_amp, bel.v_amp, bel.w_amp) for t in tags}
        nf = NekTarF(comm, space, nz=4, nu=bel.nu, dt=5e-3, velocity_bcs=bcs)
        nf.set_initial(bel.u_amp, bel.v_amp, bel.w_amp)
        nf.run(2)
        return len(nf.my_modes), nf.kinetic_energy()

    energies = {}
    for procs in (1, 2, 3, 4):
        res = VirtualCluster(procs, NET).run(rank_fn)
        assert sum(n for n, _ in res) == 2
        energies[procs] = res[0][1]
    assert 0 in [n for n, _ in res]
    for procs in (2, 3, 4):
        assert energies[procs] == pytest.approx(energies[1], rel=1e-12, abs=0.0)


def test_invalid_parameters():
    mesh = rectangle_quads(1, 1)

    def rank_fn(comm):
        space = FunctionSpace(mesh, 3)
        NekTarF(comm, space, nz=8, nu=-1.0, dt=1e-2, velocity_bcs={})

    with pytest.raises(ValueError):
        VirtualCluster(1, NET).run(rank_fn)


def test_virtual_stage_timings_with_charging():
    bel = Beltrami(nu=0.1)
    mesh = rectangle_quads(1, 1, 0.0, 2 * np.pi, 0.0, 2 * np.pi)
    tags = ("left", "right", "top", "bottom")

    def rank_fn(comm):
        space = FunctionSpace(mesh, 4)
        bcs = {t: (bel.u_amp, bel.v_amp, bel.w_amp) for t in tags}
        nf = NekTarF(
            comm, space, nz=4, nu=bel.nu, dt=5e-3, velocity_bcs=bcs,
            charge_compute=True,
        )
        nf.set_initial(bel.u_amp, bel.v_amp, bel.w_amp)
        nf.run(2)
        return nf.virtual, comm.wall, comm.cpu_time

    cl = VirtualCluster(2, NET, cpu=CPUS["pentium-ii-450"])
    res = cl.run(rank_fn)
    virt, wall, cpu = res[0]
    assert wall > 0 and cpu > 0
    assert wall >= cpu  # wall includes communication waits
    pct = virt.percentages("wall")
    assert set(pct) == set(STAGES)
    # The alltoall-heavy stage 2 must carry communication cost.
    assert virt.records["2:nonlinear"].wall > virt.records["2:nonlinear"].cpu


def test_viscous_cache_holds_the_current_operator_only(monkeypatch):
    """The order-1 startup operator is dropped when the order-2 one is
    built: one viscous operator per local mode stays alive."""
    bel = Beltrami(nu=0.1)
    mesh = rectangle_quads(1, 1, 0.0, 2 * np.pi, 0.0, 2 * np.pi)
    tags = ("left", "right", "top", "bottom")
    real = helmholtz.HelmholtzDirect
    built = []

    def tracked(*args, **kw):
        op = real(*args, **kw)
        built.append(weakref.ref(op))
        return op

    def rank_fn(comm):
        space = FunctionSpace(mesh, 4)
        bcs = {t: (bel.u_amp, bel.v_amp, bel.w_amp) for t in tags}
        nf = NekTarF(comm, space, nz=8, nu=bel.nu, dt=5e-3, velocity_bcs=bcs, time_order=2)
        nf.set_initial(bel.u_amp, bel.v_amp, bel.w_amp)
        monkeypatch.setattr(helmholtz, "HelmholtzDirect", tracked)  # viscous only
        nf.run(3)
        gc.collect()
        return nf.nlocal, sum(ref() is not None for ref in built)

    with scoped() as registry:
        ((nlocal, alive),) = VirtualCluster(1, NET).run(rank_fn)
    snap = registry.snapshot()
    assert nlocal == 4
    assert len(built) == 2 * nlocal
    assert alive == nlocal
    assert snap["visc_cache.misses"]["value"] == 2 * nlocal
    assert snap["visc_cache.hits"]["value"] == nlocal
