import gc
import weakref

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.mesh.generators import rectangle_quads
from repro.ns.nektar2d import NavierStokes2D
from repro.ns.stages import STAGES
from repro.obs import scoped

from .._exact import Kovasznay, TaylorVortex


def kovasznay_solver(P=7, dt=2e-3, outflow=True):
    """Kovasznay's domain and data.  With ``outflow`` the right side is
    a natural outflow with p = 0 there, which Kovasznay flow does not
    satisfy (du/dx != 0 at x = 1): the solver relaxes to a steady state
    of its own, ~1e-3 away in L2.  Without it the velocity is Dirichlet
    on all four sides and the pressure pinned, the set-up of
    ``test_kovasznay.py``, where Kovasznay flow is the discrete steady
    state to the spatial error."""
    kv = Kovasznay(40.0)
    mesh = rectangle_quads(2, 2, -0.5, 1.0, -0.5, 0.5)
    space = FunctionSpace(mesh, P)
    bc_u = lambda x, y, t: float(kv.u(x, y))  # noqa: E731
    bc_v = lambda x, y, t: float(kv.v(x, y))  # noqa: E731
    tags = ("left", "top", "bottom") if outflow else ("left", "right", "top", "bottom")
    bcs = {t: (bc_u, bc_v) for t in tags}
    ns = NavierStokes2D(
        space, kv.nu, dt, bcs, pressure_dirichlet=("right",) if outflow else (), time_order=2
    )
    ns.set_initial(lambda x, y, t: kv.u(x, y), lambda x, y, t: kv.v(x, y))
    return ns, kv, space


def taylor_solver(P, dt, nu=0.05, time_order=2):
    tv = TaylorVortex(nu=nu)
    mesh = rectangle_quads(2, 2, 0.0, np.pi, 0.0, np.pi)
    space = FunctionSpace(mesh, P)
    bc_u = lambda x, y, t: float(tv.u(x, y, t))  # noqa: E731
    bc_v = lambda x, y, t: float(tv.v(x, y, t))  # noqa: E731
    bcs = {t: (bc_u, bc_v) for t in ("left", "right", "top", "bottom")}
    ns = NavierStokes2D(space, nu, dt, bcs, time_order=time_order)
    ns.set_initial(lambda x, y, t: tv.u(x, y, 0.0), lambda x, y, t: tv.v(x, y, 0.0))
    return ns, tv, space


def test_invalid_parameters():
    space = FunctionSpace(rectangle_quads(1, 1), 3)
    with pytest.raises(ValueError):
        NavierStokes2D(space, -1.0, 0.01, {})
    with pytest.raises(ValueError):
        NavierStokes2D(space, 0.01, 0.0, {})


def test_kovasznay_stays_on_exact_solution():
    # Initialised at the exact steady solution, the solver must stay
    # there: with Dirichlet velocity on every side it is the discrete
    # steady state, up to the P = 7 spatial error (3.8e-7 in u, 9.2e-7
    # in v after 20 steps).
    ns, kv, space = kovasznay_solver(P=7, dt=2e-3, outflow=False)
    xq, yq = space.coords()
    ns.run(20)
    u, v = ns.velocity()
    err_u = space.norm_l2(u - kv.u(xq, yq))
    err_v = space.norm_l2(v - kv.v(xq, yq))
    assert err_u < 1e-5
    assert err_v < 1e-5


def test_kovasznay_convergence_from_perturbed_state():
    ns, kv, space = kovasznay_solver(P=6, dt=2e-3, outflow=False)
    xq, yq = space.coords()
    # Perturb the initial state; the flow should relax back to Kovasznay,
    # its discrete steady state.
    ns.set_initial(
        lambda x, y, t: kv.u(x, y) + 0.05 * np.sin(np.pi * y),
        lambda x, y, t: kv.v(x, y),
    )
    ns.run(5)
    u, _ = ns.velocity()
    err0 = space.norm_l2(u - kv.u(xq, yq))
    ns.run(160)
    u, _ = ns.velocity()
    err1 = space.norm_l2(u - kv.u(xq, yq))
    # Perturbations wash out on the advective timescale (~1.5 time units);
    # after 0.32 units the error must have decayed measurably.
    assert err1 < 0.75 * err0


def test_divergence_small_after_projection():
    ns, _, _ = kovasznay_solver(P=6, dt=2e-3)
    ns.run(5)
    assert ns.divergence_norm() < 1e-2
    # and compared to the velocity scale
    u, v = ns.velocity()
    assert ns.divergence_norm() < 0.01 * np.sqrt(u * u + v * v).max()


def test_taylor_vortex_energy_decay():
    ns, tv, space = taylor_solver(P=8, dt=2.5e-3)
    e0 = ns.kinetic_energy()
    ns.run(40)  # t = 0.1
    e1 = ns.kinetic_energy()
    expect = e0 * np.exp(-4.0 * tv.nu * 0.1)
    assert e1 == pytest.approx(expect, rel=2e-3)


def test_taylor_vortex_second_order_in_time():
    errs = {}
    for dt in (4e-3, 2e-3, 1e-3):
        ns, tv, space = taylor_solver(P=9, dt=dt)
        nsteps = round(0.08 / dt)
        ns.run(nsteps)
        xq, yq = space.coords()
        u, _ = ns.velocity()
        errs[dt] = space.norm_l2(u - tv.u(xq, yq, ns.t))
    r1 = errs[4e-3] / errs[2e-3]
    r2 = errs[2e-3] / errs[1e-3]
    # Second order: halving dt should shrink error ~4x (allow 2.5+).
    assert r1 > 2.5
    assert r2 > 2.2


def test_first_order_scheme_less_accurate():
    e = {}
    for order in (1, 2):
        ns, tv, space = taylor_solver(P=8, dt=4e-3, time_order=order)
        ns.run(25)
        xq, yq = space.coords()
        u, _ = ns.velocity()
        e[order] = space.norm_l2(u - tv.u(xq, yq, ns.t))
    assert e[2] < e[1] / 3


def test_stage_instrumentation():
    ns, _, _ = kovasznay_solver(P=5, dt=2e-3)
    ns.run(3)
    pct = ns.stage_percentages("cpu")
    assert set(pct) == set(STAGES)
    assert sum(pct.values()) == pytest.approx(100.0)
    flops = ns.stage_flops()
    # Solve stages do real work; transform stage does dgemv flops.
    assert flops["5:pressure-solve"] > 0
    assert flops["7:viscous-solve"] > 0
    assert flops["1:transform"] > 0


def test_pressure_pin_path():
    # All-Dirichlet velocity boundaries with no pressure tag uses the pin.
    ns, tv, _ = taylor_solver(P=5, dt=2e-3)
    assert ns.p_op.dirichlet.size == 1
    ns.run(2)
    assert np.isfinite(ns.p_hat).all()


def test_one_viscous_operator_after_the_startup_ramp():
    """The order-1 start-up solver is freed before the order-2 one is
    built in step 2, and neither exists before the first step."""
    ns, _, _ = kovasznay_solver(P=4)
    assert ns.vel_solver is None
    with scoped() as registry:
        ns.step()
        first = weakref.ref(ns.vel_solver)
        ns.run(2)
        gc.collect()
    assert first() is None
    assert ns.vel_solver.lam == pytest.approx(ns.scheme.gamma0 / (ns.nu * ns.dt))
    snap = registry.snapshot()
    assert snap["visc_cache.misses"]["value"] == 2
    assert snap["visc_cache.hits"]["value"] == 1


def test_step_counter_and_time():
    ns, _, _ = kovasznay_solver(P=5, dt=1e-3)
    ns.run(4)
    assert ns.step_count == 4
    assert ns.t == pytest.approx(4e-3)
