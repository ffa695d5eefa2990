"""3-D Taylor–Green through NekTar-F against shenfun's kinetic energy.

The first check of the Fourier solver against a number this repository
did not produce: shenfun's Taylor–Green demo reports the volume-averaged
kinetic energy ``k = 0.124953117517`` at ``t = 0.1`` for
``nu = 0.000625`` on the ``(2π)³`` box.  It drives the z-derivatives
and the Alltoall non-linear step, which the Beltrami tests (a solution
written here) and the z-invariant check (our own 2-D solver) cannot
vouch for.

Set-up: 2 × 2 quads of order 8, periodic in x and y, 8 Fourier planes
on 2 ranks, initial velocity (sin x cos y cos z, −cos x sin y cos z, 0),
i.e. mode-1 amplitudes (½ sin x cos y, −½ cos x sin y, 0) in the
two-sided convention of the Beltrami test.  The spatial error is far
below the temporal one (order 6 against 8 moves k by ~5e-9, 16 planes
against 8 by ~1e-11), so the error against shenfun is the time
integrator's.

Bounds, fixed before the runs:

* order 2: fitted slope 2.00 ± 0.05 over Δt = 0.01, 0.005, 0.0025, and
  the Richardson value within 1e-9 of shenfun's number (shenfun itself
  asserts 7 decimals);
* order 1: fitted slope 1.00 ± 0.05;
* order 3, pinned *as measured*: slope 2, error about 15 % below order
  2's.  Its first step is first order like order 2's (a cold start),
  and that step dominates — ROADMAP item 3 ("A cold start that keeps
  the scheme's order") is the fix this pin records the need for.
"""

import functools

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.machines.network import NetworkModel
from repro.mesh.generators import rectangle_quads
from repro.ns.nektar_f import NekTarF
from repro.parallel.simmpi import VirtualCluster

NET = NetworkModel("t", latency_us=5, bandwidth=1e9)
K_SHENFUN = 0.124953117517
NU, T_END = 0.000625, 0.1
DTS = (0.01, 0.005, 0.0025)
MESH = rectangle_quads(2, 2, 0.0, 2 * np.pi, 0.0, 2 * np.pi)


def _u(m, x, y, t):
    return complex(0.5 * np.sin(x) * np.cos(y)) if m == 1 else 0.0


def _v(m, x, y, t):
    return complex(-0.5 * np.cos(x) * np.sin(y)) if m == 1 else 0.0


def _w(m, x, y, t):
    return 0.0


@functools.cache
def energy(dt: float, order: int) -> float:
    """Volume-averaged kinetic energy at ``T_END``."""

    def rank_fn(comm):
        space = FunctionSpace(MESH, 8, periodic=[("left", "right"), ("bottom", "top")])
        nf = NekTarF(comm, space, nz=8, nu=NU, dt=dt, velocity_bcs={}, time_order=order)
        nf.set_initial(_u, _v, _w)
        nf.run(round(T_END / dt))
        assert nf.t == pytest.approx(T_END, rel=1e-12)
        return nf.kinetic_energy() / (2 * np.pi) ** 3

    return VirtualCluster(2, NET).run(rank_fn)[0]


def errors(order: int) -> np.ndarray:
    return np.array([energy(dt, order) - K_SHENFUN for dt in DTS])


def slope(err: np.ndarray) -> float:
    return float(np.polyfit(np.log(DTS), np.log(np.abs(err)), 1)[0])


def test_order2_converges_to_shenfun_at_second_order():
    err = errors(2)
    assert slope(err) == pytest.approx(2.0, abs=0.05)
    k_mid, k_fine = energy(DTS[1], 2), energy(DTS[2], 2)
    richardson = (4.0 * k_fine - k_mid) / 3.0
    assert abs(richardson - K_SHENFUN) < 1e-9


def test_order1_converges_at_first_order():
    assert slope(errors(1)) == pytest.approx(1.0, abs=0.05)


def test_order3_is_second_order_from_a_cold_start():
    """As measured, not as designed: see ROADMAP item 3."""
    err3, err2 = errors(3), errors(2)
    assert slope(err3) == pytest.approx(2.0, abs=0.05)
    np.testing.assert_allclose(err3 / err2, 0.85, atol=0.02)
