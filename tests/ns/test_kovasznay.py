"""Kovasznay flow to spectral accuracy in all three NekTar analogues.

Kovasznay (1948) is the analytic steady solution Karniadakis, Israeli &
Orszag (JCP 1991) validated this splitting scheme with.  Exact Dirichlet
velocity on all four sides and a pinned pressure make it the discrete
steady state too, so the error decays exponentially in the order P: the
high-order pressure boundary condition, the Dirichlet plans and the
pinned pressure operator face a number none of our code produced.

Set-up: ``rectangle_quads(2, 2, -0.5, 1.0, -0.5, 0.5)``, ``Kovasznay(40)``,
started from the exact field (through the stacked L2 projection) and run
25 steps of dt = 4e-3; e = sqrt(|u - u_K|^2 + |v - v_K|^2) in L2.

Bounds, fixed before the run:

* ``NavierStokes2D``: d ln e / dP over P = 4..12 is -2.45 +- 0.1, and
  e(12) < 1e-10;
* ``NekTarF`` (nz = 4, two ranks, the flow in mode 0) matches its e to
  1e-3 relative at P = 6 and 8 and keeps w = 0;
* ``ALENavierStokes2D`` (no motion) matches its e to 1e-3 relative at
  P = 6 and 8.  At P = 10 its PCG solves, converged to the absolute
  ``ale.CG_TOL``, floor the error at 1.53e-8 against 3.51e-9: pinned as
  measured, so a tolerance fix shows here.
"""

import functools

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.machines.network import NetworkModel
from repro.mesh.generators import rectangle_quads
from repro.ns import ale
from repro.ns.nektar2d import NavierStokes2D
from repro.ns.nektar_f import NekTarF
from repro.parallel.simmpi import VirtualCluster

from .._exact import Kovasznay

KV = Kovasznay(40.0)
TAGS = ("left", "right", "top", "bottom")
DT, STEPS = 4e-3, 25
ORDERS = (4, 6, 8, 10, 12)


def mesh():
    return rectangle_quads(2, 2, -0.5, 1.0, -0.5, 0.5)


def exact(fn):
    return lambda x, y, t: fn(x, y)


def error(space, u, v) -> float:
    xq, yq = space.coords()
    return float(np.hypot(space.norm_l2(u - KV.u(xq, yq)), space.norm_l2(v - KV.v(xq, yq))))


@functools.cache
def ns2d_error(order: int) -> float:
    space = FunctionSpace(mesh(), order)
    bc = (lambda x, y, t: float(KV.u(x, y)), lambda x, y, t: float(KV.v(x, y)))
    ns = NavierStokes2D(space, KV.nu, DT, {t: bc for t in TAGS})
    ns.set_initial(exact(KV.u), exact(KV.v))
    ns.run(STEPS)
    return error(space, *ns.velocity())


def ale_error(order: int) -> float:
    bc = (lambda x, y, t: float(KV.u(x, y)), lambda x, y, t: float(KV.v(x, y)))
    ns = ale.ALENavierStokes2D(mesh(), order, KV.nu, DT, {t: bc for t in TAGS})
    ns.set_initial(exact(KV.u), exact(KV.v))
    ns.run(STEPS)
    return error(ns.space, *ns.velocity())


def test_navier_stokes_2d_converges_spectrally():
    errors = [ns2d_error(p) for p in ORDERS]
    slope = np.polyfit(ORDERS, np.log(errors), 1)[0]
    assert -2.55 < slope < -2.35, errors
    assert errors[-1] < 1e-10


def test_nektar_f_matches_navier_stokes_2d():
    def mode0(fn):
        return lambda m, x, y, t: complex(fn(x, y)) if m == 0 else 0.0

    def zero(m, x, y, t):
        return 0.0

    def rank_fn(comm):
        out = {}
        for order in (6, 8):
            space = FunctionSpace(mesh(), order)
            bcs = {t: (mode0(KV.u), mode0(KV.v), zero) for t in TAGS}
            nf = NekTarF(comm, space, nz=4, nu=KV.nu, dt=DT, velocity_bcs=bcs)
            nf.set_initial(mode0(KV.u), mode0(KV.v), zero)
            nf.run(STEPS)
            u, v, w = nf.velocity_physical()
            out[order] = error(space, u[:, :, 0], v[:, :, 0]), float(np.abs(w).max())
        return out

    net = NetworkModel("t", latency_us=5, bandwidth=1e9)
    for order, (e, w_max) in VirtualCluster(2, net).run(rank_fn)[0].items():
        assert e == pytest.approx(ns2d_error(order), rel=1e-3)
        assert w_max < 1e-12


@pytest.mark.parametrize("order", [6, 8])
def test_ale_matches_navier_stokes_2d(order):
    assert ale_error(order) == pytest.approx(ns2d_error(order), rel=1e-3)


def test_ale_error_floor_is_its_cg_tolerance():
    # An absolute PCG tolerance stops ALE's solves short of the other two
    # solvers' discretisation error at P = 10.
    assert ale.CG_TOL == 1e-9
    e = ale_error(10)
    assert 1.4e-8 < e < 1.7e-8
    assert e > 4.0 * ns2d_error(10)
