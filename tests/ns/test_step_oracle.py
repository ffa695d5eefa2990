"""The merged step against the frozen parent step bodies.

``NavierStokes2D.step`` is the one non-Fourier step body and
``ALENavierStokes2D`` runs it through hooks.  Each case below builds the
merged solver and its frozen twin (``_step_oracle``) on equal inputs and
steps both: the fields, every stage's ``[flops, bytes, calls]``, the PCG
iteration counts and the timer's stage keys must agree — at 1e-13 and
with the direct-solve ledgers exact in tier-1, to the bit under
``-m same_bits``.

Cases: the serial solver through its order-1 start-up; ALE with no
motion, with the prescribed interior wobble, and in ``motion="solve"``
mode on ``wing_mesh(4, 1)`` (the ``ale_cg`` flow, all three PCG solvers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.mesh.generators import rectangle_quads, wing_mesh
from repro.ns.ale import ALENavierStokes2D
from repro.ns.nektar2d import NavierStokes2D
from repro.ns.stages import ALE_GROUPS

from . import _step_oracle as oracle

STEPS = 5
EPS, AMP, OMEGA = 1.5e-3, 0.15, 2.0


def taylor_u(x, y, t):
    return np.sin(x) * np.cos(y) * np.exp(-0.1 * t)


def taylor_v(x, y, t):
    return -np.cos(x) * np.sin(y) * np.exp(-0.1 * t)


def wobble(x0, y0, t):
    s = np.sin(x0) * np.sin(y0)
    return (x0 + 0.05 * s * np.sin(3 * t), y0 + 0.05 * s * np.cos(2 * t))


def one(x, y, t):
    return 1.0 + EPS * np.sin(x) * np.cos(y)


def cross(x, y, t):
    return -EPS * np.cos(x) * np.sin(y)


def zero(x, y, t):
    return 0.0


def body_v(x, y, t):
    return AMP * OMEGA * np.cos(OMEGA * t)


def serial(cls):
    space = FunctionSpace(rectangle_quads(3, 2, 0.0, np.pi, 0.0, np.pi), 5)
    tags = ("bottom", "left", "top")
    ns = cls(space, 0.05, 5e-3, {t: (taylor_u, taylor_v) for t in tags},
             pressure_dirichlet=("right",))
    ns.set_initial(taylor_u, taylor_v)
    return ns


def ale_box(motion):
    def build(cls):
        mesh = rectangle_quads(2, 2, 0.0, np.pi, 0.0, np.pi)
        tags = ("left", "right", "top", "bottom")
        ns = cls(mesh, 5, nu=0.05, dt=5e-3,
                 velocity_bcs={t: (taylor_u, taylor_v) for t in tags}, motion=motion)
        ns.set_initial(taylor_u, taylor_v)
        return ns

    return build


def ale_wing(cls):
    ns = cls(
        wing_mesh(4, 1), order=3, nu=0.05, dt=1e-2,
        velocity_bcs={"inflow": (one, cross), "wall": (zero, body_v)},
        pressure_dirichlet=("outflow",), motion="solve",
        body_velocity=(zero, body_v), outer_tags=("inflow", "outflow", "side"),
    )
    ns.set_initial(one, cross)
    return ns


CASES = {
    "serial": (serial, NavierStokes2D, oracle.NavierStokes2D),
    "ale-static": (ale_box(None), ALENavierStokes2D, oracle.ALENavierStokes2D),
    "ale-wobble": (ale_box(wobble), ALENavierStokes2D, oracle.ALENavierStokes2D),
    "ale-solve": (ale_wing, ALENavierStokes2D, oracle.ALENavierStokes2D),
}


def ledger(ns) -> dict[str, list]:
    return {name: [c.flops, c.bytes, c.calls] for name, c in ns.stage_ops.items()}


def stage_keys(ns) -> list[tuple[str, int]]:
    """The timer's stages in the order they were first opened, with how
    often each was."""
    return [(name, rec.calls) for name, rec in ns.timer.records.items()]


def run_pair(case: str):
    build, merged_cls, frozen_cls = CASES[case]
    merged, frozen = build(merged_cls), build(frozen_cls)
    for _ in range(STEPS):
        merged.step()
        frozen.step()
    return merged, frozen


@pytest.mark.parametrize("case", sorted(CASES))
def test_merged_step_matches_the_frozen_bodies(case):
    merged, frozen = run_pair(case)
    for name in ("u_hat", "v_hat", "p_hat"):
        want = getattr(frozen, name)
        got = getattr(merged, name)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
    assert stage_keys(merged) == stage_keys(frozen)
    got, want = ledger(merged), ledger(frozen)
    if case == "serial":
        assert got == want
        return
    # Group a (stages 1-4 and 6) runs no PCG: its charges do not depend on bits.
    for name in ALE_GROUPS["a"]:
        assert got[name] == want[name], name
    for kind, n in frozen.cg_iterations.items():
        assert merged.cg_iterations[kind] == pytest.approx(n, rel=0.02), kind


@pytest.mark.same_bits
@pytest.mark.parametrize("case", sorted(CASES))
def test_merged_step_same_bits_as_the_frozen_bodies(case):
    merged, frozen = run_pair(case)
    for name in ("u_hat", "v_hat", "p_hat"):
        assert getattr(merged, name).tobytes() == getattr(frozen, name).tobytes(), name
    assert ledger(merged) == ledger(frozen)
    assert getattr(merged, "cg_iterations", None) == getattr(frozen, "cg_iterations", None)
    assert stage_keys(merged) == stage_keys(frozen)
