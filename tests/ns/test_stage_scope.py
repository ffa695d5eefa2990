"""The serial solver, NekTar-ALE and NekTar-F open every stage with
:class:`repro.ns.stages.StageScope`: all three keep per-stage op
counts, tag the thread with their stage and emit the same stage spans.
"""

import numpy as np
import pytest

from repro.apps.serial_bluff import reduced_solver
from repro.assembly.space import FunctionSpace
from repro.linalg.counters import OpCounter
from repro.machines.catalog import CPUS
from repro.machines.network import NetworkModel
from repro.mesh.generators import rectangle_quads
from repro.ns.nektar_f import NekTarF
from repro.ns.stages import STAGES
from repro.obs import tracer as obs
from repro.obs.tracer import Trace
from repro.parallel.faults import CrashSpec, FaultPlan, RankFailure
from repro.parallel.simmpi import VirtualCluster

from .test_ale import make_solver, wobble

NET = NetworkModel("t", latency_us=10, bandwidth=100e6)
TAGS = ("left", "right", "top", "bottom")


def _ale():
    ns = make_solver(motion=wobble)
    ns.set_initial(lambda x, y, t: 1.0, lambda x, y, t: 0.0)
    return ns


def _nektar_f(comm):
    space = FunctionSpace(rectangle_quads(1, 1, 0.0, 2 * np.pi, 0.0, 2 * np.pi), 5)
    moving = lambda m, x, y, t: complex(0.01 * t)  # noqa: E731  (re-projected each step)
    zero = lambda m, x, y, t: 0.0  # noqa: E731
    nf = NekTarF(
        comm, space, nz=4, nu=0.05, dt=5e-3,
        velocity_bcs={t: (moving, zero, zero) for t in TAGS}, charge_compute=True,
    )
    nf.set_initial(
        lambda m, x, y, t: complex(np.sin(x) * np.cos(y)) if m <= 1 else 0.0,
        lambda m, x, y, t: complex(-np.cos(x) * np.sin(y)) if m <= 1 else 0.0,
        lambda m, x, y, t: complex(0.1) if m == 1 else 0.0,
    )
    return nf


def _step_ledger(solver):
    """One warmed step: (stage_ops increments, the enclosing counter)."""
    solver.run(2)
    before = {s: c.snapshot() for s, c in solver.stage_ops.items()}
    with OpCounter() as outer:
        solver.step()
    return {s: c.delta(before[s]) for s, c in solver.stage_ops.items()}, outer


def _nektar_f_ledger():
    return VirtualCluster(2, NET, cpu=CPUS["pentium-ii-450"]).run(
        lambda comm: _step_ledger(_nektar_f(comm))
    )[0]


@pytest.mark.parametrize(
    "ledger",
    [lambda: _step_ledger(reduced_solver()), lambda: _step_ledger(_ale()), _nektar_f_ledger],
    ids=["serial", "ale", "nektar_f"],
)
def test_every_charge_lands_in_exactly_one_stage(ledger):
    stages, outer = ledger()
    assert set(stages) == set(STAGES)
    assert outer.calls > 0
    assert sum(d.calls for d in stages.values()) == outer.calls
    # Some charges are not integers, so the two summation orders may
    # differ in the last bits: equal calls, flops/bytes to 1e-12.
    assert sum(d.flops for d in stages.values()) == pytest.approx(outer.flops, rel=1e-12)
    assert sum(d.bytes for d in stages.values()) == pytest.approx(outer.bytes, rel=1e-12)


@pytest.mark.parametrize("make", [reduced_solver, _ale], ids=["serial", "ale"])
def test_host_solvers_emit_stage_spans_with_op_args(make):
    solver = make()
    trace = Trace()
    with obs.install(trace.rank_tracer(0)):
        solver.step()
    spans = [e for e in trace.events() if e.cat == "stage"]
    assert {e.name for e in spans} == set(STAGES)
    assert all(set(e.args) == {"flops", "bytes"} for e in spans)
    for name in STAGES:  # a span carries its own entry's charges
        mine = [e.args["flops"] for e in spans if e.name == name]
        assert sum(mine) == pytest.approx(solver.stage_ops[name].flops, rel=1e-12)
    assert sum(e.args["flops"] for e in spans) > 0.0


def test_virtual_price_of_a_stage_ignores_what_was_charged_before():
    """A stage's flops are summed from zero per entry, so the virtual
    clocks cannot depend on how much ``stage_ops`` already holds (a
    difference of running totals would: some charges are thirds)."""
    trace = Trace()

    def rank_fn(comm, preload):
        nf = _nektar_f(comm)
        for counter in nf.stage_ops.values():
            counter.flops = counter.bytes = preload
        nf.run(3)
        return comm.wall, comm.cpu_time, nf.virtual.breakdown()

    cpu = CPUS["pentium-ii-450"]
    fresh = VirtualCluster(2, NET, cpu=cpu, trace=trace).run(rank_fn, 0.0)
    loaded = VirtualCluster(2, NET, cpu=cpu).run(rank_fn, 1e15 / 3.0)
    assert fresh == loaded
    # A virtual run's spans add the rank's cpu/wall deltas: nf.virtual.
    spans = [e for e in trace.events() if e.cat == "stage"]
    assert len(spans) == 2 * 3 * len(STAGES)
    assert all(list(e.args) == ["cpu", "wall", "flops", "bytes"] for e in spans)
    assert any(e.args["flops"] % 1.0 for e in spans), "shape no longer charges thirds"
    for rank, (_, _, virtual) in enumerate(fresh):
        for name in STAGES:
            mine = [e.args for e in spans if e.rank == rank and e.name == name]
            for kind in ("cpu", "wall"):
                total = sum(a[kind] for a in mine)
                assert total == pytest.approx(virtual[name][kind], rel=1e-12)


def test_stage_tag_is_maintained_without_a_tracer(monkeypatch):
    ns = _ale()
    ns.motion = None  # static mesh: the space outlives the step
    seen = []
    gradient = ns.space.gradient

    def tagged_gradient(u_hat):
        seen.append(obs.current_stage())
        return gradient(u_hat)

    monkeypatch.setattr(ns.space, "gradient", tagged_gradient)
    assert obs.current() is None and obs.current_stage() is None
    ns.step()
    assert seen == [STAGES[1], STAGES[1], STAGES[5]]
    assert obs.current_stage() is None


def test_timed_crash_inside_a_stage_leaves_no_stale_tag():
    """``StageScope.__exit__`` prices the stage's flops on the virtual
    CPU, which under a fault plan is where a timed crash fires (the
    resilience bench's configuration): the dying rank's thread must
    still end with its stage tag popped, and with no span for the stage
    it did not finish."""
    cpu = CPUS["pentium-ii-450"]

    def rank_fn(comm, left):
        try:
            _nektar_f(comm).run(2)
        except RankFailure:
            pass  # the survivor: its peer died
        finally:
            left[comm.rank] = obs.current_stage()
        return comm.wall

    t_end = VirtualCluster(2, NET, cpu=cpu).run(rank_fn, {})[1]
    stale, died_mid_step = {}, 0
    for k in range(1, 40):
        plan = FaultPlan(crashes=(CrashSpec(rank=1, at_time=k / 40 * t_end),))
        trace, left = Trace(), {}
        cluster = VirtualCluster(2, NET, cpu=cpu, faults=plan, trace=trace)
        cluster.run(rank_fn, left)
        t_crash = cluster._crashed[1]
        if left != {0: None, 1: None}:
            stale[k] = left
        spans = [e for e in trace.events() if e.cat == "stage" and e.rank == 1]
        assert all(e.ts + e.dur <= t_crash for e in spans)
        died_mid_step += len(spans) % len(STAGES) != 0
    assert not stale
    assert died_mid_step > 20, "the sweep no longer crashes inside steps"
