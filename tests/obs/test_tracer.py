import threading
from types import SimpleNamespace

import pytest

from repro.linalg.counters import OpCounter, charge
from repro.ns.stages import StageScope
from repro.obs import tracer as obs
from repro.obs.tracer import Trace, TraceEvent, Tracer
from repro.util.timing import StageTimer


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


def test_no_tracer_helpers_are_noops():
    assert obs.current() is None
    obs.instant("nothing", "pcg")
    assert obs.current() is None


def test_install_and_nesting():
    a, b = Tracer(rank=0), Tracer(rank=1)
    with obs.install(a):
        assert obs.current() is a
        with obs.install(b):
            assert obs.current() is b
        assert obs.current() is a
        with obs.install(None):  # shields sub-computation
            assert obs.current() is None
        assert obs.current() is a
    assert obs.current() is None


def test_span_uses_tracer_clock():
    # The one timed span left is StageScope's: t0/t1 come from the
    # installed tracer's clock, whatever domain that is.
    clock = FakeClock(10.0)
    tr = Tracer(rank=3, clock=clock)
    solver = SimpleNamespace(timer=StageTimer(), stage_ops={"work": OpCounter()})
    with obs.install(tr):
        with StageScope(solver, "work"):
            charge(6.0, 48.0)
            clock.t = 12.5
    (ev,) = [e for e in tr.events if e.cat == "stage"]  # + one kernel sample
    assert ev.name == "work"
    assert ev.cat == "stage"
    assert ev.ts == pytest.approx(10.0)
    assert ev.dur == pytest.approx(2.5)
    assert ev.rank == 3
    assert ev.args == {"flops": 6.0, "bytes": 48.0}
    assert ev.ph == "X"


def test_emit_span_clamps_negative_duration():
    tr = Tracer()
    tr.emit_span("x", "comm", 5.0, 4.0)
    assert tr.events[0].dur == 0.0


def test_instant_event():
    clock = FakeClock(7.0)
    tr = Tracer(clock=clock)
    with obs.install(tr):
        obs.instant("solve", "pcg", iterations=12)
    (ev,) = tr.events
    assert ev.ph == "i"
    assert ev.ts == pytest.approx(7.0)
    assert ev.args == {"iterations": 12}


def test_kernel_sampling_aggregates_and_samples():
    tr = Tracer(sample_every=4)
    for _ in range(10):
        tr.kernel_sample(100.0, 800.0, "dgemv")
    assert tr.kernel_totals() == {"dgemv": (10, 1000.0, 8000.0)}
    # Events at calls 1, 5, 9 -> three sampled instants.
    kernel_events = [e for e in tr.events if e.cat == "kernel"]
    assert len(kernel_events) == 3
    assert kernel_events[-1].args["calls"] == 9


def test_kernel_sampling_every_call():
    tr = Tracer(sample_every=1)
    tr.kernel_sample(1.0, 2.0, "ddot")
    tr.kernel_sample(1.0, 2.0, "ddot")
    assert len([e for e in tr.events if e.cat == "kernel"]) == 2


def test_sample_every_validation():
    with pytest.raises(ValueError):
        Tracer(sample_every=0)


def test_trace_merges_and_orders_events():
    trace = Trace()
    t0 = trace.rank_tracer(0, clock=FakeClock())
    t1 = trace.rank_tracer(1, clock=FakeClock())
    assert trace.rank_tracer(0) is t0  # create-or-get
    t1.emit_span("late", "comm", 2.0, 3.0)
    t0.emit_span("early", "stage", 0.0, 1.0)
    evs = trace.events()
    assert [e.name for e in evs] == ["early", "late"]
    assert trace.nranks == 2


def test_trace_orders_enclosing_span_first():
    trace = Trace()
    tr = trace.rank_tracer(0)
    tr.emit_span("inner", "comm", 1.0, 2.0)
    tr.emit_span("outer", "stage", 1.0, 5.0)
    assert [e.name for e in trace.events()] == ["outer", "inner"]


def test_installation_is_thread_local():
    tr = Tracer(rank=0)
    seen = {}

    def worker():
        seen["inner"] = obs.current()

    with obs.install(tr):
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["inner"] is None


def test_fresh_raw_thread_reads_empty_slots():
    """A raw ``_thread`` thread (what simmpi ranks run on) that never
    set a slot sees ``None`` everywhere and charges nothing — even while
    the spawning thread has a counter, a tracer and a stage active."""
    import _thread

    from repro.linalg.counters import active_counter

    seen = {}
    finished = _thread.allocate_lock()
    finished.acquire()

    def worker():
        try:
            charge(5.0, 40.0, "fresh")
            seen["reads"] = (active_counter(), obs.current(), obs.current_stage())
            obs.instant("nothing", "pcg")
            obs.push_stage("worker")
            seen["own_stage"] = obs.current_stage()
            obs.pop_stage()
        except BaseException as exc:  # surfaced on the main thread below
            seen["error"] = exc
        finally:
            finished.release()

    tr = Tracer(rank=0, sample_every=1)
    with OpCounter() as c, obs.install(tr):
        obs.push_stage("main")
        try:
            _thread.start_new_thread(worker, ())
            finished.acquire()
            assert obs.current_stage() == "main"
        finally:
            obs.pop_stage()
    assert "error" not in seen, seen.get("error")
    assert seen["reads"] == (None, None, None)
    assert seen["own_stage"] == "worker"
    assert (c.flops, c.calls) == (0.0, 0)
    assert tr.kernel_totals() == {} and tr.events == []


def test_install_hooks_kernel_sampler():
    from repro.linalg import blas, counters
    import numpy as np

    tr = Tracer(sample_every=1)
    x = np.ones(8)
    y = np.ones(8)
    with counters.OpCounter():
        with obs.install(tr):
            blas.ddot(x, y)
        blas.ddot(x, y)  # after uninstall: not sampled
    assert tr.kernel_totals()["ddot"][0] == 1


def test_trace_event_defaults():
    ev = TraceEvent("n", "c", 0.0, 1.0, 0)
    assert ev.args is None and ev.ph == "X"
