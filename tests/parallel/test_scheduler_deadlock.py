"""SchedulerDeadlock: typed stall reports instead of silent hangs.

The communication verifier normally diagnoses application-level
deadlocks (``CommVerificationError``) before the scheduler ever sees a
stall.  These tests disable that layer to plant a *scheduler-level*
stall — every rank blocked, no wait satisfiable — and assert that the
engine refuses to hang: it raises :class:`SchedulerDeadlock` carrying
the per-rank blocked-state dump and the ``REPRO014`` runtime code.
"""

import pytest

from repro.analysis.vocab import RUNTIME_CODES
from repro.machines.network import NetworkModel
from repro.parallel.simmpi import SchedulerDeadlock, VirtualCluster

NET = NetworkModel("deadlock-net", latency_us=10, bandwidth=100e6)


def _head_to_head(comm):
    # Both ranks receive first and would send second: unsatisfiable.
    comm.recv((comm.rank + 1) % comm.size)
    comm.send((comm.rank + 1) % comm.size, 1.0)


def _plant():
    """A cluster whose verifier is blinded, so only the scheduler can
    notice that nothing is runnable."""
    cluster = VirtualCluster(2, NET)
    cluster._check_deadlock = lambda: False  # type: ignore[method-assign]
    return cluster


def test_planted_stall_raises_typed_deadlock():
    cluster = _plant()
    with pytest.raises(SchedulerDeadlock) as exc_info:
        cluster.run(_head_to_head)
    err = exc_info.value
    # The dump names every stuck rank and what it was waiting in.
    assert sorted(err.blocked) == [0, 1]
    for rank, desc in err.blocked.items():
        assert "recv" in desc, f"rank {rank} blocked in {desc!r}"
        assert f"rank {rank}: blocked in {desc}" in str(err)
    assert RUNTIME_CODES["scheduler_stall"] in str(err)
    assert "REPRO014" in str(err)


def test_event_engine_reports_stall_without_waiting():
    """The event engine detects the stall the moment its ready deque
    drains — no timeout, no safety-net poll."""
    import time

    cluster = _plant()
    t0 = time.perf_counter()
    with pytest.raises(SchedulerDeadlock):
        cluster.run(_head_to_head)
    # Detection is immediate; anything slower would mean the engine
    # fell back to real-time timeouts.
    assert time.perf_counter() - t0 < 1.0


def test_undisturbed_verifier_still_wins():
    """With the verifier active, an application deadlock surfaces as
    CommVerificationError — SchedulerDeadlock is the backstop, not the
    primary diagnosis."""
    from repro.parallel.simmpi import CommVerificationError

    with pytest.raises(CommVerificationError, match="deadlock"):
        VirtualCluster(2, NET).run(_head_to_head)


def test_scheduler_deadlock_is_runtime_error():
    err = SchedulerDeadlock({3: "recv(src=1, tag=0)"}, detail="unit")
    assert isinstance(err, RuntimeError)
    assert err.blocked == {3: "recv(src=1, tag=0)"}
    assert "unit" in str(err)
    assert "rank 3: blocked in recv(src=1, tag=0)" in str(err)
