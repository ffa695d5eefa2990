"""Tests for the runtime determinism sanitizer (vector-clock races).

Covers the acceptance criteria: a deliberately planted cross-rank
unordered mutation is detected (negative test), and a ``sanitize=True``
run is charge-parity clean — byte-identical virtual clocks and
OpCounter totals vs. an unsanitized run (property test).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.resilience_bench import CPU_NAME, SMOKE, _solver
from repro.linalg import blas
from repro.linalg.counters import OpCounter
from repro.machines.catalog import CPUS, NETWORKS
from repro.machines.network import NetworkModel
from repro.obs.tracer import Trace
from repro.parallel.sanitizer import DeterminismError, RaceDetector
from repro.parallel.simmpi import VirtualCluster

FAST = NetworkModel("test-net", latency_us=10, bandwidth=100e6)


def cluster(n, **kw):
    return VirtualCluster(n, FAST, **kw)


# ----------------------------------------------------------- race detection


def test_planted_cross_rank_race_detected():
    shared = {}

    def fn(comm):
        # Both ranks mutate the same dict with no message ordering the
        # accesses: a real race (host thread scheduling decides the
        # final contents).
        comm.shared_write(shared, label="result-table")
        shared[comm.rank] = comm.rank

    with pytest.raises(DeterminismError) as exc:
        cluster(2, sanitize=True).run(fn)
    msg = str(exc.value)
    assert "data race" in msg
    assert "result-table" in msg
    assert "REPRO006" in msg  # shared vocabulary with the static rule
    assert exc.value.races
    race = exc.value.races[0]
    assert {race.first.rank, race.second.rank} == {0, 1}
    assert "test_sanitizer" in race.first.site  # access site recorded


def test_message_ordered_accesses_pass():
    shared = {}

    def fn(comm):
        if comm.rank == 0:
            comm.shared_write(shared)
            shared["x"] = 1.0
            comm.send(1, b"token", tag=1)
        else:
            comm.recv(0, tag=1)
            comm.shared_write(shared)
            shared["x"] = 2.0

    cluster(2, sanitize=True).run(fn)  # happens-before via the message


def test_collective_orders_pre_and_post_accesses():
    shared = {}

    def fn(comm):
        if comm.rank == 0:
            comm.shared_write(shared)
            shared["x"] = 1.0
        comm.barrier()
        if comm.rank == 1:
            comm.shared_write(shared)
            shared["x"] = 2.0

    cluster(2, sanitize=True).run(fn)  # pre-barrier < post-barrier


def test_both_sides_after_barrier_still_race():
    # A barrier does NOT order two accesses that both happen after it.
    shared = {}

    def fn(comm):
        comm.barrier()
        comm.shared_write(shared)
        shared[comm.rank] = 1.0

    with pytest.raises(DeterminismError):
        cluster(2, sanitize=True).run(fn)


def test_read_read_is_not_a_race():
    shared = {"x": 1.0}

    def fn(comm):
        comm.shared_read(shared)
        return shared["x"]

    assert cluster(2, sanitize=True).run(fn) == [1.0, 1.0]


def test_unsanitized_run_ignores_shared_declarations():
    shared = {}

    def fn(comm):
        obj = comm.shared_write(shared)
        obj[comm.rank] = comm.rank
        return comm.rank

    assert cluster(2).run(fn) == [0, 1]  # no detector, no error


def test_sanitize_annotates_trace_with_vector_clocks():
    trace = Trace()

    def fn(comm):
        comm.barrier()
        return comm.rank

    cluster(2, sanitize=True, trace=trace).run(fn)
    assert trace.annotations["sanitize.races"] == 0
    vcs = trace.annotations["sanitize.vector_clocks"]
    assert set(vcs) == {0, 1}
    assert all(len(vc) == 2 for vc in vcs.values())


def test_detector_state_resets_between_runs():
    shared = {}

    def racy(comm):
        comm.shared_write(shared)
        shared[comm.rank] = 1.0

    def clean(comm):
        return comm.rank

    cl = cluster(2, sanitize=True)
    with pytest.raises(DeterminismError):
        cl.run(racy)
    assert cl.run(clean) == [0, 1]  # prior run's races don't leak


# ---------------------------------------------------- detector unit behavior


def test_vector_clock_message_ordering():
    det = RaceDetector(2)
    det.record(0, "obj-a", "write", "a", "site0")
    vc = det.on_send(0)
    det.on_recv(1, vc)
    det.record(1, "obj-a", "write", "a", "site1")
    assert det.races() == []


def test_vector_clock_concurrent_writes_race():
    det = RaceDetector(2)
    target = object()
    det.record(0, target, "write", None, "site0")
    det.record(1, target, "write", None, "site1")
    races = det.races()
    assert len(races) == 1
    assert races[0].first.op == races[0].second.op == "write"


def test_equal_looking_clocks_from_different_ranks_are_concurrent():
    # Every access ticks the rank's own component first, so two fresh
    # ranks can never produce comparable clocks by accident.
    det = RaceDetector(3)
    target = object()
    det.record(0, target, "write", None, "s0")
    det.record(2, target, "write", None, "s2")
    assert len(det.races()) == 1


def test_detector_rejects_bad_op():
    det = RaceDetector(2)
    with pytest.raises(ValueError):
        det.record(0, object(), "mutate", None, "s")


# ------------------------------------------------------------- charge parity


def _workload(comm, ops):
    """Mixed compute/communication; returns everything priced."""
    rng = np.random.default_rng(100 + comm.rank)
    x = rng.standard_normal(32)
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    with OpCounter() as c:
        for op in ops:
            if op == "exchange":
                x = x + comm.sendrecv(right, x, left, tag=11)
            elif op == "allreduce":
                comm.allreduce(float(x.sum()))
            elif op == "barrier":
                comm.barrier()
            elif op == "compute":
                comm.compute(1.0e-4)
                blas.ddot(x, x)
            elif op == "shared":
                comm.shared_read(FAST, label="network-model")
    return (comm.wall, comm.cpu_time, c.flops, c.bytes, c.calls)


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(["exchange", "allreduce", "barrier", "compute", "shared"]),
        min_size=1,
        max_size=12,
    )
)
def test_sanitize_is_charge_parity_clean(ops):
    plain = cluster(2).run(_workload, ops)
    sanitized = cluster(2, sanitize=True).run(_workload, ops)
    # Byte-identical, not approximately equal: the detector must never
    # touch the virtual clocks or the ambient OpCounter.
    assert sanitized == plain


def test_sanitize_parity_includes_sent_bytes():
    ops = ["exchange", "allreduce", "compute", "exchange", "barrier"]
    cl_plain = cluster(2)
    cl_san = cluster(2, sanitize=True)
    cl_plain.run(_workload, ops)
    cl_san.run(_workload, ops)
    for a, b in zip(cl_plain.ranks, cl_san.ranks):
        assert a.wall == b.wall
        assert a.cpu == b.cpu
        assert a.sent_bytes == b.sent_bytes
        assert a.recv_bytes == b.recv_bytes
        assert a.messages == b.messages


def test_nektar_f_step_sanitized_charge_parity():
    """The same contract at application scale: one step of the
    resilience-bench decaying vortex, production solver stack."""
    def rank_fn(comm):
        with OpCounter() as c:
            nf = _solver(comm, SMOKE)
            nf.run(1)
        return (
            comm.wall, comm.cpu_time, c.flops, c.bytes, c.calls,
            nf.kinetic_energy(),
        )

    def run(**kw):
        return VirtualCluster(
            2,
            network=NETWORKS["RoadRunner, eth-internode"],
            cpu=CPUS[CPU_NAME],
            **kw,
        ).run(rank_fn)

    trace = Trace()
    assert run(sanitize=True, trace=trace) == run()
    # The detector really ran: no races, and the message graph gave
    # every rank a non-trivial vector clock.
    assert trace.annotations["sanitize.races"] == 0
    vcs = trace.annotations["sanitize.vector_clocks"]
    assert set(vcs) == {0, 1}
    assert all(sum(vc) > 0 for vc in vcs.values())
