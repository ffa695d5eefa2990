"""Tests for the runtime determinism sanitizer (races on the event graph).

Covers the acceptance criteria: a deliberately planted cross-rank
unordered mutation is detected (negative test), a ``sanitize=True``
run is charge-parity clean — byte-identical virtual clocks and
OpCounter totals vs. an unsanitized run (property test) — and the
graph query reads the same clocks, races and error text as the
vector-clock detector it replaced (``_race_oracle``, replayed from the
rank traces of random programs).
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import scaling_bench
from repro.apps.resilience_bench import CPU_NAME, SMOKE, _solver
from repro.apps.scaling_bench import _ring_program, alltoall_program
from repro.linalg import blas
from repro.linalg.counters import OpCounter
from repro.machines.catalog import CPUS, NETWORKS
from repro.machines.network import NetworkModel
from repro.obs.critpath import CritPathRecorder
from repro.obs.tracer import Trace
from repro.parallel.faults import CrashSpec, FaultPlan
from repro.parallel.sanitizer import DeterminismError, _rows
from repro.parallel.simmpi import CommVerificationError, VirtualCluster

from ._race_oracle import replay
from .test_scheduler_properties import NET, _run_program_or_lose_a_peer, programs

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
    assert "REPRO006" in msg  # the race detector's runtime code
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


# ------------------------------------------- vector clocks from the graph


def test_vector_clock_message_ordering():
    target = object()

    def fn(comm):
        if comm.rank == 0:
            comm.shared_write(target, label="a")
            comm.send(1, b"token")
        else:
            comm.recv(0)
            comm.shared_write(target, label="a")

    cl = cluster(2, sanitize=True)
    cl.run(fn)
    clocks, accesses, races = cl.happens_before
    assert races == []
    # write ticks rank 0 to 1, its send to 2; rank 1's recv joins (2, 0)
    # and ticks, and its write ticks again.
    assert [a.vc for a in accesses] == [(1, 0), (2, 2)]
    assert clocks == {0: (2, 0), 1: (2, 2)}


def test_vector_clock_concurrent_writes_race():
    target = object()

    def fn(comm):
        comm.shared_write(target)

    with pytest.raises(DeterminismError) as exc:
        cluster(2, sanitize=True).run(fn)
    races = exc.value.races
    assert len(races) == 1
    assert races[0].first.op == races[0].second.op == "write"


def test_equal_looking_clocks_from_different_ranks_are_concurrent():
    # Every access ticks the rank's own component first, so two fresh
    # ranks can never produce comparable clocks by accident.
    target = object()

    def fn(comm):
        if comm.rank != 1:
            comm.shared_write(target)

    with pytest.raises(DeterminismError) as exc:
        cluster(3, sanitize=True).run(fn)
    (race,) = exc.value.races
    assert (race.first.vc, race.second.vc) == ((1, 0, 0), (0, 0, 1))


def test_private_short_lived_objects_do_not_race():
    # Each rank declares a write to a list only it ever sees.  Freed
    # right after, its address can come back on the next rank; the
    # access table holds every declared object until finalize, so no
    # two live objects share an identity.
    def fn(comm):
        comm.shared_write([comm.rank])

    cl = cluster(8, sanitize=True)
    cl.run(fn)
    assert len(cl.happens_before.accesses) == 8
    assert cl.happens_before.races == []


def test_an_aborted_run_keeps_no_stale_clocks_or_objects(monkeypatch):
    # A run the scheduler aborts (``run_ranks`` raising) has no query
    # result: the previous run's clocks do not linger on the cluster,
    # and none of the aborted run's declared objects stay alive.
    class Box:
        pass

    def fn(comm):
        comm.shared_write(box)

    box = Box()
    alive = weakref.ref(box)
    cl = cluster(2, sanitize=True)
    with pytest.raises(DeterminismError):
        cl.run(fn)
    assert cl.happens_before.races
    real = cl._engine.run_ranks

    def aborted(comms, body):
        real(comms, body)
        raise KeyboardInterrupt

    monkeypatch.setattr(cl._engine, "run_ranks", aborted)
    with pytest.raises(KeyboardInterrupt):
        cl.run(fn)
    assert cl.happens_before is None
    assert cl._critpath.accesses == []
    del box
    assert alive() is None


def test_the_clock_table_holds_a_level_not_a_run():
    # The query hands a node's row on once no later level reads it, so
    # a twenty times longer run sweeps through no more rows.
    def rows(steps):
        rec = CritPathRecorder()

        def fn(comm):
            for _ in range(steps):
                comm.send((comm.rank + 1) % comm.size, comm.rank)
                comm.recv((comm.rank - 1) % comm.size)
                comm.alltoall([comm.rank] * comm.size)

        cluster(8, critpath=rec).run(fn)
        c = rec.graph._columns()
        return len(c.depth), _rows(c, c.plan(), [])[1]

    (short, few), (long, more) = rows(1), rows(20)
    assert long > 10 * short
    assert more == few <= 2 * 8


def test_sanitized_graph_equals_the_recorders_graph():
    # Sanitizing attaches a recorder of its own, or reads the one it is
    # given; without declared accesses the graph is the same either way.
    def fn(comm):
        comm.send((comm.rank + 1) % comm.size, comm.rank)
        comm.recv((comm.rank - 1) % comm.size)
        comm.allreduce(1.0)

    mine = CritPathRecorder()
    cluster(3, sanitize=True, critpath=mine).run(fn)
    plain = CritPathRecorder()
    cluster(3, critpath=plain).run(fn)
    assert mine.graph.to_dict() == plain.graph.to_dict()
    assert cluster(3, sanitize=True)._critpath is not None


# ------------------------------------------------ the frozen detector


def _declare(comm, obj, op):
    return getattr(comm, f"shared_{op}")(obj)


_DECLARE_SITE = f"{__file__}:{_declare.__code__.co_firstlineno + 1}"

_accesses = st.lists(
    st.tuples(
        st.integers(0, 5),  # round (clipped to the program's length)
        st.integers(0, 1_000_000),  # rank seed
        st.integers(0, 2),  # which shared object
        st.sampled_from(["read", "write"]),
    ),
    max_size=12,
)


def _check_against_oracle(nprocs, program, plan, faults=None):
    objs = [[], {}, object()]
    log = []
    todo = {}
    for rnd, seed, k, op in plan:
        todo.setdefault((min(rnd, len(program)), seed % nprocs), []).append((k, op))

    def touch(comm, i):
        for k, op in todo.get((i, comm.rank), ()):
            pos = len(comm.cluster.ranks[comm.rank].trace)
            log.append((comm.rank, pos, objs[k], op, None, _DECLARE_SITE))
            _declare(comm, objs[k], op)

    cl = VirtualCluster(nprocs, NET, sanitize=True, faults=faults)
    try:
        cl.run(_run_program_or_lose_a_peer, program, touch)
        raised = None
    except (DeterminismError, CommVerificationError) as exc:
        raised = exc
    det, clocks = replay(nprocs, cl.rank_traces(), log)
    hb = cl.happens_before
    assert hb.clocks == det.clocks()
    assert [a.vc for a in hb.accesses] == clocks
    assert hb.races == det.races()
    if isinstance(raised, DeterminismError) or (raised is None and det.races()):
        assert str(raised) == str(DeterminismError(det.races()))


@settings(max_examples=25, deadline=None)
@given(programs, _accesses)
def test_graph_query_matches_the_frozen_detector(case, plan):
    nprocs, program = case
    _check_against_oracle(nprocs, program, plan)


@settings(max_examples=25, deadline=None)
@given(programs, _accesses, st.integers(0, 1_000_000), st.floats(0.0, 5e-5))
def test_graph_query_matches_the_frozen_detector_with_a_crash(case, plan, victim, at):
    nprocs, program = case
    crash = CrashSpec(rank=victim % nprocs, at_time=at)
    _check_against_oracle(nprocs, program, plan, FaultPlan(crashes=(crash,)))


@pytest.mark.scaling
def test_512_rank_ring_and_alltoall_clocks_and_races():
    planted, token = object(), object()
    ring, exchange = _ring_program(4), alltoall_program((64,))
    last = 511

    def fn(comm):
        if comm.rank in (0, last):
            comm.shared_write(planted, label="planted")
        if comm.rank == last:
            comm.shared_write(token, label="token")  # before sending to 0
        ring(comm)
        if comm.rank == 0:
            comm.shared_write(token, label="token")  # after receiving
        return exchange(comm)  # ends in a barrier

    cl = VirtualCluster(last + 1, scaling_bench.NETWORK, sanitize=True)
    with pytest.raises(DeterminismError) as exc:
        cl.run(fn)
    (race,) = exc.value.races
    assert race.label == "planted"
    assert {race.first.rank, race.second.rank} == {0, last}
    vc = np.array([cl.happens_before.clocks[r] for r in range(last + 1)])
    own = np.diag(vc)
    off = ~np.eye(last + 1, dtype=bool)
    assert (vc == own[None, :] - 1)[off].all()


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
                comm.send(right, x, tag=11)
                x = x + comm.recv(left, tag=11)
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
