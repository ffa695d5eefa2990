"""Hypothesis property tests for the scheduler engine.

Random-but-terminating communication programs (ring shifts with random
strides and payloads, interleaved with random collectives) over 2-128
ranks must:

* terminate (no hangs, no scheduler stalls);
* conserve bytes cluster-wide (the verifier's ledger, asserted here
  explicitly as well);
* produce virtual clocks that the recorded event graph re-derives from
  its edges alone (``EventGraph.validate()``: an independent
  re-computation that knows nothing of host scheduling);
* reproduce results, clocks, charge ledgers and sanitizer vector clocks
  bit for bit from run to run;
* read the same — results, clocks, ledgers, ``rank_traces()`` strings
  and engine statistics — whether ranks that never wait share a host
  thread (the engine's adoption rule) or every rank is started on a
  thread of its own (the rule it replaced, frozen here as the oracle),
  with and without a rank crashing mid-program.

Programs are terminating by construction — every round is either a
global collective or a full-ring shift where each rank sends before it
receives — so any non-termination is an engine bug, not a program bug.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.network import NetworkModel
from repro.obs.critpath import CritPathRecorder
from repro.parallel import scheduler
from repro.parallel.faults import CrashSpec, FaultPlan, RankFailure
from repro.parallel.simmpi import CommVerificationError, VirtualCluster

from ..obs._graphs import makespan

NET = NetworkModel(
    "prop-net",
    latency_us=5,
    bandwidth=1e9,
    cpu_overhead_per_byte=1e-9,
    busy_wait_fraction=0.5,
)

# One program round: a ring shift (stride seed, payload doubles) or a
# named global collective.
_shift = st.tuples(
    st.just("shift"), st.integers(0, 1_000_000), st.integers(1, 64)
)
_round = st.one_of(
    _shift,
    st.sampled_from(
        ["barrier", "allreduce", "alltoall", "bcast", "allgather"]
    ),
)

programs = st.tuples(
    st.integers(2, 128),
    st.lists(_round, min_size=1, max_size=5),
)


def _run_program(comm, program, touch=None):
    """Execute one generated program; returns a numeric checksum.

    ``touch(comm, i)``, if given, runs before round ``i`` and once
    after the last (``i == len(program)``)."""
    acc = float(comm.rank)
    for i, op in enumerate(program):
        if touch is not None:
            touch(comm, i)
        if isinstance(op, tuple):
            _, stride_seed, ndoubles = op
            stride = 1 + stride_seed % (comm.size - 1)
            dest = (comm.rank + stride) % comm.size
            src = (comm.rank - stride) % comm.size
            comm.send(dest, np.full(ndoubles, acc), tag=i)
            acc += float(comm.recv(src, tag=i)[0])
        elif op == "barrier":
            comm.barrier()
        elif op == "allreduce":
            acc += comm.allreduce(float(comm.rank))
        elif op == "alltoall":
            out = comm.alltoall([np.array([acc])] * comm.size)
            acc += float(sum(c[0] for c in out)) / comm.size
        elif op == "bcast":
            acc += comm.bcast(float(acc) if comm.rank == 0 else None)
        elif op == "allgather":
            acc += float(sum(comm.allgather(float(comm.rank))))
    if touch is not None:
        touch(comm, len(program))
    return acc, comm.wall, comm.cpu_time


def _run_program_or_lose_a_peer(comm, program, touch=None):
    try:
        return _run_program(comm, program, touch)
    except RankFailure as lost:
        return "lost", lost.rank, comm.wall, comm.cpu_time


class _ThreadPerRankEngine(scheduler.EventEngine):
    """The dispatch rule before adoption, frozen: a rank that returns
    always hands the token on, so every rank is started on a thread of
    its own."""

    def _main(self, rank):
        cl = self.cluster
        self._body(self._comms[rank])
        st_ = cl.ranks[rank]
        st_.done = True
        cl._waiting.pop(rank, None)
        self._conts[rank].state = scheduler._DONE
        self._ndone += 1
        if st_.error is not None:
            self.notify_all()
        elif cl._waiting:
            cl._check_deadlock()
        self._hand_off()


def _fingerprint(nprocs, program, recorder=None, faults=None, engine=None):
    cluster = VirtualCluster(
        nprocs, NET, sanitize=True, critpath=recorder, faults=faults
    )
    if engine is not None:
        cluster._engine = engine(cluster)
    try:
        results = cluster.run(_run_program_or_lose_a_peer, program)
    except CommVerificationError as exc:
        # A rank that gave up on a dead peer strands whoever waits on
        # *it*: under a crash plan the classifier's deadlock report is
        # a valid outcome.
        if faults is None:
            raise
        results = str(exc)
    if faults is None:
        sent = sum(st_.sent_bytes for st_ in cluster.ranks)
        recvd = sum(st_.recv_bytes for st_ in cluster.ranks)
        assert sent == recvd, f"byte conservation broken: {sent} != {recvd}"
    return {
        "results": results,
        "threads": len(cluster._engine._threads),
        "engine": cluster.engine_stats(),
        "ranks": [
            (st_.wall, st_.cpu, st_.sent_bytes, st_.recv_bytes, st_.messages)
            for st_ in cluster.ranks
        ],
        "traces": cluster.rank_traces(),
        "clocks": cluster.happens_before.clocks,
    }


@settings(max_examples=25, deadline=None)
@given(programs)
def test_random_programs_terminate_with_clocks_the_graph_rederives(case):
    """The engine's clocks agree with the event graph's own derivation
    (the recorder itself is charge-neutral: see test_critpath_parity)."""
    nprocs, program = case
    rec = CritPathRecorder()
    fp = _fingerprint(nprocs, program, rec)
    rec.graph.validate()
    assert makespan(rec.graph) == pytest.approx(
        max(r[0] for r in fp["ranks"]), rel=1e-9
    )


@settings(max_examples=10, deadline=None)
@given(programs)
def test_event_engine_is_run_to_run_deterministic(case):
    nprocs, program = case
    first = _fingerprint(nprocs, program)
    second = _fingerprint(nprocs, program)
    assert first == second


# Threads are shared only until the first collective (every rank is
# parked there at once), so half the programs open with shifts alone.
_shifts_first = st.tuples(
    st.integers(2, 128),
    st.builds(
        lambda shifts, rest: shifts + rest,
        st.lists(_shift, min_size=1, max_size=3),
        st.lists(_round, max_size=2),
    ),
)
_crashes = st.one_of(
    st.none(),
    # (victim seed, virtual crash time); a shift round is ~10 us.
    st.tuples(st.integers(0, 1_000_000), st.floats(0.0, 5e-5)),
)


@settings(max_examples=30, deadline=None)
@given(st.one_of(programs, _shifts_first), _crashes)
def test_reused_threads_change_nothing_observable(case, crash):
    nprocs, program = case
    plan = None
    if crash is not None:
        plan = FaultPlan(
            crashes=(CrashSpec(rank=crash[0] % nprocs, at_time=crash[1]),)
        )
    reused = _fingerprint(nprocs, program, faults=plan)
    frozen = _fingerprint(nprocs, program, faults=plan, engine=_ThreadPerRankEngine)
    assert reused.pop("threads") <= frozen.pop("threads") == nprocs
    assert reused == frozen
