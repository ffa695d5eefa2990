"""The comm spans drawn from the event log are the ones simmpi drew live.

A traced run logs one row per priced event and draws its comm, idle and
fault spans and crash instants from that log after the ranks are done
(``repro.obs.tracer.spans_from_log``).  Random programs — ring shifts
with and without virtual recv timeouts, late senders, collectives — run
under lossy, straggler, degraded-link and crash plans, once as they are
and once with the frozen live-emitting bodies of
``tests/parallel/_emission_oracle.py``.  Clocks, results and every rank
track's comm/idle/fault events must be equal; the oracle carries the
one deliberate change, the recv idle span after expired timeouts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.network import NetworkModel
from repro.obs import Trace
from repro.parallel.faults import CrashSpec, FaultPlan, RankFailure, RecvTimeout
from repro.parallel.simmpi import VirtualCluster

from . import _emission_oracle

# Kernel-mediated (loss applies), with a busy-polling share.
NET = NetworkModel(
    "span-parity-net",
    latency_us=20,
    bandwidth=1e8,
    cpu_overhead_per_byte=2e-9,
    busy_wait_fraction=0.25,
)

_round = st.one_of(
    # ring shift: stride seed, doubles, how late odd ranks send, recv timeout
    st.tuples(
        st.just("shift"),
        st.integers(0, 10**6),
        st.sampled_from([1, 64, 3000]),
        st.sampled_from([0.0, 2e-4, 3e-3]),
        st.sampled_from([None, 1e-4, 1e-3]),
    ),
    st.sampled_from(["barrier", "allreduce", "alltoall", "bcast"]),
)
cases = st.tuples(
    st.integers(2, 8),
    st.lists(_round, min_size=1, max_size=5),
    st.sampled_from(["none", "lossy", "straggler", "degraded", "crash", "storm"]),
    st.integers(0, 2**31 - 1),
)


def _plan(name, seed, nprocs):
    lossy = {"loss_rate": 0.2, "retransmit_timeout": 1e-3}
    straggler = {"stragglers": {nprocs - 1: 2.5}}
    degraded = {"degraded_links": {(0, 1): 3.0}}
    crash = {"crashes": (CrashSpec(rank=nprocs - 1, at_time=2e-3),)}
    return {
        "none": None,
        "lossy": FaultPlan(seed=seed, **lossy),
        "straggler": FaultPlan(seed=seed, **straggler),
        "degraded": FaultPlan(seed=seed, **degraded),
        "crash": FaultPlan(seed=seed, **crash),
        "storm": FaultPlan(seed=seed, **lossy, **straggler, **degraded, **crash),
    }[name]


def _program(comm, program):
    acc = float(comm.rank)
    try:
        for i, op in enumerate(program):
            if isinstance(op, tuple):
                _, stride_seed, ndoubles, late, timeout = op
                stride = 1 + stride_seed % (comm.size - 1)
                if comm.rank % 2:
                    comm.compute(late)
                comm.send((comm.rank + stride) % comm.size, np.full(ndoubles, acc), tag=i)
                src = (comm.rank - stride) % comm.size
                got = comm.recv(src, tag=i, timeout=timeout, retries=2)
                acc += float(got[0])
            elif op == "barrier":
                comm.barrier()
            elif op == "allreduce":
                acc += comm.allreduce(float(comm.rank))
            elif op == "alltoall":
                acc += float(comm.alltoall([np.array([acc])] * comm.size)[0][0])
            else:
                acc += comm.bcast(acc if comm.rank == 0 else None)
            comm.compute(1e-4 * (comm.rank + 1))
    except (RankFailure, RecvTimeout) as stop:
        return type(stop).__name__, comm.wall, comm.cpu_time
    return acc, comm.wall, comm.cpu_time


def _run(case):
    nprocs, program, plan, seed = case
    trace = Trace()
    cluster = VirtualCluster(
        nprocs, NET, verify=False, trace=trace, faults=_plan(plan, seed, nprocs)
    )
    try:
        outcome = cluster.run(_program, program)
    except Exception as exc:  # a rank stranded by a timed-out peer
        outcome = type(exc).__name__
    drawn = {
        r: [
            (e.name, e.cat, e.ts, e.dur, e.args, e.ph)
            for e in tr.events
            if e.cat in ("comm", "idle", "fault")
        ]
        for r, tr in sorted(trace.tracers.items())
    }
    clocks = [(s.wall, s.cpu, s.sent_bytes, s.recv_bytes) for s in cluster.ranks]
    return outcome, clocks, drawn


@settings(max_examples=60, deadline=None)
@given(cases)
def test_spans_from_the_log_are_the_live_emission(case):
    got = _run(case)
    with pytest.MonkeyPatch.context() as mp:
        _emission_oracle.install(mp)
        want = _run(case)
    assert got == want
