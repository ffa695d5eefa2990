"""The critical-path recorder is a pure observer: charge parity on/off.

Mirrors :mod:`tests.obs.test_charge_parity` for the event-graph
recorder: random terminating communication programs run with and
without a :class:`~repro.obs.critpath.CritPathRecorder` must produce
byte-identical results, virtual clocks, byte ledgers, rank traces and
sanitizer vector clocks — the recorder never perturbs what it
measures.  Each recorded graph must also re-derive the simulator's
clocks from its own edges (``validate()``) and fully attribute the
makespan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.network import NetworkModel
from repro.obs.critpath import CritPathRecorder, critical_path
from repro.parallel.faults import FaultPlan
from repro.parallel.simmpi import VirtualCluster

from ..parallel.test_scheduler_properties import _round, _run_program

NET = NetworkModel(
    "critpath-parity-net",
    latency_us=5,
    bandwidth=1e9,
    cpu_overhead_per_byte=1e-9,
    busy_wait_fraction=0.5,
)

programs = st.tuples(
    st.integers(2, 16),
    st.lists(_round, min_size=1, max_size=4),
)


def _fingerprint(nprocs, program, recorder):
    cluster = VirtualCluster(nprocs, NET, sanitize=True, critpath=recorder)
    results = cluster.run(_run_program, program)
    return {
        "results": results,
        "ranks": [
            (st_.wall, st_.cpu, st_.sent_bytes, st_.recv_bytes, st_.messages)
            for st_ in cluster.ranks
        ],
        "traces": cluster.rank_traces(),
        "clocks": cluster._sanitizer.clocks(),
    }, cluster


@settings(max_examples=20, deadline=None)
@given(programs)
def test_recorder_is_charge_parity_clean_both_engines(case):
    nprocs, program = case
    rec = CritPathRecorder()
    on, cluster = _fingerprint(nprocs, program, rec)
    off, _ = _fingerprint(nprocs, program, None)
    for key in on:
        assert on[key] == off[key], f"recorder perturbed {key}"
    # The observer's graph re-derives the clocks it watched.
    rec.graph.validate()
    assert rec.graph.makespan() == pytest.approx(
        cluster.max_wall, rel=1e-9, abs=1e-15
    )
    cp = critical_path(rec.graph)
    assert cp.coverage == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=8, deadline=None)
@given(programs, st.integers(0, 2**31 - 1))
def test_recorder_parity_under_faults(case, seed):
    """Same contract with a lossy, degraded, straggling fault plan."""
    nprocs, program = case
    plan = FaultPlan(
        seed=seed,
        loss_rate=0.05,
        stragglers={0: 1.5},
        degraded_links={(0, 1 % nprocs): 2.0},
    )
    rec = CritPathRecorder()
    cluster_on = VirtualCluster(nprocs, NET, faults=plan, critpath=rec)
    res_on = cluster_on.run(_run_program, program)
    cluster_off = VirtualCluster(nprocs, NET, faults=plan)
    res_off = cluster_off.run(_run_program, program)
    assert res_on == res_off
    assert [s.wall for s in cluster_on.ranks] == [
        s.wall for s in cluster_off.ranks
    ]
    assert [s.cpu for s in cluster_on.ranks] == [
        s.cpu for s in cluster_off.ranks
    ]
    assert cluster_on.rank_traces() == cluster_off.rank_traces()
    rec.graph.validate()


def test_lossy_alltoall_draws_its_losses_once_recorder_or_not(monkeypatch):
    """A recorder must not make the Alltoall walk its loss draws again.

    The completion clock and its critical-path split come out of one
    pass over ``FaultPlan.collective_retransmits``: P(P-1) draws for the
    shared surcharge plus P-1 per rank for its own resend CPU, recorder
    or not.  A split that re-derives the surcharge on the side shows up
    here as extra draws.
    """
    nprocs = 8
    draws = []
    real = FaultPlan.collective_retransmits

    def counted(self, kind, seq, src, dst):
        draws.append((kind, seq, src, dst))
        return real(self, kind, seq, src, dst)

    monkeypatch.setattr(FaultPlan, "collective_retransmits", counted)
    plan = FaultPlan(seed=11, loss_rate=0.2)

    def prog(comm):
        comm.alltoall([bytes(64)] * comm.size)
        return comm.wall

    counts = {}
    for recorder in (None, CritPathRecorder()):
        draws.clear()
        walls = VirtualCluster(nprocs, NET, faults=plan, critpath=recorder).run(prog)
        counts[recorder is not None] = (len(draws), walls)
    assert counts[True] == counts[False]
    assert counts[False][0] == 2 * nprocs * (nprocs - 1)
