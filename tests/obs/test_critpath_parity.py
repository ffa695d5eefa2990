"""The critical-path recorder is a pure observer: charge parity on/off.

Mirrors :mod:`tests.obs.test_charge_parity` for the event-graph
recorder: random terminating communication programs run with and
without a :class:`~repro.obs.critpath.CritPathRecorder` must produce
byte-identical results, virtual clocks, byte ledgers and rank traces —
the recorder never perturbs what it measures.  ``sanitize=True`` reads
its vector clocks off the recorder's graph, so the unrecorded run has
none; its clocks come instead from the frozen piggybacking detector
replayed over the unrecorded run's traces, and must equal the recorded
run's.  Each recorded graph must also re-derive the simulator's clocks
from its own edges (``validate()``) and fully attribute the makespan.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.network import NetworkModel
from repro.obs import metrics
from repro.obs.critpath import CritPathRecorder
from repro.parallel.faults import FaultPlan
from repro.parallel.simmpi import VirtualCluster, VirtualComm, payload_bytes

from ..parallel._faults_oracle import collective_retransmits
from ..parallel._race_oracle import replay
from ..parallel.test_scheduler_properties import _round, _run_program
from ._graphs import critical_path, makespan

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
    # Sanitize only with a recorder: ``sanitize=True`` alone would
    # attach one, and the unrecorded side must have none.
    cluster = VirtualCluster(
        nprocs, NET, sanitize=recorder is not None, critpath=recorder
    )
    results = cluster.run(_run_program, program)
    traces = cluster.rank_traces()
    hb = cluster.happens_before
    return {
        "results": results,
        "ranks": [
            (st_.wall, st_.cpu, st_.sent_bytes, st_.recv_bytes, st_.messages)
            for st_ in cluster.ranks
        ],
        "traces": traces,
        "clocks": (
            replay(nprocs, traces, [])[0].clocks() if hb is None else hb.clocks
        ),
    }, cluster


@settings(max_examples=20, deadline=None)
@given(programs)
def test_recorder_is_charge_parity_clean(case):
    nprocs, program = case
    rec = CritPathRecorder()
    on, cluster = _fingerprint(nprocs, program, rec)
    off, plain = _fingerprint(nprocs, program, None)
    assert plain._critpath is None and plain.happens_before is None
    for key in on:
        assert on[key] == off[key], f"recorder perturbed {key}"
    # The observer's graph re-derives the clocks it watched.
    rec.graph.validate()
    assert makespan(rec.graph) == pytest.approx(
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


def _count_draws(monkeypatch):
    """Record every row drawn, as ``(kind, seq, src, size)``."""
    draws = []
    real = FaultPlan.collective_row

    def counted(self, kind, seq, src, size):
        draws.append((kind, seq, src, size))
        return real(self, kind, seq, src, size)

    monkeypatch.setattr(FaultPlan, "collective_row", counted)
    return draws


def _lossy_prog(comm):
    comm.alltoall([bytes(64)] * comm.size)
    return comm.wall


def test_lossy_alltoall_draws_its_losses_once_recorder_or_not(monkeypatch):
    """Each (source, dest) loss of an Alltoall instance is drawn once.

    A rank draws its own row of P-1 losses at entry (for its resend
    CPU), in one ``FaultPlan.collective_row`` call, and hands the row to
    the rendezvous, where the last arriver prices the shared surcharge —
    and, with a recorder, its critical-path split — from the P rows
    already there: P rows (P(P-1) draws) per call, recorder or not.

    Every row used to be drawn twice: the last arriver re-drew them
    all (the draws are a pure function of the plan, so nothing was
    wrong — a lossy TCP job just cost three times a Myrinet one on the
    host).  The pricing the re-draw produced is frozen below as
    ``_parent_alltoall`` and compared value for value.  A row used to
    be P-1 per-pair draws; each row still equals them
    (``tests/parallel/_faults_oracle``).
    """
    nprocs = 8
    draws = _count_draws(monkeypatch)
    plan = FaultPlan(seed=11, loss_rate=0.2)
    counts = {}
    for recorder in (None, CritPathRecorder()):
        draws.clear()
        walls = VirtualCluster(nprocs, NET, faults=plan, critpath=recorder).run(
            _lossy_prog
        )
        assert sorted(draws) == [("alltoall", 0, s, nprocs) for s in range(nprocs)]
        counts[recorder is not None] = (len(draws), walls)
    assert counts[True] == counts[False]
    assert counts[False][0] == nprocs
    for s in range(nprocs):
        assert plan.collective_row("alltoall", 0, s, nprocs) == [
            collective_retransmits(plan, "alltoall", 0, s, d) for d in range(nprocs) if d != s
        ]


def test_reused_cluster_draws_again_and_keeps_no_rows(monkeypatch):
    """A row lives as long as its collective instance: nothing is kept
    on the cluster or the plan for a second ``run()`` to find."""
    nprocs = 6
    draws = _count_draws(monkeypatch)
    cluster = VirtualCluster(nprocs, NET, faults=FaultPlan(seed=3, loss_rate=0.3))
    first = cluster.run(_lossy_prog)
    assert len(draws) == nprocs and cluster._collectives == {}
    second = cluster.run(_lossy_prog)
    assert len(draws) == 2 * nprocs and cluster._collectives == {}
    # Fresh communicators restart the per-rank Alltoall counter, so the
    # second run meets the same losses on top of the first run's clocks.
    assert draws[: len(draws) // 2] == draws[len(draws) // 2 :]
    assert [b - a for a, b in zip(first, second)] == pytest.approx(first, rel=1e-12)


def _parent_alltoall(self, chunks):
    """``VirtualComm.alltoall`` as it was before PR 21, frozen: every
    rank re-draws its row, and the last arriver re-draws all P rows."""
    if len(chunks) != self.size:
        raise ValueError("alltoall needs one chunk per rank")
    cl = self.cluster
    net = cl.network
    me = self.rank
    nbytes = max((payload_bytes(c) for c in chunks), default=0)
    copied = 2.0 * nbytes * (self.size - 1) if self.size > 1 else float(nbytes)
    overhead = net.cpu_time_for_bytes(copied)
    self._st.cpu += overhead
    self._st.sent_bytes += nbytes * (self.size - 1)
    self._st.recv_bytes += nbytes * (self.size - 1)
    self._st.messages += self.size - 1
    metrics.observe("comm.message_bytes", nbytes)
    metrics.inc("comm.bytes_sent", nbytes * (self.size - 1))
    metrics.inc("comm.bytes_recv", nbytes * (self.size - 1))

    plan = cl._plan
    stretch = 1.0
    seq_f = 0
    lossy = False
    if plan is not None:
        seq_f = self._a2a_seq
        self._a2a_seq = seq_f + 1
        if plan.degraded_links and self.size > 1:
            stretch = plan.max_link_factor(self.size)
        lossy = plan.loss_applies(net) and self.size > 1

    def resends(s):
        return [
            collective_retransmits(plan, "alltoall", seq_f, s, d)
            for d in range(self.size)
            if d != s
        ]

    if lossy:
        mine = sum(resends(me))
        if mine:
            self._st.cpu += net.cpu_time_for_bytes(mine * nbytes)
            metrics.inc("faults.retransmits", mine)
            metrics.inc("faults.retransmitted_bytes", mine * nbytes)

    def price(t0, sizes, split):
        m = max(sizes.values()) if sizes else 0
        base = stretch * net.alltoall_time(self.size, m)
        t_done = t0 + base + overhead
        if lossy:
            wire = m / net.bandwidth

            def surcharge(rets):
                return sum(plan.retransmit_delay(nr) + nr * wire for nr in rets)

            slowest = max(map(resends, range(self.size)), key=surcharge)
            loss = surcharge(slowest)
            t_done += loss
        if not split:
            return t_done, None
        lat = stretch * net.alltoall_time(self.size, 0)
        comps = {"latency": lat, "bandwidth": base - lat, "overhead": overhead}
        meta = {
            "kind": "alltoall",
            "n": self.size,
            "nbytes": m,
            "stretch": stretch,
            "obytes": copied,
        }
        if lossy:
            rto = sum(plan.retransmit_delay(nr) for nr in slowest)
            comps["idle"] = rto
            comps["bandwidth"] += loss - rto
            meta["ebytes"] = sum(slowest) * m
        return t_done, (comps, meta)

    out = self._collective(
        "alltoall",
        chunks,
        lambda data: {
            r: [data[s][r] for s in range(self.size)] for r in sorted(data)
        },
        price=price,
        entry_size=nbytes,
    )
    return out[me]


lossy_cases = st.tuples(
    st.integers(2, 12),  # P
    st.floats(0.01, 0.7),  # loss_rate
    st.integers(0, 2**31 - 1),  # plan seed
    # One entry per consecutive call: (base chunk bytes, per-rank step).
    st.lists(
        st.tuples(st.integers(0, 4096), st.integers(0, 64)), min_size=1, max_size=3
    ),
    st.booleans(),  # degraded links
    st.booleans(),  # recorder attached
)


def _lossy_fingerprint(case):
    nprocs, loss_rate, seed, calls, degraded, recorded = case
    plan = FaultPlan(
        seed=seed,
        loss_rate=loss_rate,
        degraded_links={(0, 1): 2.5, (1, nprocs - 1): 1.5} if degraded else {},
    )

    def prog(comm):
        got = []
        for base, step in calls:
            # Ranks disagree on their max chunk size; the compute in
            # between staggers who arrives last.
            comm.compute(1e-5 * ((comm.rank * 7) % comm.size))
            got.append(
                comm.alltoall(
                    [bytes(base + step * ((comm.rank + d) % 3)) for d in range(comm.size)]
                )
            )
        return [[len(c) for c in row] for row in got]

    recorder = CritPathRecorder() if recorded else None
    cluster = VirtualCluster(nprocs, NET, faults=plan, critpath=recorder)
    with metrics.scoped() as reg:
        results = cluster.run(prog)
    snap = reg.snapshot()
    return {
        "results": results,
        "ranks": [
            (s.wall, s.cpu, s.sent_bytes, s.recv_bytes, s.messages)
            for s in cluster.ranks
        ],
        "retransmits": snap.get("faults.retransmits"),
        "retransmitted_bytes": snap.get("faults.retransmitted_bytes"),
        "graph": None if recorder is None else recorder.graph.to_dict(),
        "leftover": dict(cluster._collectives),
    }


@settings(max_examples=60, deadline=None)
@given(lossy_cases)
def test_lossy_alltoall_prices_as_the_parents_redraw_did(case):
    """One draw per pair gives, bit for bit, what two gave: clocks, byte
    ledgers, retransmit counters and the recorded event graph."""
    got = _lossy_fingerprint(case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VirtualComm, "alltoall", _parent_alltoall)
        want = _lossy_fingerprint(case)
    assert got == want
    assert got["leftover"] == {}
