"""``VirtualComm.alltoall`` against its frozen per-chunk body.

The Alltoall sizes a rank's P chunks with C-level ``map`` passes
(``.nbytes`` when every chunk is exactly an ``np.ndarray``, else
``payload_bytes`` over the list) and transposes the P x P exchange with one ``zip``.  The body
it replaced walked the chunks through a generator and built the
transpose as a nested comprehension; it is frozen below as
``_parent_alltoall`` and compared over every payload kind
``payload_bytes`` prices: returned objects (by identity), virtual
clocks, byte ledgers, rank traces, metrics, scheduler counts and the
recorded event graph.  Memoryviews are left out: their price changed
on purpose (``test_comm_verifier``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.network import NetworkModel
from repro.obs import metrics
from repro.obs.critpath import CritPathRecorder
from repro.parallel import simmpi
from repro.parallel.faults import FaultPlan
from repro.parallel.simmpi import VirtualCluster, VirtualComm, payload_bytes

# Kernel-mediated (cpu_overhead_per_byte > 0), so a FaultPlan's loss
# applies to the Alltoall.
NET = NetworkModel(
    "alltoall-oracle-net",
    latency_us=5,
    bandwidth=1e9,
    cpu_overhead_per_byte=1e-9,
    busy_wait_fraction=0.5,
)


def _parent_alltoall(self, chunks):
    """``VirtualComm.alltoall`` before the ``map`` sizing and the
    ``zip`` transpose, frozen."""
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

    resends = []
    if lossy:
        resends = [
            plan.collective_retransmits("alltoall", seq_f, me, d)
            for d in range(self.size)
            if d != me
        ]
        mine = sum(resends)
        if mine:
            self._st.cpu += net.cpu_time_for_bytes(mine * nbytes)
            metrics.inc("faults.retransmits", mine)
            metrics.inc("faults.retransmitted_bytes", mine * nbytes)

    def price(t0, sizes, split):
        m = max((size for size, _ in sizes.values()), default=0)
        base = stretch * net.alltoall_time(self.size, m)
        t_done = t0 + base + overhead
        if lossy:
            wire = m / net.bandwidth

            def surcharge(rets):
                return sum(plan.retransmit_delay(nr) + nr * wire for nr in rets)

            slowest = max((sizes[s][1] for s in range(self.size)), key=surcharge)
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
        entry_size=(nbytes, resends),
    )
    return out[me]


class _Tagged(np.ndarray):
    """An ndarray subclass: priced like an array, but not exactly one."""


_sizes = st.integers(0, 40)
_dtypes = st.sampled_from([np.float64, np.complex128, np.int32, np.uint8])

arrays = st.one_of(
    st.builds(lambda n, dt: np.zeros(n, dt), _sizes, _dtypes),
    # Non-contiguous views: strided and transposed.
    st.builds(lambda n, k: np.arange(n * k, dtype=float)[::k], _sizes, st.integers(2, 3)),
    st.builds(lambda a, b: np.ones((a, b)).T, st.integers(0, 5), st.integers(0, 5)),
)
leaves = st.one_of(
    arrays,
    st.builds(lambda n: np.zeros(n).view(_Tagged), _sizes),
    st.one_of(
        st.builds(np.float64, st.floats(allow_nan=False)),
        st.builds(np.int32, st.integers(-100, 100)),
        st.builds(np.bool_, st.booleans()),
    ),
    st.binary(max_size=48),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),  # priced by its pickled size
)
payloads = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.integers(0, 9), kids, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def cases(draw):
    nprocs = draw(st.integers(1, 12))
    rows = []
    for _ in range(nprocs):
        # Exact-ndarray rows take the ``.nbytes`` branch, mixed rows the
        # ``payload_bytes`` one; one array sent P times is the bench's row.
        row = draw(
            st.one_of(
                st.lists(arrays, min_size=nprocs, max_size=nprocs),
                arrays.map(lambda a, n=nprocs: [a] * n),
                st.lists(payloads, min_size=nprocs, max_size=nprocs),
            )
        )
        rows.append(row)
    lossy = draw(st.booleans())
    plan = (
        FaultPlan(
            seed=draw(st.integers(0, 2**31 - 1)),
            loss_rate=draw(st.floats(0.01, 0.6)),
        )
        if lossy
        else None
    )
    return nprocs, rows, plan, draw(st.integers(1, 2)), draw(st.booleans())


def _fingerprint(case):
    nprocs, rows, plan, ncalls, recorded = case

    def prog(comm):
        got = []
        for _ in range(ncalls):
            # Stagger who arrives last at the rendezvous.
            comm.compute(1e-6 * ((comm.rank * 5) % comm.size))
            got.append(comm.alltoall(rows[comm.rank]))
        return got

    recorder = CritPathRecorder() if recorded else None
    cluster = VirtualCluster(nprocs, NET, faults=plan, critpath=recorder)
    with metrics.scoped() as reg:
        results = cluster.run(prog)
    state = {
        "ranks": [
            (s.wall, s.cpu, s.sent_bytes, s.recv_bytes, s.messages)
            for s in cluster.ranks
        ],
        "traces": cluster.rank_traces(),
        "metrics": reg.snapshot(),
        "engine": cluster.engine_stats(),
        "graph": None if recorder is None else recorder.graph.to_dict(),
        "leftover": dict(cluster._collectives),
    }
    return results, state


@settings(max_examples=80, deadline=None)
@given(cases())
def test_alltoall_matches_its_frozen_parent(case):
    nprocs, rows, _plan, ncalls, _recorded = case
    got, got_state = _fingerprint(case)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VirtualComm, "alltoall", _parent_alltoall)
        want, want_state = _fingerprint(case)
    assert got_state == want_state
    assert got_state["leftover"] == {}
    for me in range(nprocs):
        for call in range(ncalls):
            row, ref = got[me][call], want[me][call]
            assert type(row) is list and len(row) == nprocs
            # The very objects each source sent, in source order.
            assert all(a is b for a, b in zip(row, ref))
            assert all(row[s] is rows[s][me] for s in range(nprocs))


def _count_payload_bytes(monkeypatch):
    calls = []
    real = simmpi.payload_bytes

    def counted(obj):
        calls.append(type(obj))
        return real(obj)

    monkeypatch.setattr(simmpi, "payload_bytes", counted)
    return calls


def test_ndarray_chunks_are_sized_without_payload_bytes(monkeypatch):
    """An all-ndarray chunk list — every NekTar-F transpose and the
    bench's Alltoall — is sized from ``.nbytes`` alone."""
    calls = _count_payload_bytes(monkeypatch)
    nprocs = 8

    def prog(comm):
        ragged = [np.zeros(1 + (comm.rank * d) % 5) for d in range(comm.size)]
        return comm.alltoall(ragged), comm.alltoall([np.ones(3)[::2]] * comm.size)

    results = VirtualCluster(nprocs, NET).run(prog)
    assert calls == []
    assert [len(r[0]) for r in results] == [nprocs] * nprocs
    # The counter does see the other branch: one mixed chunk list pays
    # one payload_bytes call per chunk.
    VirtualCluster(2, NET).run(lambda comm: comm.alltoall([np.zeros(2), b"ab"]))
    assert calls == [np.ndarray, bytes] * 2
