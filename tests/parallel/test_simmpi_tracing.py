"""simmpi -> observability layer: comm/idle spans, metrics, rank_traces."""

import numpy as np
import pytest

from repro.machines.network import NetworkModel
from repro.obs import MetricsRegistry, Trace, scoped
from repro.parallel.simmpi import VirtualCluster

NET = NetworkModel("test", latency_us=10, bandwidth=1e8, busy_wait_fraction=0.5)


def _run_exchange(trace=None, registry=None):
    cl = VirtualCluster(2, NET, trace=trace)

    def work(comm):
        data = np.ones(512) * comm.rank
        if comm.rank == 0:
            comm.compute(0.1)  # rank 0 arrives late at the collective
        comm.alltoall([data, data])
        if comm.rank == 0:
            comm.send(1, data, tag=3)
        else:
            comm.recv(0, tag=3)
        comm.barrier()
        return comm.wall

    if registry is not None:
        with scoped(registry):
            return cl, cl.run(work)
    return cl, cl.run(work)


def test_untraced_run_emits_nothing():
    cl, walls = _run_exchange()
    assert cl.trace is None
    assert walls[0] == walls[1]  # barrier synchronises


def test_comm_spans_on_virtual_timeline():
    trace = Trace()
    _cl, _walls = _run_exchange(trace=trace)
    assert trace.nranks == 2
    events = trace.events()
    by_rank_cat = {}
    for e in events:
        by_rank_cat.setdefault((e.rank, e.cat), []).append(e)

    send = next(e for e in events if e.name == "send -> 1")
    assert send.rank == 0
    assert send.args["bytes"] == 512 * 8
    assert send.args["tag"] == 3
    recv = next(e for e in events if e.name == "recv <- 0")
    assert recv.rank == 1
    assert recv.args["waited"] >= 0.0

    # Rank 1 idles at the alltoall while rank 0 computes 0.1s.
    idle = [e for e in by_rank_cat[(1, "idle")] if "alltoall" in e.name]
    assert idle and idle[0].dur == pytest.approx(0.1, rel=1e-6)
    # Timestamps are virtual: the collective starts at rank 1's entry.
    assert idle[0].ts == pytest.approx(0.0, abs=1e-9)
    assert not [
        e for e in by_rank_cat.get((0, "idle"), []) if "alltoall" in e.name
    ]

    colls = [e for e in events if e.cat == "comm" and e.name == "alltoall"]
    assert {e.rank for e in colls} == {0, 1}
    barriers = [e for e in events if e.name == "barrier"]
    assert len(barriers) == 2


def test_metrics_from_comm():
    reg = MetricsRegistry()
    _run_exchange(registry=reg)
    snap = reg.snapshot()
    assert snap["comm.sends"]["value"] == 1.0
    assert snap["comm.recvs"]["value"] == 1.0
    assert snap["comm.collectives"]["value"] == 4.0  # 2 ranks x (a2a+barrier)
    assert snap["comm.collective.alltoall"]["value"] == 2.0
    assert snap["comm.collective.barrier"]["value"] == 2.0
    # point-to-point + both ranks' alltoall chunks
    assert snap["comm.message_bytes"]["count"] == 3
    assert snap["comm.bytes_sent"]["value"] == snap["comm.bytes_recv"]["value"]


def test_rank_traces_public_api():
    cl, _walls = _run_exchange()
    traces = cl.rank_traces()
    assert sorted(traces) == [0, 1]
    assert any(t.startswith("alltoall #") for t in traces[0])
    assert "send -> 1 tag=3 (4096B)" in traces[0]
    assert "recv <- 0 tag=3 (4096B)" in traces[1]
    assert any(t.startswith("barrier #") for t in traces[1])
    subset = cl.rank_traces([1])
    assert sorted(subset) == [1]
    # Returned lists are copies, not the live rings.
    subset[1].append("tampered")
    assert "tampered" not in cl.rank_traces([1])[1]


def test_trace_reuse_across_runs_appends():
    trace = Trace()
    cl = VirtualCluster(2, NET, trace=trace)

    def ping(comm):
        if comm.rank == 0:
            comm.send(1, 1.0)
        else:
            comm.recv(0)

    cl.run(ping)
    n1 = len(trace.events())
    cl.run(ping)
    assert len(trace.events()) > n1
