"""Critical-path profiler: hand-built graphs, real clusters, counterfactuals.

Three layers of evidence:

* **hand-built graphs** where the longest path is known by construction
  (a ring chain, a collapsed alltoall join, a planted straggler) — the
  backward walk must find exactly that path;
* **real recordings** from :class:`~repro.parallel.simmpi.VirtualCluster`
  runs — ``validate()`` must re-derive the simulator's clocks from the
  edges and the path must attribute (cover) the whole makespan;
* **counterfactual re-weighting** — zero-latency / fabric-swap /
  remove-straggler must answer without re-running, and where a re-run
  oracle exists (actually re-running on the other fabric) they must
  agree on the ordering.
"""

import numpy as np
import pytest

from repro.machines.network import NetworkModel
from repro.obs.critpath import (
    CritPathRecorder,
    Edge,
    EventGraph,
    analyze,
    render_critpath_report,
    swap_network,
)
from repro.parallel.faults import FaultPlan
from repro.parallel.simmpi import VirtualCluster

from ._graphs import add_edge, critical_path, makespan, whatif

ETH = NetworkModel(
    "test-eth",
    latency_us=100,
    bandwidth=10e6,
    cpu_overhead_per_byte=2e-8,
    busy_wait_fraction=0.3,
    full_duplex=False,
)
MYR = NetworkModel(
    "test-myr",
    latency_us=10,
    bandwidth=100e6,
    cpu_overhead_per_byte=0.0,
    busy_wait_fraction=1.0,
)


# ----------------------------------------------------------- hand-built graphs


def test_ring_chain_longest_path():
    """A 3-rank ring of send->recv edges: the chain through all hops wins."""
    g = EventGraph(3)
    starts = [g.add_node(r, "start", "start", 0.0) for r in range(3)]
    # rank 0 computes 1s, sends to 1; rank 1 computes 0.1s then receives.
    s0 = g.add_node(0, "send", "send#0", 1.0)
    add_edge(g, s0, Edge(src=starts[0], cpu=1.0))
    r1 = g.add_node(1, "recv", "recv#0", 1.5)
    add_edge(g, r1, Edge(src=starts[1], cpu=0.1))
    add_edge(g, r1, Edge(src=s0, latency=0.2, bandwidth=0.3, kind="message"))
    s1 = g.add_node(1, "send", "send#1", 1.6)
    add_edge(g, s1, Edge(src=r1, cpu=0.1))
    r2 = g.add_node(2, "recv", "recv#1", 2.1)
    add_edge(g, r2, Edge(src=starts[2], cpu=0.05))
    add_edge(g, r2, Edge(src=s1, latency=0.2, bandwidth=0.3, kind="message"))
    g.validate()

    cp = critical_path(g)
    assert cp.makespan == pytest.approx(2.1)
    assert cp.coverage == pytest.approx(1.0)
    # The path hops 0 -> 1 -> 2, never through rank 1/2's local compute.
    assert [s.rank for s in cp.segments] == [0, 1, 1, 2]
    assert [s.kind for s in cp.segments] == [
        "local", "message", "local", "message",
    ]
    res = cp.by_resource()
    # Path cpu: rank 0's 1.0s + rank 1's 0.1s between recv and send (the
    # 0.1s before rank 1's recv is NOT on the path — the message binds).
    assert res["cpu"] == pytest.approx(1.1)
    assert res["latency"] == pytest.approx(0.4)
    assert res["bandwidth"] == pytest.approx(0.6)


def test_alltoall_join_binds_to_last_arrival():
    """Collapsed collective: release waits for the slowest arrival, and
    the path runs through that rank only."""
    g = EventGraph(4)
    starts = [g.add_node(r, "start", "start", 0.0) for r in range(4)]
    compute = [0.1, 0.7, 0.2, 0.3]
    arrives = []
    for r in range(4):
        a = g.add_node(r, "arrive", "alltoall#0", compute[r])
        add_edge(g, a, Edge(src=starts[r], cpu=compute[r]))
        arrives.append(a)
    sync = g.add_node(-1, "sync", "alltoall#0", 0.7)
    for a in arrives:
        add_edge(g, sync, Edge(src=a, kind="sync"))
    release = g.add_node(-1, "release", "alltoall#0", 0.9)
    add_edge(
        g,
        release,
        Edge(src=sync, latency=0.05, bandwidth=0.15, kind="alltoall", n=4),
    )
    g.validate()

    cp = critical_path(g)
    assert cp.makespan == pytest.approx(0.9)
    assert cp.coverage == pytest.approx(1.0)
    # Straggler rank 1 is on the path; the release edge inherits its rank.
    assert {s.rank for s in cp.segments} == {1}


def test_planted_straggler_path_and_counterfactual():
    """Two ranks compute then join; the path runs through the straggler
    and scaling its cpu away re-binds the join to the other rank."""
    g = EventGraph(2)
    s0 = g.add_node(0, "start", "start", 0.0)
    s1 = g.add_node(1, "start", "start", 0.0)
    a0 = g.add_node(0, "arrive", "barrier#0", 1.0)
    add_edge(g, a0, Edge(src=s0, cpu=1.0))
    a1 = g.add_node(1, "arrive", "barrier#0", 4.0)  # 4x straggler
    add_edge(g, a1, Edge(src=s1, cpu=4.0))
    sync = g.add_node(-1, "sync", "barrier#0", 4.0)
    add_edge(g, sync, Edge(src=a0, kind="sync"))
    add_edge(g, sync, Edge(src=a1, kind="sync"))
    rel = g.add_node(-1, "release", "barrier#0", 4.5)
    add_edge(g, rel, Edge(src=sync, latency=0.5, kind="barrier", n=2))
    g.validate()

    cp = critical_path(g)
    assert cp.makespan == pytest.approx(4.5)
    assert {s.rank for s in cp.segments} == {1}, "path must run through straggler"
    assert cp.by_rank() == pytest.approx({1: 4.5})

    # Removing the straggler re-binds to rank 0's 1.0s compute.
    assert whatif(g, rank_cpu_scale={1: 0.25}) == pytest.approx(1.5)
    # Generic component scalings.
    assert whatif(g, latency_scale=0.0) == pytest.approx(4.0)
    assert whatif(g, cpu_scale=0.0) == pytest.approx(0.5)


def test_topological_order_enforced():
    g = EventGraph(1)
    a = g.add_node(0, "start", "start", 0.0)
    with pytest.raises(ValueError):
        add_edge(g, a, Edge(src=a))
    with pytest.raises(ValueError):
        add_edge(g, a, Edge(src=5))


def test_validate_catches_wrong_anchor():
    g = EventGraph(1)
    s = g.add_node(0, "start", "start", 0.0)
    n = g.add_node(0, "finish", "finish", 2.0)  # anchored wrong
    add_edge(g, n, Edge(src=s, cpu=1.0))
    with pytest.raises(AssertionError):
        g.validate()


# ----------------------------------------------------------- real recordings


def _mixed_program(comm):
    data = np.arange(64, dtype=float) + comm.rank
    comm.compute(1e-4 * (1 + comm.rank % 3))
    comm.alltoall([data.copy() for _ in range(comm.size)])
    nxt = (comm.rank + 1) % comm.size
    prv = (comm.rank - 1) % comm.size
    comm.send(nxt, data, tag=7)
    got = comm.recv(prv, tag=7)
    total = comm.allreduce(float(got[0]))
    comm.barrier()
    return total


def _rooted_program(comm):
    """The collectives ``_mixed_program`` leaves out, off-zero roots."""
    data = np.arange(2048, dtype=float) + comm.rank  # past eager_threshold
    comm.compute(1e-4 * (1 + comm.rank % 3))
    got = comm.bcast(data if comm.rank == 1 else None, root=1)
    comm.compute(2e-5 * (1 + got[0] % 2))
    ranks = comm.allgather(comm.rank)
    return comm.allreduce(float(sum(ranks)), op="max")


#: Between them, every collective kind a ``VirtualComm`` runs.
PROGRAMS = pytest.mark.parametrize(
    "program", [_mixed_program, _rooted_program], ids=lambda f: f.__name__
)


@PROGRAMS
def test_recorded_graph_rederives_clocks(program):
    rec = CritPathRecorder()
    cl = VirtualCluster(6, ETH, critpath=rec)
    cl.run(program)
    g = rec.graph
    g.validate()
    assert makespan(g) == pytest.approx(cl.max_wall, rel=1e-9)
    cp = critical_path(g)
    assert cp.coverage == pytest.approx(1.0, abs=1e-6)
    # Every segment names a live rank.
    assert all(0 <= s.rank < 6 for s in cp.segments)


def test_recorder_off_graph_empty_run_unchanged():
    """Recorder on vs off: identical results and clocks (charge parity)."""
    rec = CritPathRecorder()
    on = VirtualCluster(4, ETH, critpath=rec)
    res_on = on.run(_mixed_program)
    off = VirtualCluster(4, ETH)
    res_off = off.run(_mixed_program)
    assert res_on == res_off
    assert [s.wall for s in on.ranks] == [s.wall for s in off.ranks]
    assert [s.cpu for s in on.ranks] == [s.cpu for s in off.ranks]
    assert len(rec.graph) > 0


def test_counterfactuals_bound_by_recorded():
    rec = CritPathRecorder()
    cl = VirtualCluster(8, ETH, critpath=rec)
    cl.run(_mixed_program)
    g = rec.graph
    mk = makespan(g)
    assert whatif(g, latency_scale=0.0) < mk
    assert whatif(g, bandwidth_scale=0.0) < mk
    assert whatif(g) == pytest.approx(mk)  # identity re-weighting


def test_swap_network_matches_rerun_ordering():
    """Counterfactual fabric swap vs actually re-running on that fabric:
    same direction, and the counterfactual lands near the true value."""
    rec = CritPathRecorder()
    cl = VirtualCluster(6, ETH, critpath=rec)
    cl.run(_mixed_program)
    predicted_myr = swap_network(rec.graph, MYR)

    truth = VirtualCluster(6, MYR)
    truth.run(_mixed_program)
    assert predicted_myr < cl.max_wall
    assert predicted_myr == pytest.approx(truth.max_wall, rel=0.05)


@PROGRAMS
def test_swap_identity_is_exact(program):
    """Swapping to the SAME network must reproduce the recorded makespan
    (the repricing formulas cover every recorded component)."""
    rec = CritPathRecorder()
    cl = VirtualCluster(5, ETH, critpath=rec)
    cl.run(program)
    assert swap_network(rec.graph, ETH) == pytest.approx(
        makespan(rec.graph), rel=1e-9
    )


def test_faultplan_straggler_on_path():
    """A 4x compute straggler owns the critical path; the remove-straggler
    counterfactual strictly beats the recorded makespan."""
    plan = FaultPlan(seed=3, stragglers={2: 4.0})

    def prog(comm):
        comm.compute(2e-3)
        comm.barrier()
        return comm.wall

    rec = CritPathRecorder()
    cl = VirtualCluster(4, ETH, faults=plan, critpath=rec)
    cl.run(prog)
    rec.graph.validate()
    cp = critical_path(rec.graph)
    br = cp.by_rank()
    assert max(br, key=br.get) == 2
    removed = whatif(rec.graph, rank_cpu_scale={2: 0.25})
    assert removed < cp.makespan


def test_fault_storm_validates_and_attributes_idle():
    """Loss + stragglers + degraded link: the graph still re-derives the
    clocks exactly, and RTO idle shows up as a resource."""
    plan = FaultPlan(
        seed=1999, loss_rate=0.1, stragglers={1: 2.0},
        degraded_links={(0, 1): 3.0},
    )

    def prog(comm):
        data = np.arange(32, dtype=float)
        comm.compute(1e-4)
        comm.alltoall([data.copy() for _ in range(comm.size)])
        comm.send((comm.rank + 1) % comm.size, data, tag=1)
        comm.recv((comm.rank - 1) % comm.size, tag=1, timeout=5.0, retries=2)
        comm.barrier()
        return comm.wall

    rec = CritPathRecorder()
    cl = VirtualCluster(6, ETH, faults=plan, critpath=rec)
    cl.run(prog)
    g = rec.graph
    g.validate()
    # A collective's split comes out of the same pass as its clock, so
    # the release edge's five components are the priced duration — far
    # inside validate()'s 1e-6, surcharges and link stretch included.
    releases = [i for i, kind in enumerate(g.node_kind) if kind == "release"]
    assert [g.node_label[i] for i in releases] == ["alltoall#0", "barrier#0"]

    def in_edges(node):
        return [Edge(*row[1:]) for row in g.edges if row[0] == node]

    for i in releases:
        (e,) = in_edges(i)
        assert e.total() == pytest.approx(g.node_t[i] - g.node_t[e.src], rel=1e-12)
    (a2a,) = in_edges(releases[0])
    assert a2a.idle > 0.0 and a2a.ebytes > 0.0 and a2a.stretch == 3.0
    cp = critical_path(g)
    assert cp.coverage == pytest.approx(1.0, abs=1e-6)
    assert cp.by_resource()["idle"] > 0.0, "RTO backoff must be attributed"
    # Wiping the idle (the losses) strictly improves the makespan.
    assert whatif(g, idle_scale=0.0) < cp.makespan


def test_stage_attribution_via_stage_scope():
    # The recorder reads the thread's stage tag, which StageScope
    # maintains with exactly these two calls.
    from repro.obs.tracer import pop_stage, push_stage

    def prog(comm):
        push_stage("2:transpose")
        comm.alltoall(
            [np.zeros(16) for _ in range(comm.size)]
        )
        pop_stage()
        push_stage("5:solve")
        # Compute is attributed at the next event node, so the
        # join must happen inside the scope (the solver's shape:
        # collectives live inside their stage spans).
        comm.compute(1e-3)
        comm.barrier()
        pop_stage()
        return comm.wall

    rec = CritPathRecorder()
    cl = VirtualCluster(3, ETH, critpath=rec)
    cl.run(prog)
    cp = critical_path(rec.graph)
    stages = cp.by_stage()
    assert "5:solve" in stages  # the 1ms compute dominates the path
    assert stages["5:solve"] > 1e-3
    assert "2:transpose" in stages


def test_analyze_and_render_shapes():
    rec = CritPathRecorder()
    cl = VirtualCluster(4, ETH, critpath=rec)
    cl.run(_mixed_program)
    a = analyze(
        rec.graph, swap_nets={"myrinet": MYR}, straggler_scale={0: 0.5}
    )
    assert a["coverage"] == pytest.approx(1.0, abs=1e-6)
    assert set(a["resource_seconds"]) == {
        "cpu", "overhead", "latency", "bandwidth", "idle",
    }
    assert sum(a["resource_pct"].values()) == pytest.approx(100.0, abs=1e-4)
    for key in ("zero_latency", "infinite_bandwidth", "swap:myrinet",
                "remove_straggler"):
        assert key in a["counterfactuals"]
    text = render_critpath_report(a)
    assert "Critical path" in text and "swap:myrinet" in text

    # JSON round-trip: the analysis must be serialisable as-is.
    import json

    assert json.loads(json.dumps(a)) == a


# ----------------------------------------------------- serialization/aggregate


def test_graph_dict_roundtrip_preserves_everything():
    """to_dict/from_dict: the campaign's persisted-graph contract.

    A rebuilt graph must re-derive identical clocks, critical path and
    counterfactual answers — search mode runs entirely on rebuilt
    graphs.
    """
    import json as _json

    rec = CritPathRecorder()
    cl = VirtualCluster(4, ETH, critpath=rec)
    cl.run(_mixed_program)
    g = rec.graph
    blob = _json.dumps(g.to_dict(), sort_keys=True)
    g2 = EventGraph.from_dict(_json.loads(blob))
    assert len(g2) == len(g) and g2.nedges == g.nedges
    g2.validate()
    assert makespan(g2) == pytest.approx(makespan(g), rel=1e-12)
    assert analyze(g2) == analyze(g)
    assert swap_network(g2, MYR) == pytest.approx(
        swap_network(g, MYR), rel=1e-12
    )
    # Serialising the rebuilt graph is a fixed point.
    assert _json.dumps(g2.to_dict(), sort_keys=True) == blob


def test_graph_from_dict_rejects_unknown_schema():
    with pytest.raises(ValueError, match="schema"):
        EventGraph.from_dict({"schema": 99, "nprocs": 1})


def test_swap_network_cpu_scale():
    """cpu_scale prices a machine swap: faster CPU shrinks local edges."""
    rec = CritPathRecorder()
    cl = VirtualCluster(3, ETH, critpath=rec)
    cl.run(_mixed_program)
    g = rec.graph
    base = swap_network(g, MYR)
    faster = swap_network(g, MYR, cpu_scale=0.5)
    slower = swap_network(g, MYR, cpu_scale=4.0)
    assert faster < base < slower
    # Default preserves the original single-argument behaviour exactly.
    assert swap_network(g, MYR, cpu_scale=1.0) == base


def test_aggregate_analyses_sums_campaign_attribution():
    from repro.obs.critpath import RESOURCES, aggregate_analyses

    analyses = {}
    for nprocs in (2, 4):
        rec = CritPathRecorder()
        cl = VirtualCluster(nprocs, ETH, critpath=rec)
        cl.run(_mixed_program)
        analyses[f"job-p{nprocs}"] = analyze(rec.graph)
    agg = aggregate_analyses(analyses)
    assert agg["jobs"] == 2
    assert agg["total_makespan"] == pytest.approx(
        sum(a["makespan"] for a in analyses.values())
    )
    for k in RESOURCES:
        assert agg["resource_seconds"][k] == pytest.approx(
            sum(a["resource_seconds"][k] for a in analyses.values())
        )
    assert sum(agg["resource_pct"].values()) == pytest.approx(100.0, abs=1e-4)
    ranked = agg["dominant_jobs"]
    assert [e["job"] for e in ranked] == sorted(
        analyses, key=lambda j: -analyses[j]["makespan"]
    )
    assert sum(e["pct"] for e in ranked) == pytest.approx(100.0, abs=1e-6)
    # Empty aggregation is well-formed (a fully resumed campaign ran 0 jobs).
    empty = aggregate_analyses({})
    assert empty["jobs"] == 0 and empty["total_makespan"] == 0.0
