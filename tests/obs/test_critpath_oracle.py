"""The columnar event graph against its frozen per-edge oracle.

``tests/obs/_critpath_oracle.py`` is ``repro.obs.critpath`` as it was
before the columns: an ``Edge`` object per edge and one Python pass per
longest path.  The rows, columns and level-synchronous sweep that
replaced it must agree with it *exactly* — not to a tolerance:

* recorded runs (P 2..16; ring shifts, some past the rendezvous
  threshold, and alltoall / allreduce / bcast / barrier / gather /
  allgather rounds; lossy, straggler and degraded-link plans; reused
  clusters) serialise to the same artifact bytes and give the same
  ``analyze()`` (every catalog fabric swapped, a straggler removed),
  ``whatif``, ``swap_network``, ``validate()`` and round trip;
* hand-built graphs with edges added in any order, tied weights,
  unknown collective kinds and out-of-range anchors do too;
* ``search_catalog`` over a recorded campaign predicts the makespans
  the one-pass-per-pair search did, with exactly one sweep per call.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.engine import CampaignEngine
from repro.campaign.search import CATALOG_CANDIDATES, load_graphs, search_catalog
from repro.machines.catalog import MACHINES, NETWORKS
from repro.obs import critpath
from repro.obs.runlog import RunLedger
from repro.parallel.faults import FaultPlan
from repro.parallel.simmpi import VirtualCluster

from ..parallel.test_scheduler_properties import _run_program
from . import _critpath_oracle as oracle

#: The four catalog fabrics; Ethernet is kernel-mediated (loss applies).
FABRICS = {c["name"]: NETWORKS[c["network"]] for c in CATALOG_CANDIDATES}
ETH = NETWORKS["RoadRunner, eth-internode"]
CPU = MACHINES["RoadRunner"].cpu
WHATIFS = (
    {},
    {"latency_scale": 0.0},
    {"bandwidth_scale": 0.5, "idle_scale": 3.0},
    {"cpu_scale": 0.37, "overhead_scale": 2.0},
    {"rank_cpu_scale": {0: 0.25, 1: 3.0, -1: 2.0}},
    {"cpu_scale": 2.0, "rank_cpu_scale": {1: 0.5}},
)

# One round: a ring shift (stride seed, payload doubles: 2 048 doubles
# sit exactly on Ethernet's 16 KiB eager threshold, 2 100 are past it)
# or a named collective.
_round = st.one_of(
    st.tuples(
        st.just("shift"), st.integers(0, 1_000_000), st.sampled_from([1, 48, 2048, 2100])
    ),
    st.sampled_from(["barrier", "allreduce", "alltoall", "bcast", "allgather", "gather"]),
)
runs = st.tuples(
    st.integers(2, 16),
    st.lists(_round, min_size=1, max_size=5),
    st.sampled_from(["none", "lossy", "straggler", "degraded", "storm"]),
    st.integers(0, 2**31 - 1),
    st.booleans(),  # reused cluster: the recorded run starts at nonzero clocks
)


def _plan(name: str, seed: int, nprocs: int) -> FaultPlan | None:
    lossy = {"loss_rate": 0.1, "retransmit_timeout": 1e-3}
    straggler = {"stragglers": {nprocs - 1: 2.5}}
    degraded = {"degraded_links": {(0, 1): 3.0, (1, nprocs - 1): 1.5}}
    return {
        "none": None,
        "lossy": FaultPlan(seed=seed, **lossy),
        "straggler": FaultPlan(seed=seed, **straggler),
        "degraded": FaultPlan(seed=seed, **degraded),
        "storm": FaultPlan(seed=seed, **lossy, **straggler, **degraded),
    }[name]


def _record(recorder, case):
    nprocs, program, plan, seed, reused = case
    cluster = VirtualCluster(
        nprocs, ETH, cpu=CPU, faults=_plan(plan, seed, nprocs), critpath=recorder
    )
    if reused:
        cluster.run(_run_program, program)
    cluster.run(_run_program, program)
    return recorder.graph


def _blob(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _validate(graph):
    try:
        graph.validate()
    except AssertionError as exc:
        return str(exc)
    return None


def assert_same(new, old, straggler):
    """Every priced answer of ``new`` is the oracle's for ``old``."""
    assert _blob(new.to_dict()) == _blob(old.to_dict())
    assert new.to_dict() == old.to_dict()
    assert len(new) == len(old) and new.nedges == old.nedges
    assert new.makespan() == old.makespan() and new.t0 == old.t0
    for kw in ({}, {"swap_nets": FABRICS, "straggler_scale": straggler}):
        assert _blob(critpath.analyze(new, **kw)) == _blob(oracle.analyze(old, **kw))
    for kw in WHATIFS:
        assert critpath.whatif(new, **kw) == oracle.whatif(old, **kw)
    for net in FABRICS.values():
        for scale in (1.0, 0.37):
            assert critpath.swap_network(new, net, scale) == oracle.swap_network(
                old, net, scale
            )
    assert _validate(new) == _validate(old)


@settings(max_examples=60, deadline=None)
@given(runs)
def test_recorded_runs_price_as_the_oracle(case):
    new = _record(critpath.CritPathRecorder(), case)
    old = _record(oracle.CritPathRecorder(), case)
    straggler = {case[0] - 1: 1.0 / 2.5}
    assert_same(new, old, straggler)
    # What ``campaign search`` prices: the artifact read back.
    data = json.loads(_blob(new.to_dict()))
    assert_same(
        critpath.EventGraph.from_dict(data), oracle.EventGraph.from_dict(data), straggler
    )
    # A wrong anchor fails validate() on the same node with the same words.
    data["nodes"][-1][4] += 1.0
    assert _validate(critpath.EventGraph.from_dict(data)) == _validate(
        oracle.EventGraph.from_dict(data)
    )


_KINDS = ["local", "local", "message", "sync", "alltoall", "allreduce-sum",
          "bcast", "gather", "barrier", "mystery"]
# Few values, so paths tie; inexact ones, so summation order shows.
_cost = st.sampled_from([0.0, 0.1, 0.3, 1 / 3, 2.0, 1e-4])
_edge = st.tuples(
    st.integers(0, 10**6),  # source pick
    st.lists(_cost, min_size=5, max_size=5),
    st.sampled_from(_KINDS),
    st.sampled_from([0.0, 8.0, 100.0, 16384.0, 20000.0]),  # nbytes
    st.integers(0, 4),  # n
    st.sampled_from([1.0, 2.5]),  # stretch / factor
)
graphs = st.tuples(
    st.lists(  # nodes: rank, anchor
        st.tuples(st.integers(-1, 3), st.sampled_from([0.0, 0.5, 3.0])),
        min_size=0, max_size=24,
    ),
    st.lists(st.tuples(st.integers(0, 10**6), _edge), max_size=60),
    st.randoms(use_true_random=False),
)


def _build(module, nodes, edges):
    g = module.EventGraph(4)
    for i, (rank, t) in enumerate(nodes):
        g.add_node(rank, "event", f"n{i}", t, "s" if i % 3 else None)
    for dst, (src, comps, kind, nbytes, n, stretch) in edges:
        cpu, ovh, lat, bw, idle = comps
        g.add_edge(dst, module.Edge(
            src=src, cpu=cpu, overhead=ovh, latency=lat, bandwidth=bw, idle=idle,
            kind=kind, nbytes=nbytes, ebytes=2 * nbytes, obytes=nbytes, n=n,
            stretch=stretch, factor=stretch,
        ))
    return g


@settings(max_examples=200, deadline=None)
@given(graphs)
def test_hand_built_graphs_price_as_the_oracle(case):
    nodes, picks, rnd = case
    edges = [
        (dst, (src % dst, *rest))
        for dst_pick, (src, *rest) in picks
        if (dst := 1 + dst_pick % max(1, len(nodes) - 1)) < len(nodes)
    ]
    rnd.shuffle(edges)  # any insertion order
    new = _build(critpath, nodes, edges)
    old = _build(oracle, nodes, edges)
    assert_same(new, old, {1: 0.5})


# -------------------------------------------------------------- campaign search

SMALL = {
    "nprocs": 4,
    "machines": ["RoadRunner", "SP2-Silver"],
    "networks": ["RoadRunner, eth-internode", "RoadRunner, myr-internode"],
    "fault_plans": ["none", "storm"],
    "workloads": [
        {"workload": "ring", "rounds": 3, "ndoubles": 2100},
        {"workload": "alltoall", "compute_s": 1e-4, "ndoubles": [16, 96]},
    ],
}


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign")
    ledger = RunLedger(root / "RUNLOG.jsonl")
    CampaignEngine(ledger, SMALL, workers=2, artifacts_dir=root / "graphs").run()
    return ledger, root / "graphs"


def test_search_predicts_the_oracles_makespans_in_one_sweep(campaign, monkeypatch):
    entries = load_graphs(*campaign)
    assert len(entries) == 16
    sweeps = []
    real = critpath._sweep
    monkeypatch.setattr(
        critpath, "_sweep", lambda c, W: sweeps.append(W.shape) or real(c, W)
    )
    result = search_catalog(entries, target_makespan=1.0)
    # One sweep for all 16 graphs x 4 candidates: a (4, E) weight matrix.
    assert sweeps == [(4, sum(e["graph"].nedges for e in entries))]

    old = [
        dict(e, graph=oracle.EventGraph.from_dict(e["graph"].to_dict()))
        for e in entries
    ]
    assert [c["predicted_makespan"] for c in result["candidates"]] == (
        oracle.search_makespans(old, CATALOG_CANDIDATES)
    )


def test_empty_and_edgeless_graphs():
    for nodes in ([], [(0, 2.0), (1, 0.5)]):
        assert_same(_build(critpath, nodes, []), _build(oracle, nodes, []), {0: 0.5})
    g = _build(critpath, [(0, 2.0), (1, 0.5)], [])
    assert critpath.swap_makespans([g, _build(critpath, [], [])], [(ETH, [1.0, 1.0])]) == [
        [1.5, 0.0]
    ]
    assert np.isfinite(critpath.analyze(g)["makespan"])
