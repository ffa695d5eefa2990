"""Re-pricing pins: one recorded run and one committed artifact.

``critpath.reprice`` in ``tests/goldens.json`` holds, exactly, what the
event graph of a fixed 8-rank Ethernet run says about itself: the
sha256 of its serialisation, ``analyze()`` with the four
catalog fabrics as swaps and the straggler removed, a set of
``whatif`` scalings and ``swap_network`` on every catalog fabric at
two cpu scales.  The run mixes a ring (one message past the
rendezvous threshold), a lossy Alltoall and an allreduce under a
straggler plan, so every edge kind and every surcharge is priced.

``data/graph-schema2.json`` is a graph artifact as ``CampaignEngine``
writes it (``graph-<fp>.json``): it must load, serialise back to the
same bytes and analyse to the section's ``artifact`` entry.  It was
converted from the schema-1 artifact that entry was recorded on (read
by ``_critpath_oracle``'s frozen reader), so the entry holds the
conversion to the bit; the oracle reads it back through ``schema1``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.campaign.search import CATALOG_CANDIDATES
from repro.machines.catalog import MACHINES, NETWORKS
from repro.obs.critpath import (
    CritPathRecorder,
    EventGraph,
    analyze,
    swap_network,
)
from repro.parallel.faults import FaultPlan
from repro.parallel.simmpi import VirtualCluster
from tests import golden

from . import _critpath_oracle as oracle
from ._graphs import schema1, whatif

ARTIFACT = Path(__file__).with_name("data") / "graph-schema2.json"

#: The four catalog fabrics, by candidate name.
FABRICS = {c["name"]: NETWORKS[c["network"]] for c in CATALOG_CANDIDATES}
STRAGGLER, STRETCH = 3, 2.5
PLAN = FaultPlan(seed=27, loss_rate=0.1, stragglers={STRAGGLER: STRETCH})
WHATIFS = {
    "identity": {},
    "zero_latency": {"latency_scale": 0.0},
    "half_bandwidth": {"bandwidth_scale": 0.5},
    "cpu_x2": {"cpu_scale": 2.0},
    "overhead_x0.5": {"overhead_scale": 0.5},
    "idle_x3": {"idle_scale": 3.0},
    "straggler": {"rank_cpu_scale": {STRAGGLER: 1.0 / STRETCH}},
    "mixed": {
        "cpu_scale": 0.37,
        "latency_scale": 0.5,
        "bandwidth_scale": 2.0,
        "rank_cpu_scale": {0: 3.0, STRAGGLER: 0.25},
    },
}


def _program(comm):
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    acc = float(comm.rank)
    for i, ndoubles in enumerate((96, 2100, 96)):  # 16 800 B > eager
        comm.compute(1e-4)
        comm.send(right, np.full(ndoubles, acc), tag=i)
        acc += float(comm.recv(left, tag=i, timeout=5.0, retries=2)[0])
    comm.compute(2e-4)
    got = comm.alltoall([np.full(48 + 8 * d, acc) for d in range(comm.size)])
    return comm.allreduce(float(sum(c[0] for c in got)))


def reprice_graph() -> EventGraph:
    rec = CritPathRecorder()
    VirtualCluster(
        8,
        NETWORKS["RoadRunner, eth-internode"],
        cpu=MACHINES["RoadRunner"].cpu,
        faults=PLAN,
        critpath=rec,
    ).run(_program)
    return rec.graph


def _blob(graph: EventGraph) -> str:
    """The artifact bytes ``CampaignEngine`` writes for ``graph``."""
    return json.dumps(graph.to_dict(), sort_keys=True)


def reprice_fingerprint() -> dict:
    g = reprice_graph()
    artifact = EventGraph.from_dict(json.loads(ARTIFACT.read_text()))
    return {
        "sha256": hashlib.sha256(_blob(g).encode()).hexdigest(),
        "analyze": analyze(
            g, swap_nets=FABRICS, straggler_scale={STRAGGLER: 1.0 / STRETCH}
        ),
        "whatif": {name: whatif(g, **kw) for name, kw in WHATIFS.items()},
        "swap_network": {
            f"{name}@{scale}": swap_network(g, net, cpu_scale=scale)
            for name, net in FABRICS.items()
            for scale in (1.0, 0.37)
        },
        "artifact": analyze(artifact, swap_nets=FABRICS),
    }


GOLDEN_SECTIONS = {"critpath.reprice": reprice_fingerprint}


def test_reprice_golden():
    golden.check("critpath.reprice", reprice_fingerprint(), rel=0.0)


def test_committed_artifact_roundtrips_byte_for_byte():
    blob = ARTIFACT.read_text()
    graph = EventGraph.from_dict(json.loads(blob))
    graph.validate()
    assert _blob(graph) == blob


def test_committed_artifact_prices_as_the_oracle():
    data = json.loads(ARTIFACT.read_text())
    assert analyze(EventGraph.from_dict(data), swap_nets=FABRICS) == oracle.analyze(
        oracle.EventGraph.from_dict(schema1(data)), swap_nets=FABRICS
    )
