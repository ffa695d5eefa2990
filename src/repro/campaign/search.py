"""Campaign search: cheapest catalog configuration meeting a makespan.

The campaign records every job's event graph; this module answers the
paper's Section 5 question — what is the cheapest hardware that is
still fast enough? — **without re-running anything**.  Each catalog
candidate (a machine + fabric pair with a 1999 per-processor price) is
priced against the recorded graphs by counterfactual re-weighting:
every communication edge is re-priced under the candidate's fabric, and
the compute edges are scaled by the ratio of the recorded machine's
application rate to the candidate's.  All (graph, candidate) pairs are
one weight matrix over the graphs taken as one, priced in one sweep
(:func:`~repro.obs.critpath.swap_makespans`).  The graphs are read back
from the engine's ``graph-<fingerprint>.json`` artifacts
(``EventGraph.from_dict``, schema 2: each column one base64 block,
decoded straight into numpy); an artifact that does not read back —
torn JSON, a damaged column, a schema-1 file of rows — is a
:class:`GraphArtifactError` naming the file.

The result reproduces the paper's cost ordering: Ethernet nodes are
cheaper but slower, Myrinet costs ~$1.8k/node more and buys its keep
back in makespan, supercomputer nodes are faster still at an order of
magnitude the price.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..machines.catalog import MACHINES, NETWORKS, PRICES_1999
from ..obs.critpath import EventGraph, swap_makespans
from ..obs.runlog import RunLedger
from .engine import BENCH

__all__ = [
    "CATALOG_CANDIDATES",
    "GraphArtifactError",
    "load_graphs",
    "search_catalog",
]

#: Catalog candidates: machine + fabric + 1999 per-processor price.
CATALOG_CANDIDATES: tuple[dict[str, Any], ...] = (
    {
        "name": "roadrunner-ethernet",
        "machine": "RoadRunner",
        "network": "RoadRunner, eth-internode",
        "price_per_proc": PRICES_1999["RoadRunner-eth"],
    },
    {
        "name": "roadrunner-myrinet",
        "machine": "RoadRunner",
        "network": "RoadRunner, myr-internode",
        "price_per_proc": PRICES_1999["RoadRunner-myr"],
    },
    {
        "name": "sp2-silver",
        "machine": "SP2-Silver",
        "network": "SP2-Silver, internode",
        "price_per_proc": PRICES_1999["SP2-Silver"],
    },
    {
        "name": "t3e",
        "machine": "T3E",
        "network": "T3E",
        "price_per_proc": PRICES_1999["T3E"],
    },
)


class GraphArtifactError(ValueError):
    """A recorded graph artifact that cannot be read back."""


def load_graphs(ledger: RunLedger, artifacts_dir: str | Path) -> list[dict[str, Any]]:
    """Pair each completed job's latest ledger record with its graph.

    Returns ``[{"config": ..., "fingerprint": ..., "graph": EventGraph}]``
    for every fingerprint whose latest record is ``ok`` and whose graph
    artifact exists on disk.
    """
    artifacts = Path(artifacts_dir)
    out = []
    for fp, rec in ledger.latest(BENCH).items():
        if rec.get("status", "ok") != "ok":
            continue
        path = artifacts / f"graph-{fp}.json"
        if not path.exists():
            continue
        try:
            graph = EventGraph.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError) as exc:
            raise GraphArtifactError(
                f"corrupt graph artifact {path}: {exc}"
            ) from exc
        out.append(
            {"fingerprint": fp, "config": rec.get("config", {}), "graph": graph}
        )
    out.sort(key=lambda e: e["fingerprint"])
    return out


def _cpu_scale(recorded_machine: str, candidate_machine: str) -> float:
    """Compute-edge scale factor for a machine swap.

    Virtual compute time scales inversely with the sustained
    application rate: a candidate twice as fast halves every cpu edge.
    """
    ref = MACHINES[recorded_machine].cpu.app_mflops
    cand = MACHINES[candidate_machine].cpu.app_mflops
    return ref / cand


def search_catalog(
    entries: list[dict[str, Any]],
    target_makespan: float,
) -> dict[str, Any]:
    """Price every :data:`CATALOG_CANDIDATES` entry against the recorded graphs.

    ``entries`` is :func:`load_graphs` output.  For each candidate the
    campaign's predicted makespan is the **sum** over jobs (the
    serialized cost of the campaign's work under that hardware), and
    its price is per-processor price times the largest job's processor
    count.  Returns all candidates ranked cheapest-first, each with its
    prediction and verdict, plus the cheapest one meeting the target.
    """
    if not entries:
        raise ValueError("no recorded graphs to search over")
    ranked = []
    cands = sorted(CATALOG_CANDIDATES, key=lambda c: c["price_per_proc"])
    predicted = swap_makespans(
        [entry["graph"] for entry in entries],
        [
            (
                NETWORKS[cand["network"]],
                [_cpu_scale(e["config"]["machine"], cand["machine"]) for e in entries],
            )
            for cand in cands
        ],
    )
    nprocs = max(int(e["config"].get("nprocs", 1)) for e in entries)
    for cand, makespans in zip(cands, predicted):
        total = 0.0
        for makespan in makespans:  # entry order, as one sum
            total += makespan
        price = cand["price_per_proc"] * max(1, nprocs)
        ranked.append(
            {
                "name": cand["name"],
                "machine": cand["machine"],
                "network": cand["network"],
                "price_per_proc": cand["price_per_proc"],
                "price_total": price,
                "predicted_makespan": total,
                "meets_target": bool(total <= target_makespan),
            }
        )
    meeting = [c for c in ranked if c["meets_target"]]
    cheapest = min(meeting, key=lambda c: c["price_total"]) if meeting else None
    return {
        "target_makespan": target_makespan,
        "jobs": len(entries),
        "candidates": ranked,
        "cheapest": cheapest,
        "feasible": bool(meeting),
    }
