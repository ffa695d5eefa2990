"""Scaling benchmark: O(1000)-rank virtual clusters on the event engine.

The paper stops at 64 processors because that is where its PC/Linux
cluster stopped; the ROADMAP's question is what the *model* says beyond
that.  This harness drives the event-driven simmpi scheduler through
the communication patterns that dominate the paper's solvers — a
nearest-neighbour ring exchange (the gather-scatter shape) and the
Fourier-direction Alltoall sweep (NekTar-F's transpose) — at rank
counts far beyond the paper's 64, plus one fault storm (loss +
stragglers + a degraded link) at an intermediate size.

Three kinds of quantities are recorded:

* **virtual clocks and charge counters** (``wall_virtual``,
  ``cpu_virtual``, ``comm.*`` / ``faults.*`` counter values) —
  deterministic properties of the pricing model, pinned exactly by
  the ``smoke.scaling`` section of ``tests/goldens.json``;
* **host scheduler statistics** (``scheduler.switches`` /
  ``scheduler.wakeups``) — deterministic properties of the cooperative
  schedule, pinned the same way: an unintended change in how the engine
  dispatches ranks shows up here before it shows up anywhere else;
* **host elapsed times** (``*_s`` keys) — machine-dependent, pinned
  nowhere (``benchmarks/e2e`` measures host time).

Writes ``BENCH_scaling.json``.  Run as a script::

    python -m repro.apps.scaling_bench [--smoke] [--out BENCH_scaling.json]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from ..campaign.client import bench_client, run_cli
from ..machines.network import NetworkModel
from ..obs import CritPathRecorder, analyze, scoped
from ..parallel.faults import FaultPlan
from ..parallel.simmpi import VirtualCluster

__all__ = ["NETWORK", "MYRINET", "alltoall_program", "run_bench", "main"]

# A paper-plausible commodity fabric (100 Mbit/s, 10 us latency) priced
# directly rather than via the catalog: the sweep is about scheduler
# scale, and a fixed synthetic network keeps the numbers self-contained.
# Kernel-mediated (nonzero per-byte protocol CPU) so the loss model of
# the fault storm applies — loss only injects on TCP-style fabrics.
NETWORK = NetworkModel(
    "scaling-eth",
    latency_us=10,
    bandwidth=100e6,
    cpu_overhead_per_byte=2e-9,
    busy_wait_fraction=0.1,
)

# OS-bypass counterpart at the same port count: the Myrinet/GM shape
# from the paper's Figure 7 comparison — lower latency, faster links,
# no per-byte protocol CPU (so TCP-style loss does not apply).  Used
# only for the critical-path fabric-swap counterfactual: "what would
# this recorded run have cost on the other interconnect".
MYRINET = NetworkModel(
    "scaling-myr",
    latency_us=3,
    bandwidth=250e6,
    cpu_overhead_per_byte=0.0,
    busy_wait_fraction=1.0,
)

RANKS_FULL = (64, 256, 1024)
RANKS_SMOKE = (16, 64, 256)
ALLTOALL_DOUBLES = (64, 512)  # per-destination chunk lengths
RING_ROUNDS = 4
RING_DOUBLES = 256
SEED = 1999  # SC99
STORM_COMPUTE_S = 2e-4  # per-exchange compute in the storm (stragglers stretch it)
STORM_PLAN = FaultPlan(
    seed=SEED,
    loss_rate=0.05,
    stragglers={1: 1.5, 5: 2.0},
    degraded_links={(0, 1): 3.0},
)


def _ring_program(rounds: int = RING_ROUNDS, ndoubles: int = RING_DOUBLES):
    def rank_fn(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        buf = np.full(ndoubles, float(comm.rank))
        acc = 0.0
        for _ in range(rounds):
            comm.send(right, buf, tag=5)
            # Guarded recv: the harness is fault-bearing (the storm
            # section), so a dropped message must surface as a priced
            # retransmit, never a hang.
            buf = comm.recv(left, tag=5, timeout=5.0, retries=2)
            acc += float(buf[0])
        return acc

    return rank_fn


def alltoall_program(ndoubles_list=ALLTOALL_DOUBLES, compute_s=0.0):
    def rank_fn(comm):
        checks = []
        for n in ndoubles_list:
            if compute_s:
                # Transform work between exchanges (the NekTar-F shape);
                # nonzero only in the fault storm so its stragglers have
                # compute to stretch.
                comm.compute(compute_s)
            chunk = np.full(n, float(comm.rank))
            out = comm.alltoall([chunk] * comm.size)
            # Every rank contributed its own id: the received chunks
            # must carry ids 0..P-1 in order.
            checks.append(float(sum(c[0] for c in out)))
        comm.barrier()
        return checks

    return rank_fn


def _fingerprint(cluster):
    """Deterministic per-run summary: clocks, ledgers, scheduler."""
    return {
        "wall_virtual": cluster.max_wall,
        "cpu_virtual": cluster.max_cpu,
        "bytes_sent": sum(st.sent_bytes for st in cluster.ranks),
        "messages": sum(st.messages for st in cluster.ranks),
        "scheduler": cluster.engine_stats(),
    }


def _run_case(nprocs, rank_fn, faults=None, critpath=None):
    cluster = VirtualCluster(
        nprocs, network=NETWORK, faults=faults, critpath=critpath
    )
    t0 = time.perf_counter()
    with scoped() as registry:
        results = cluster.run(rank_fn)
    elapsed = time.perf_counter() - t0
    snap = registry.snapshot()

    def counter(name):
        return snap.get(name, {}).get("value", 0.0)

    case = _fingerprint(cluster)
    case.update(
        {
            "nprocs": nprocs,
            "elapsed_s": elapsed,
            "sends": counter("comm.sends"),
            "collectives": counter("comm.collectives"),
            "retransmits": counter("faults.retransmits"),
        }
    )
    return case, results


def run_bench(smoke: bool = False) -> dict:
    rank_counts = RANKS_SMOKE if smoke else RANKS_FULL
    storm_ranks = rank_counts[1]
    results: dict = {
        "config": {
            "smoke": smoke,
            "network": NETWORK.name,
            "swap_network": MYRINET.name,
            "critpath_ranks": rank_counts[-1],
            "rank_counts": list(rank_counts),
            "alltoall_doubles": list(ALLTOALL_DOUBLES),
            "ring_rounds": RING_ROUNDS,
            "ring_doubles": RING_DOUBLES,
            "storm_ranks": storm_ranks,
            "storm_compute_s": STORM_COMPUTE_S,
            "seed": SEED,
        },
        "ring": [],
        "alltoall": [],
    }
    alltoall_rec = None
    for nprocs in rank_counts:
        case, _res = _run_case(nprocs, _ring_program())
        results["ring"].append(case)
        # Attach the critical-path recorder at the largest sweep size:
        # that is the point whose makespan the report must explain.
        rec = CritPathRecorder() if nprocs == rank_counts[-1] else None
        case, res = _run_case(nprocs, alltoall_program(), critpath=rec)
        if rec is not None:
            alltoall_rec = rec
        # Data correctness at every scale: each received sweep sums the
        # full rank-id range.
        expect = [float(nprocs * (nprocs - 1) // 2)] * len(ALLTOALL_DOUBLES)
        if any(r != expect for r in res):
            raise AssertionError(f"alltoall data wrong at {nprocs} ranks")
        results["alltoall"].append(case)

    storm_rec = CritPathRecorder()
    storm_case, _res = _run_case(
        storm_ranks, alltoall_program(compute_s=STORM_COMPUTE_S),
        faults=STORM_PLAN, critpath=storm_rec,
    )
    if storm_case["retransmits"] <= 0:
        raise AssertionError("fault storm injected no retransmits")
    clean = next(
        c for c in results["alltoall"] if c["nprocs"] == storm_ranks
    )
    if storm_case["wall_virtual"] <= clean["wall_virtual"]:
        raise AssertionError("fault storm did not inflate the wall clock")
    results["fault_storm"] = storm_case

    # The tentpole's acceptance shape: virtual Alltoall cost must grow
    # with rank count (the model sees the scaling wall) while the host
    # cost stays tractable (the scheduler does not).
    walls = [c["wall_virtual"] for c in results["alltoall"]]
    if not all(b < a for b, a in zip(walls, walls[1:])):
        raise AssertionError(f"alltoall virtual wall not increasing: {walls}")

    # Critical-path attribution: explain the largest sweep's makespan
    # and the fault storm's, with the standard counterfactual suite plus
    # a Myrinet-style fabric swap and (storm only) remove-straggler.
    assert alltoall_rec is not None
    alltoall_rec.graph.validate()
    storm_rec.graph.validate()
    swap = {"myrinet": MYRINET}
    cp_alltoall = analyze(alltoall_rec.graph, swap_nets=swap)
    cp_storm = analyze(
        storm_rec.graph,
        swap_nets=swap,
        straggler_scale={
            r: 1.0 / s for r, s in STORM_PLAN.stragglers.items()
        },
    )
    if cp_alltoall["coverage"] < 0.95:
        raise AssertionError(
            f"critical path explains only {cp_alltoall['coverage']:.1%} "
            "of the alltoall makespan"
        )
    mk = cp_alltoall["makespan"]
    cf = cp_alltoall["counterfactuals"]
    if not (cf["zero_latency"] < mk and cf["swap:myrinet"] < mk):
        raise AssertionError(
            "counterfactuals failed to improve on the recorded fabric: "
            f"{cf}"
        )
    # The storm's makespan is made of loss RTOs plus straggler compute:
    # wiping the idle component must strictly beat the recorded run, and
    # remove-straggler can never make it worse.
    scf = cp_storm["counterfactuals"]
    if scf["zero_idle"] >= cp_storm["makespan"]:
        raise AssertionError("zero-idle did not shrink the fault storm")
    if scf["remove_straggler"] > cp_storm["makespan"]:
        raise AssertionError("remove-straggler increased the storm makespan")
    results["critpath"] = {"alltoall": cp_alltoall, "fault_storm": cp_storm}
    return results


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced size for CI smoke runs"
    )
    parser.add_argument("--out", default="BENCH_scaling.json", help="output path")
    parser.add_argument(
        "--ledger",
        default=None,
        help="append a run record to this JSONL run ledger",
    )
    args = parser.parse_args(argv)
    results = run_bench(smoke=args.smoke)
    return bench_client(
        "scaling_bench", results, args.out, args.ledger, summary=_summary
    )


def _summary(results: dict) -> None:
    for case in results["alltoall"]:
        print(
            f"alltoall P={case['nprocs']:5d}  "
            f"virtual wall {case['wall_virtual']:.4g}s  "
            f"host {case['elapsed_s']:.2f}s  "
            f"switches {case['scheduler'].get('scheduler.switches', 0):.0f}"
        )
    print(
        f"fault storm P={results['fault_storm']['nprocs']}: "
        f"{results['fault_storm']['retransmits']:.0f} retransmits"
    )
    cp = results["critpath"]["alltoall"]
    pct = cp["resource_pct"]
    dominant = max(pct, key=lambda k: pct[k])
    print(
        f"critical path P={results['config']['critpath_ranks']}: "
        f"{100.0 * cp['coverage']:.1f}% attributed, "
        f"{pct[dominant]:.0f}% {dominant}; "
        f"myrinet swap {cp['counterfactuals']['swap:myrinet'] / cp['makespan']:.2f}x"
    )


if __name__ == "__main__":
    sys.exit(run_cli(main))
