"""Resilience benchmark: degradation curves the paper's tables hint at.

Sweeps message-loss rates over the RoadRunner Fast-Ethernet and Myrinet
catalog entries, running a 2-rank NekTar-F with compute charging and a
seeded :class:`~repro.parallel.faults.FaultPlan`, and records the
per-step virtual wall/cpu inflation relative to the loss-free run —
the quantitative form of Section 4.3's "fact or fiction" answer: a
kernel-mediated TCP fabric pays retransmit timeouts that compound with
the Alltoall traffic, while an OS-bypass fabric (link-level flow
control, no software retransmit path) stays flat at any loss rate.

Also runs the recovery scenario end to end: a rank crash mid-run,
restart from the last complete checkpoint set, and a bitwise comparison
of the recovered fields against the fault-free run.

Writes ``BENCH_resilience.json``.  Run as a script::

    python -m repro.apps.resilience_bench [--smoke] [--out BENCH_resilience.json]

All recorded quantities are virtual-clock or counter values —
deterministic properties of the pricing model, pinned exactly by the
``smoke.resilience`` section of ``tests/goldens.json`` (no
machine-dependent timings).
"""

from __future__ import annotations

import argparse
import sys
import tempfile

import numpy as np

from ..assembly.space import FunctionSpace
from ..campaign.client import bench_client, run_cli
from ..io.writers import NekTarFCheckpoint
from ..machines.catalog import CPUS, NETWORKS
from ..mesh.generators import rectangle_quads
from ..ns.nektar_f import NekTarF
from ..obs import scoped
from ..parallel.faults import CrashSpec, FaultPlan, RankFailure
from ..parallel.simmpi import VirtualCluster

__all__ = ["run_bench", "main"]

SWEPT_NETWORKS = {
    "fast-ethernet": "RoadRunner, eth-internode",
    "myrinet": "RoadRunner, myr-internode",
}
CPU_NAME = "pentium-ii-450"  # the RoadRunner node of Table 1
LOSS_RATES_FULL = (0.0, 0.01, 0.02, 0.05, 0.1, 0.2)
LOSS_RATES_SMOKE = (0.0, 0.05, 0.2)
SEED = 1999  # SC99

FULL = {"nx": 2, "ny": 2, "order": 5, "nz": 8, "nsteps": 4}
SMOKE = {"nx": 1, "ny": 1, "order": 4, "nz": 4, "nsteps": 2}


def _solver(comm, cfg, dt=5e-3):
    """A small decaying-vortex NekTar-F (no-slip box, modes 0..nz/2)."""
    mesh = rectangle_quads(cfg["nx"], cfg["ny"], 0.0, 2 * np.pi, 0.0, 2 * np.pi)
    space = FunctionSpace(mesh, cfg["order"])

    def zero(m, x, y, t):
        return 0.0

    bcs = {t: (zero, zero, zero) for t in ("left", "right", "top", "bottom")}
    nf = NekTarF(
        comm, space, nz=cfg["nz"], nu=0.05, dt=dt, velocity_bcs=bcs,
        charge_compute=True,
    )
    nf.set_initial(
        lambda m, x, y, t: complex(np.sin(x) * np.cos(y)) if m <= 1 else 0.0,
        lambda m, x, y, t: complex(-np.cos(x) * np.sin(y)) if m <= 1 else 0.0,
        lambda m, x, y, t: complex(0.1) if m == 1 else 0.0,
    )
    return nf


def _run_case(network, cfg, plan=None):
    """One (network, plan) run; returns virtual clocks and fault counters."""
    def rank_fn(comm):
        nf = _solver(comm, cfg)
        nf.run(cfg["nsteps"])
        return comm.wall, comm.cpu_time

    with scoped() as registry:
        cluster = VirtualCluster(
            2, network=network, cpu=CPUS[CPU_NAME], faults=plan
        )
        res = cluster.run(rank_fn)
    snap = registry.snapshot()

    def counter(name):
        return snap.get(name, {}).get("value", 0.0)

    return {
        "wall_virtual": max(r[0] for r in res),
        "cpu_virtual": max(r[1] for r in res),
        "retransmits": counter("faults.retransmits"),
        "retransmitted_bytes": counter("faults.retransmitted_bytes"),
    }


def _sweep(net_name, cfg, loss_rates):
    network = NETWORKS[net_name]
    points = []
    for rate in loss_rates:
        plan = FaultPlan(seed=SEED, loss_rate=rate) if rate else None
        case = _run_case(network, cfg, plan)
        case["loss_rate"] = rate
        points.append(case)
    base = points[0]
    for p in points:
        p["wall_inflation"] = p["wall_virtual"] / base["wall_virtual"]
        p["cpu_inflation"] = p["cpu_virtual"] / base["cpu_virtual"]
        p["per_step_wall"] = p["wall_virtual"] / cfg["nsteps"]
    return points


def _crash_restart(cfg):
    """Crash rank 1 mid-run, restart from the last checkpoint set, and
    compare the recovered fields bitwise against a fault-free run."""
    network = NETWORKS[SWEPT_NETWORKS["fast-ethernet"]]
    nsteps = 2 * cfg["nsteps"]
    crash_step = nsteps // 2 + 1
    every = 2

    def clean(comm):
        nf = _solver(comm, cfg)
        nf.run(nsteps)
        return nf.u_hat, nf.w_hat, nf.t

    ref = VirtualCluster(2, network=network, cpu=CPUS[CPU_NAME]).run(clean)

    with tempfile.TemporaryDirectory() as ckpt_dir:

        def faulty(comm):
            nf = _solver(comm, cfg)
            try:
                nf.run(nsteps, checkpoint_every=every, checkpoint_dir=ckpt_dir)
                return "finished"
            except RankFailure as e:
                return f"lost rank {e.rank}"

        plan = FaultPlan(crashes=(CrashSpec(rank=1, at_step=crash_step),))
        survived = VirtualCluster(
            2, network=network, cpu=CPUS[CPU_NAME], faults=plan
        ).run(faulty)
        restart_step = NekTarFCheckpoint.latest_step(ckpt_dir, 2)

        def restarted(comm):
            nf = _solver(comm, cfg)
            nf.restore_checkpoint(ckpt_dir)
            nf.run(nsteps - nf.step_count)
            return nf.u_hat, nf.w_hat, nf.t

        out = VirtualCluster(2, network=network, cpu=CPUS[CPU_NAME]).run(
            restarted
        )

    recovered = all(
        np.array_equal(a[0], b[0])
        and np.array_equal(a[1], b[1])
        and a[2] == b[2]
        for a, b in zip(ref, out)
    )
    return {
        "nsteps": nsteps,
        "crash_step": crash_step,
        "checkpoint_every": every,
        "survivor_outcome": survived[0],
        "restart_step": restart_step,
        "steps_lost": crash_step - restart_step,
        "recovered_bitwise": recovered,
    }


def run_bench(smoke: bool = False) -> dict:
    cfg = SMOKE if smoke else FULL
    loss_rates = LOSS_RATES_SMOKE if smoke else LOSS_RATES_FULL
    results: dict = {
        "config": {
            **cfg,
            "cpu": CPU_NAME,
            "seed": SEED,
            "smoke": smoke,
            "nprocs": 2,
        },
        "sweep": {},
    }
    for label, net_name in SWEPT_NETWORKS.items():
        results["sweep"][label] = _sweep(net_name, cfg, loss_rates)

    eth = [p["wall_inflation"] for p in results["sweep"]["fast-ethernet"]]
    myr = [p["wall_inflation"] for p in results["sweep"]["myrinet"]]
    # The acceptance shape: TCP pays for loss, OS-bypass does not.
    if not all(b <= a for b, a in zip(eth, eth[1:])) or eth[-1] <= eth[0]:
        raise AssertionError(f"fast-ethernet inflation not monotone: {eth}")
    if any(m != 1.0 for m in myr):
        raise AssertionError(f"myrinet inflation not flat: {myr}")

    results["crash_restart"] = _crash_restart(cfg)
    if not results["crash_restart"]["recovered_bitwise"]:
        raise AssertionError("checkpoint restart failed to recover the fields")
    return results


def _summary(results: dict) -> None:
    for label, points in results["sweep"].items():
        curve = "  ".join(
            f"{p['loss_rate']:.0%}:{p['wall_inflation']:.2f}x" for p in points
        )
        print(f"{label:14s} wall inflation  {curve}")
    cr = results["crash_restart"]
    print(
        f"crash at step {cr['crash_step']}, restarted from "
        f"{cr['restart_step']} ({cr['steps_lost']} step(s) replayed), "
        f"recovered bitwise: {cr['recovered_bitwise']}"
    )


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced size for CI smoke runs"
    )
    parser.add_argument(
        "--out", default="BENCH_resilience.json", help="output path"
    )
    parser.add_argument(
        "--ledger",
        default=None,
        help="append a run record to this JSONL run ledger",
    )
    args = parser.parse_args(argv)
    results = run_bench(smoke=args.smoke)
    return bench_client(
        "resilience_bench", results, args.out, args.ledger, summary=_summary
    )


if __name__ == "__main__":
    sys.exit(run_cli(main))
