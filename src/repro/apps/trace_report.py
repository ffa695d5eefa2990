"""Observability report CLI: rank timelines, idle attribution, rooflines.

Runs a smoke NekTar-F simulation on a virtual cluster with the tracing
and metrics layers enabled, writes the browsable Chrome trace-event /
Perfetto JSON (one thread track per rank: stage spans, comm spans, and
idle-wait spans on the virtual ``MPI_Wtime`` axis), then *re-reads that
JSON* and renders:

* the per-stage cpu / wall / idle breakdown (the Figures 12-16 shape,
  with ``wall - cpu`` being the paper's Section 4.2 idle-time
  attribution),
* roofline points per stage — arithmetic intensity (flops/byte) and
  attained Mflop/s against the machine's peak rate and memory
  bandwidth from :mod:`repro.machines.catalog`,
* per-rank idle totals and the metrics-registry summary (message-size
  histogram, cache hit rates, PCG statistics).

The report round-trips through the written trace file so everything it
prints provably derives from the artifact.  Run::

    python -m repro.apps.trace_report [--machine RoadRunner]
        [--network ethernet] [--procs 2] [--nz 8] [--steps 3]
        [--out TRACE_nektar_f.json] [--report-out report.txt]

or render an existing trace without re-running the solver::

    python -m repro.apps.trace_report --trace TRACE_nektar_f.json

Open the JSON at https://ui.perfetto.dev (or chrome://tracing) to
browse the timelines interactively.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..assembly.space import FunctionSpace
from ..campaign.client import write_results
from ..machines.catalog import MACHINES
from ..mesh.generators import bluff_body_mesh
from ..ns.nektar_f import NekTarF
from ..obs import (
    CritPathRecorder,
    MetricsRegistry,
    Trace,
    TraceEvent,
    analyze,
    idle_by_peer,
    load_chrome_trace,
    render_critpath_report,
    scoped,
    stage_breakdown,
    write_chrome_trace,
)
from ..parallel.simmpi import VirtualCluster
from ..reporting.tables import ascii_table, format_percentages
from ..util.cli import EXIT_OK, usage_error

__all__ = ["run_traced", "run_critpath_pattern", "render_report", "main", "cli"]

# Reduced bluff-body configuration (same as the bench smoke runs): small
# enough for CI, big enough that every stage and both solver kinds run.
SMOKE_MESH = {"m": 3, "nr": 1}
SMOKE_ORDER = 5


def _steady_bluff_bcs():
    """Unit free-stream inflow, no-slip cylinder wall (mode 0 only)."""

    def amp(value):
        return lambda m, x, y, t: complex(value) if m == 0 else 0.0

    zero = amp(0.0)
    return {
        "inflow": (amp(1.0), zero, zero),
        "side": (amp(1.0), zero, zero),
        "wall": (zero, zero, zero),
    }


def run_traced(
    machine: str = "RoadRunner",
    network: str = "ethernet",
    nprocs: int = 2,
    nz: int = 8,
    steps: int = 3,
    critpath: CritPathRecorder | None = None,
) -> tuple[Trace, VirtualCluster, MetricsRegistry]:
    """Run the smoke NekTar-F case with tracing + metrics enabled.

    ``charge_compute=True`` prices every stage's counted flops on the
    machine's CPU model, so the rank timelines advance in virtual
    ``MPI_Wtime`` and the cpu/wall gap at the stage-2 transposes is the
    paper's network idle time.
    """
    spec = MACHINES[machine]
    net = spec.network(network)
    trace = Trace()
    cluster = VirtualCluster(
        nprocs,
        net,
        cpu=spec.cpu,
        procs_per_node=spec.procs_per_node,
        trace=trace,
        critpath=critpath,
    )
    mesh = bluff_body_mesh(**SMOKE_MESH)
    bcs = _steady_bluff_bcs()

    def rank_fn(comm):
        space = FunctionSpace(mesh, SMOKE_ORDER)
        # No pressure Dirichlet tag: the k=0 pressure mode (rank 0 only)
        # takes the pinned CondensedOperator path, whose different flop
        # count skews the rank walls — so the next step's transposes
        # show genuine idle waits, like the paper's imbalanced runs.
        nf = NekTarF(
            comm,
            space,
            nz=nz,
            nu=1e-2,
            dt=1e-3,
            velocity_bcs=bcs,
            time_order=1,
            charge_compute=True,
        )
        nf.run(steps)
        return {"wall": comm.wall, "cpu": comm.cpu_time}

    with scoped() as registry:
        cluster.run(rank_fn)
    return trace, cluster, registry


def run_critpath_pattern(
    pattern: str = "alltoall",
    nprocs: int = 512,
) -> dict:
    """Critical-path analysis of a synthetic communication pattern.

    Reuses the scaling benchmark's Alltoall sweep program and fabrics
    (the commodity-Ethernet model and its OS-bypass Myrinet-style
    counterpart) so the CLI, the CI smoke and the acceptance test all
    exercise one code path.
    """
    from .scaling_bench import MYRINET, NETWORK, alltoall_program

    if pattern != "alltoall":
        raise ValueError(f"unknown pattern {pattern!r} (only 'alltoall')")
    rec = CritPathRecorder()
    cluster = VirtualCluster(nprocs, NETWORK, critpath=rec)
    cluster.run(alltoall_program())
    rec.graph.validate()
    return analyze(rec.graph, swap_nets={"myrinet": MYRINET})


# -- report rendering -----------------------------------------------------------


def _stage_ranks(events: list[TraceEvent]) -> list[int]:
    return sorted({e.rank for e in events if e.cat == "stage" and e.ph == "X"})


def _breakdown_table(events: list[TraceEvent]) -> str:
    """Per-stage cpu / wall / idle seconds, merged across ranks."""
    timer = stage_breakdown(events)
    rows = [
        [s, f"{v['cpu']:.4g}", f"{v['wall']:.4g}", f"{v['idle']:.4g}"]
        for s, v in sorted(timer.breakdown().items())
    ]
    rows.append(
        [
            "total",
            f"{timer.total('cpu'):.4g}",
            f"{timer.total('wall'):.4g}",
            f"{max(0.0, timer.total('wall') - timer.total('cpu')):.4g}",
        ]
    )
    return ascii_table(
        ["stage", "cpu (s)", "wall (s)", "idle (s)"],
        rows,
        title="Per-stage virtual time, all ranks (idle = wall - cpu)",
    )


def _percentage_table(events: list[TraceEvent]) -> str:
    """Figure 12-16 shape: per-rank cpu and wall stage shares."""
    cases: dict[str, dict[str, float]] = {}
    for rank in _stage_ranks(events):
        timer = stage_breakdown(events, rank=rank)
        cases[f"rank {rank} (cpu)"] = timer.percentages("cpu")
        cases[f"rank {rank} (wall)"] = timer.percentages("wall")
    return format_percentages(
        cases, title="Stage shares per rank (Figures 12-16 shape)"
    )


def _roofline_table(events: list[TraceEvent], machine: str) -> str:
    """Per-stage roofline points against the machine's peak rates.

    ``attained`` is flops / virtual cpu seconds; ``bound`` is the
    roofline ceiling min(peak, intensity x memory bandwidth) at that
    stage's arithmetic intensity.
    """
    cpu = MACHINES[machine].cpu
    membw = cpu.bandwidths[-1]
    agg: dict[str, list[float]] = {}
    for ev in events:
        if ev.cat != "stage" or ev.ph != "X" or not ev.args:
            continue
        row = agg.setdefault(ev.name, [0.0, 0.0, 0.0])
        row[0] += float(ev.args.get("flops", 0.0))
        row[1] += float(ev.args.get("bytes", 0.0))
        row[2] += float(ev.args.get("cpu", 0.0))
    rows = []
    for stage in sorted(agg):
        flops, nbytes, cpu_s = agg[stage]
        intensity = flops / nbytes if nbytes else 0.0
        attained = flops / cpu_s / 1e6 if cpu_s else 0.0
        bound = min(cpu.peak_mflops, intensity * membw / 1e6)
        rows.append(
            [
                stage,
                f"{flops:.4g}",
                f"{nbytes:.4g}",
                f"{intensity:.3f}",
                f"{attained:.1f}",
                f"{bound:.1f}",
            ]
        )
    return ascii_table(
        ["stage", "flops", "bytes", "flops/byte", "attained MF/s", "roof MF/s"],
        rows,
        title=(
            f"Roofline points vs {cpu.name} "
            f"(peak {cpu.peak_mflops:.0f} MF/s, "
            f"mem {membw / 1e6:.0f} MB/s)"
        ),
    )


def _idle_table(events: list[TraceEvent]) -> str:
    rows = [
        [f"rank {r}", f"{s:.4g}"]
        for r, s in sorted(idle_by_peer(events).items())
    ]
    if not rows:
        rows = [["(none)", "0"]]
    return ascii_table(
        ["rank", "idle wait (s)"],
        rows,
        title="Blocking-wait time per rank (idle spans)",
    )


def _metrics_summary(registry: MetricsRegistry) -> str:
    lines = ["Metrics summary:"]
    snap = registry.snapshot()
    for name, entry in snap.items():
        if entry["type"] == "histogram":
            lines.append(
                f"  {name}: n={entry['count']} mean={entry['mean']:.4g} "
                f"min={entry['min']} max={entry['max']}"
            )
        else:
            lines.append(f"  {name}: {entry['value']}")
    for prefix in ("bc_cache", "visc_cache"):
        rate = registry.hit_rate(prefix)
        if rate is not None:
            lines.append(f"  {prefix} hit rate: {100.0 * rate:.1f}%")
    return "\n".join(lines)


def render_report(
    events: list[TraceEvent],
    machine: str = "RoadRunner",
    registry: MetricsRegistry | None = None,
) -> str:
    """Render the full text report from (re-)loaded trace events."""
    ranks = sorted({e.rank for e in events})
    parts = [
        f"Trace: {len(events)} events on {len(ranks)} rank tracks "
        f"{ranks}",
        "",
        _breakdown_table(events),
        "",
        _percentage_table(events),
        "",
        _roofline_table(events, machine),
        "",
        _idle_table(events),
    ]
    if registry is not None:
        parts += ["", _metrics_summary(registry)]
    return "\n".join(parts)


def main(argv=None) -> str:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--machine", default="RoadRunner")
    parser.add_argument(
        "--network",
        default="ethernet",
        help="network kind of the machine (e.g. ethernet, myrinet)",
    )
    parser.add_argument("--procs", type=int, default=2)
    parser.add_argument("--nz", type=int, default=8)
    parser.add_argument("--steps", type=int, default=3)
    parser.add_argument(
        "--out", default="TRACE_nektar_f.json", help="trace JSON output path"
    )
    parser.add_argument(
        "--report-out", default=None, help="also write the report to a file"
    )
    parser.add_argument(
        "--trace",
        default=None,
        help="render an existing trace JSON instead of running the solver",
    )
    parser.add_argument(
        "--metrics-out", default=None, help="write the metrics snapshot JSON"
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="record the happens-before event graph and append the "
        "makespan attribution + counterfactual block to the report",
    )
    parser.add_argument(
        "--pattern",
        default=None,
        choices=("alltoall",),
        help="critical-path of a synthetic pattern at --procs ranks "
        "instead of the NekTar-F smoke run (implies --critical-path)",
    )
    parser.add_argument(
        "--critpath-out",
        default=None,
        help="write the critical-path analysis JSON",
    )
    args = parser.parse_args(argv)

    if args.pattern is not None:
        analysis = run_critpath_pattern(args.pattern, nprocs=args.procs)
        report = (
            f"Synthetic {args.pattern} sweep, {args.procs} ranks on the "
            "scaling-bench fabric:\n" + render_critpath_report(analysis)
        )
        print(report)
        if args.critpath_out:
            write_results(analysis, args.critpath_out)
        if args.report_out:
            with open(args.report_out, "w") as fh:
                fh.write(report + "\n")
        return report

    registry = None
    critpath_block = None
    if args.trace is None:
        recorder = CritPathRecorder() if args.critical_path else None
        trace, cluster, registry = run_traced(
            machine=args.machine,
            network=args.network,
            nprocs=args.procs,
            nz=args.nz,
            steps=args.steps,
            critpath=recorder,
        )
        if recorder is not None:
            recorder.graph.validate()
            # Swap against the machine's *other* fabrics: on RoadRunner
            # this is the paper's Ethernet-vs-Myrinet question answered
            # from one recorded run.
            spec = MACHINES[args.machine]
            swaps = {
                kind: spec.network(kind)
                for kind in ("ethernet", "myrinet")
                if kind in spec.networks and kind != args.network
            }
            analysis = analyze(recorder.graph, swap_nets=swaps)
            critpath_block = render_critpath_report(analysis)
            if args.critpath_out:
                write_results(analysis, args.critpath_out)
        path = write_chrome_trace(
            trace,
            args.out,
            rank_traces=cluster.rank_traces(),
            label=f"NekTar-F on {args.machine} ({args.network})",
        )
        print(f"trace written: {path} (open at https://ui.perfetto.dev)")
        if args.metrics_out:
            write_results(registry.snapshot(), args.metrics_out)
        trace_path = path
    else:
        trace_path = args.trace

    # The report derives from the JSON artifact, not solver state.
    events = load_chrome_trace(trace_path)
    report = render_report(events, machine=args.machine, registry=registry)
    if critpath_block is not None:
        report += "\n\n" + critpath_block
    print(report)
    if args.report_out:
        with open(args.report_out, "w") as fh:
            fh.write(report + "\n")
    return report


def cli(argv=None) -> int:
    """Process entry point with the shared exit-code convention.

    ``main`` keeps returning the rendered report string (the tier-1
    tests consume it); this wrapper maps unreadable/corrupt inputs to
    usage-error exits.  The report has no acceptance gate, so the only
    nonzero outcome is :data:`~repro.util.cli.EXIT_USAGE`.
    """
    try:
        main(argv)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        return usage_error(f"{type(exc).__name__}: {exc}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(cli())
