"""Campaign CLI: the scenario cross-product as a resumable service.

``run`` expands a declarative job matrix (machine x network x fault
plan x workload shape), executes every job not already completed in
the run ledger on a bounded worker pool, records per-job values and
critical-path attribution, and writes a resume-invariant campaign
report.  ``search`` re-prices the recorded event graphs over the
machine catalog to find the cheapest configuration meeting a target
makespan — no re-running.

Run::

    python -m repro.apps.campaign run --ledger RUNLOG.jsonl --smoke \
        [--matrix matrix.json] [--workers 4] [--artifacts DIR] \
        [--out BENCH_campaign.json] [--stop-after N]
    python -m repro.apps.campaign search --ledger RUNLOG.jsonl \
        --artifacts DIR --target SECONDS [--out SEARCH.json]

Exit codes follow the shared convention (:mod:`repro.util.cli`):
0 = clean, 1 = gate failure (failed jobs; infeasible search target),
2 = usage error (missing ledger/matrix/artifacts, a corrupt graph
artifact).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..campaign.client import write_results
from ..campaign.engine import CampaignEngine, campaign_report
from ..campaign.matrix import smoke_matrix
from ..campaign.search import GraphArtifactError, load_graphs, search_catalog
from ..obs.runlog import RunLedger
from ..util.cli import EXIT_GATE, EXIT_OK, usage_error

__all__ = ["main"]


def _load_matrix(args) -> dict | None:
    if args.matrix:
        path = Path(args.matrix)
        if not path.exists():
            usage_error(f"matrix file not found: {args.matrix}")
            return None
        with path.open() as fh:
            return json.load(fh)
    if args.smoke:
        return smoke_matrix()
    usage_error("need --matrix FILE or --smoke")
    return None


def _cmd_run(args) -> int:
    matrix = _load_matrix(args)
    if matrix is None:
        return 2
    try:
        engine = CampaignEngine(
            args.ledger,
            matrix,
            workers=args.workers,
            artifacts_dir=args.artifacts,
        )
    except ValueError as exc:  # bad matrix contents
        return usage_error(str(exc))
    outcome = engine.run(stop_after=args.stop_after)
    print(
        f"campaign: {outcome['jobs']} job(s), {outcome['skipped']} skipped "
        f"(already complete), {outcome['ran']} ran, "
        f"{len(outcome['failed'])} failed, cache hit rate "
        f"{outcome['cache']['hit_rate']:.0%} "
        f"({outcome['cache']['hits']}/{outcome['cache']['hits'] + outcome['cache']['misses']}) "
        f"in {outcome['campaign_elapsed_s']:.2f}s host"
    )
    agg = outcome["aggregate"]
    if agg["jobs"]:
        pct = agg["resource_pct"]
        dominant = max(pct, key=lambda k: pct[k])
        print(
            f"attribution: {agg['total_makespan']:.4g} virtual s across "
            f"{agg['jobs']} job(s), {pct[dominant]:.0f}% {dominant}"
        )
    if args.out:
        report = campaign_report(RunLedger(args.ledger), matrix)
        write_results(report, args.out)
        print(
            f"report: {report['jobs']['completed']}/{report['jobs']['total']} "
            f"complete -> {args.out}"
        )
    for job_id in outcome["failed"]:
        print(f"failed: {job_id}", file=sys.stderr)
    if outcome["aborted"]:
        print("campaign aborted (--stop-after)", file=sys.stderr)
    return EXIT_GATE if outcome["failed"] else EXIT_OK


def _cmd_search(args) -> int:
    if not Path(args.ledger).exists():
        return usage_error(f"run ledger not found: {args.ledger}")
    if not Path(args.artifacts).is_dir():
        return usage_error(f"artifacts dir not found: {args.artifacts}")
    try:
        entries = load_graphs(RunLedger(args.ledger), args.artifacts)
    except GraphArtifactError as exc:
        return usage_error(str(exc))
    if not entries:
        return usage_error(
            f"no recorded graphs under {args.artifacts} for this ledger"
        )
    result = search_catalog(entries, args.target)
    for cand in result["candidates"]:
        mark = "ok" if cand["meets_target"] else "over"
        print(
            f"{cand['name']:<22} ${cand['price_total']:>9,}  "
            f"predicted {cand['predicted_makespan']:.4g} s  [{mark}]"
        )
    if args.out:
        write_results(result, args.out)
    if result["cheapest"] is None:
        print(
            f"no candidate meets target {args.target:.4g} s", file=sys.stderr
        )
        return EXIT_GATE
    best = result["cheapest"]
    print(
        f"cheapest meeting {args.target:.4g} s: {best['name']} "
        f"(${best['price_total']:,}, {best['predicted_makespan']:.4g} s)"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run (or resume) a campaign")
    p_run.add_argument("--ledger", required=True, help="run-ledger JSONL path")
    p_run.add_argument("--matrix", default=None, help="job matrix JSON file")
    p_run.add_argument(
        "--smoke", action="store_true", help="use the built-in smoke matrix"
    )
    p_run.add_argument("--workers", type=int, default=4)
    p_run.add_argument(
        "--artifacts", default=None, help="directory for per-job event graphs"
    )
    p_run.add_argument(
        "--out", default=None, help="write the campaign report JSON here"
    )
    p_run.add_argument(
        "--stop-after",
        type=int,
        default=None,
        help="abort after N job records (simulates a mid-campaign kill)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_search = sub.add_parser(
        "search", help="cheapest catalog config meeting a target makespan"
    )
    p_search.add_argument("--ledger", required=True)
    p_search.add_argument(
        "--artifacts", required=True, help="directory holding graph-*.json"
    )
    p_search.add_argument(
        "--target", type=float, required=True, help="target makespan, seconds"
    )
    p_search.add_argument("--out", default=None)
    p_search.set_defaults(func=_cmd_search)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
