"""Performance-trajectory report over the persistent run ledger.

``tests/goldens.json`` answers "did a deterministic value move?" and
``benchmarks/e2e`` "did host time move?"; both compare against one
committed state.  This CLI answers the longitudinal question neither
can: **how has each configuration behaved across runs?**
It groups the ledger (:mod:`repro.obs.runlog`) by config fingerprint,
renders each configuration's trajectory — timestamp, git revision,
headline timings — and flags drift the trend-aware way:

* **host timings** (``*_s`` keys, speedups): the latest run is compared
  against the *median* of its history — with the latest run itself
  excluded from the reference (self-comparison would dampen real
  regressions), so one noisy run neither fires nor poisons the
  reference — findings are ``regression`` / ``improvement``.  A
  two-run history still compares, but its findings are downgraded to
  ``suspect-*`` severity: one reference sample cannot tell a
  regression from a noisy first run;
* **deterministic values** (virtual clocks, charge counters, critical
  path attribution): any change against the immediately preceding
  record is a ``drift`` finding — on the virtual machine these have no
  noise, so a change is a code change.

Histories are keyed by ``(bench, fingerprint)``: two benches that
happen to share a config fingerprint never pool their trajectories.

Run::

    python -m repro.apps.perf_report --ledger RUNLOG.jsonl
        [--bench scaling_bench] [--fingerprint abc123...]
        [--timing-rtol 0.5] [--out perf_report.txt]

Findings are part of the report, never a gate: the exit code is 0
whenever the report rendered; a missing or corrupt ledger is a usage
error (exit 2).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..obs.runlog import RunLedger, iter_timing_drift
from ..reporting.tables import ascii_table
from ..util.cli import EXIT_OK, usage_error

__all__ = ["render_perf_report", "main"]

# How many headline timing columns each trajectory table shows.
MAX_TIMING_COLS = 3


def _headline_keys(records: list[dict]) -> list[str]:
    """Pick the timing keys shown as trajectory columns.

    Keys present in every record sort first (a trajectory you can read
    down the column), then alphabetically; capped at MAX_TIMING_COLS.
    """
    counts: dict[str, int] = {}
    for rec in records:
        for key in rec.get("timings", {}):
            counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts, key=lambda k: (-counts[k], k))
    return ranked[:MAX_TIMING_COLS]


def _trajectory_table(fingerprint: str, records: list[dict]) -> str:
    keys = _headline_keys(records)
    headers = ["#", "ts", "rev", "values"] + [k.rsplit(".", 1)[-1] for k in keys]
    rows = []
    for i, rec in enumerate(records):
        row = [
            str(i),
            str(rec.get("ts", "?")),
            str(rec.get("git_rev") or "-"),
            str(len(rec.get("values", {}))),
        ]
        for key in keys:
            val = rec.get("timings", {}).get(key)
            row.append("-" if val is None else f"{val:.4g}")
        rows.append(row)
    bench = records[-1].get("bench", "?")
    return ascii_table(
        headers,
        rows,
        title=f"{bench} @ {fingerprint} ({len(records)} run(s))",
    )


def _findings_lines(findings: list[dict]) -> list[str]:
    lines = []
    for f in findings:
        if f["kind"] == "timing":
            lines.append(
                f"  [{f['severity']}] {f['key']}: {f['latest']:.4g} s vs "
                f"median {f['reference']:.4g} s over {f['nref']} run(s) "
                f"({f['ratio']:.2f}x)"
            )
        else:
            lines.append(
                f"  [{f['severity']}] {f['key']}: {f['latest']!r} != "
                f"previous {f['reference']!r} (deterministic key changed)"
            )
    return lines


def render_perf_report(
    ledger: RunLedger,
    bench: str | None = None,
    fingerprint: str | None = None,
    timing_rtol: float = 0.5,
) -> tuple[str, list[dict]]:
    """Render the full report; returns (text, all drift findings)."""
    groups = {
        key: recs
        for key, recs in ledger.grouped_by_bench().items()
        if (fingerprint is None or key[1] == fingerprint)
        and (bench is None or key[0] == bench)
    }
    if not groups:
        return f"run ledger {ledger.path}: no matching records", []
    parts = [
        f"Run ledger {ledger.path}: {sum(len(r) for r in groups.values())} "
        f"record(s), {len(groups)} configuration(s)"
    ]
    all_findings: list[dict] = []
    for (_bench, fp), records in groups.items():
        parts += ["", _trajectory_table(fp, records)]
        findings = iter_timing_drift(records, rtol=timing_rtol)
        for f in findings:
            f["fingerprint"] = fp
        all_findings += findings
        if findings:
            parts += _findings_lines(findings)
        elif len(records) >= 2:
            parts.append("  steady: no drift against history")
        else:
            parts.append("  first record: no history to compare against")
    n_drift = sum(1 for f in all_findings if f["severity"] == "drift")
    n_reg = sum(1 for f in all_findings if f["severity"] == "regression")
    n_suspect = sum(
        1 for f in all_findings if f["severity"].startswith("suspect-")
    )
    parts += [
        "",
        f"summary: {n_drift} deterministic drift(s), "
        f"{n_reg} timing regression(s), "
        f"{n_suspect} low-confidence (nref=1) finding(s), "
        f"{len(all_findings) - n_drift - n_reg - n_suspect} other finding(s)",
    ]
    return "\n".join(parts), all_findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--ledger", required=True, help="run-ledger JSONL path"
    )
    parser.add_argument("--bench", default=None, help="filter by bench name")
    parser.add_argument(
        "--fingerprint", default=None, help="filter by config fingerprint"
    )
    parser.add_argument(
        "--timing-rtol",
        type=float,
        default=0.5,
        help="relative tolerance for host-timing drift (0.5 = flag 1.5x)",
    )
    parser.add_argument(
        "--out", default=None, help="also write the report to a file"
    )
    args = parser.parse_args(argv)
    if not Path(args.ledger).exists():
        return usage_error(f"run ledger not found: {args.ledger}")
    try:
        report, _findings = render_perf_report(
            RunLedger(args.ledger),
            bench=args.bench,
            fingerprint=args.fingerprint,
            timing_rtol=args.timing_rtol,
        )
    except ValueError as exc:  # corrupt ledger line
        return usage_error(str(exc))
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
