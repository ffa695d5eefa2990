"""Compare two result files of ``run.py``: the A/A check and every
later change's before/after table.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A (base: A), the bound from ``BENCHMARK.json``
and a verdict:

* ``regressed``  - B's median is worse than A's by more than the bound,
  or B failed operations that A did not;
* ``unresolved`` - the spread of either side (q3 - q1 over the median)
  is wider than the bound, so a change of that size could hide in it -
  unless every run of B reads better than every run of A;
* ``ok``         - neither.

Metrics without a bound (per-layer files from ``--traced``) are listed
with their ratio only.  Exit codes follow ``repro.util.cli``: 0 all ok,
1 any row regressed or unresolved, 2 unreadable input.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.util.cli import EXIT_GATE, EXIT_OK, usage_error  # noqa: E402


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(
        (side["q3"] - side["q1"]) / abs(side["median"]) for side in (a, b)
    )
    if better == "lower":
        b_always_better = max(b["values"]) < min(a["values"])
    else:
        b_always_better = min(b["values"]) > max(a["values"])
    if worse_by > bound:
        return "regressed"
    if spread > bound and not b_always_better:
        return "unresolved"
    return "ok"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    """Rows of the table and the number of rows that are not ``ok``."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows, bad = [], 0
    header = (
        f"{'workload':<16} {'metric':<28} {'A median [q1, q3]':<34} "
        f"{'B median [q1, q3]':<34} {'B/A':>7} {'bound':>6}  verdict"
    )
    rows.append(header)
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            rows.append(f"{name:<16} missing from B")
            bad += 1
            continue
        if wb["failed"] > wa["failed"]:
            rows.append(
                f"{name:<16} {'fail_share':<28} {wa['failed']}/{wa['attempted']:<31} "
                f"{wb['failed']}/{wb['attempted']:<31} {'':>7} {0:>6}  regressed"
            )
            bad += 1
        for metric, ma in wa["metrics"].items():
            mb = wb["metrics"].get(metric)
            if mb is None or not ma["median"]:
                continue
            ratio = mb["median"] / ma["median"]
            cells = [
                f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] n={m['n']}"
                for m in (ma, mb)
            ]
            if metric in bounds:
                bound = bounds[metric]["bound"]
                word = verdict(ma, mb, bounds[metric]["better"], bound)
                bad += word != "ok"
                tail = f"{bound:>6.2f}  {word}"
            else:
                tail = f"{'-':>6}  info"
            rows.append(
                f"{name:<16} {metric:<28} {cells[0]:<34} {cells[1]:<34} {ratio:>7.3f} {tail}"
            )
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        return usage_error("usage: compare.py A.json B.json")
    loaded = []
    for path in argv:
        try:
            with open(path) as fh:
                loaded.append(json.load(fh))
        except (OSError, ValueError) as exc:
            return usage_error(f"cannot read {path}: {exc}")
        if "workloads" not in loaded[-1]:
            return usage_error(f"{path} is not a run.py result file")
    with (ROOT / "BENCHMARK.json").open() as fh:
        spec = json.load(fh)
    rows, bad = compare(loaded[0], loaded[1], spec)
    print("\n".join(rows))
    print(f"\nbase of every ratio: A = {argv[0]}; {bad} row(s) not ok")
    return EXIT_GATE if bad else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
