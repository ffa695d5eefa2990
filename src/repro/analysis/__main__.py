"""CLI for the static-analysis suite: ``python -m repro.analysis [paths...]``.

Exits 0 when every checked file is clean, 1 when any diagnostic is
emitted, 2 on usage errors — including a ``--select``/waiver token that
names no known rule.  Default path is ``src`` when run from the
repository root, falling back to the installed ``repro`` package tree.

``--format json`` emits one object per diagnostic.
``--select RULE[,RULE...]`` restricts the run to the named rules and
forces them in scope on every file — the seed audit runs
``--select REPRO004 tests benchmarks``.  An accepted finding is waived
where it fires (``# repro: waive[rule] reason``); there is no findings
baseline file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .linter import Diagnostic, RULES, lint_paths
from .vocab import WAIVER_CODE


def _default_paths() -> list[str]:
    if Path("src/repro").is_dir():
        return ["src"]
    return [str(Path(__file__).resolve().parents[1])]


def _to_json(diags: list[Diagnostic]) -> str:
    return json.dumps(
        [
            {
                "path": d.path,
                "line": d.line,
                "col": d.col,
                "code": d.code,
                "rule": d.rule,
                "message": d.message,
            }
            for d in diags
        ],
        indent=2,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static-analysis suite: accounting/virtual-time/raw-numpy "
        "invariants, determinism sanitizer (REPRO004-006) and "
        "communication-protocol checker (REPRO010-013).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/ or the installed package)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule names/codes to run, forced in scope on "
        "every file (audit mode; disables stale-waiver detection)",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(f"{WAIVER_CODE}  {'meta':<26} malformed/unknown/stale waivers, syntax errors")
        for rule, (code, summary) in sorted(RULES.items(), key=lambda kv: kv[1][0]):
            print(f"{code}  {rule:<26} {summary}")
        return 0

    select = None
    if args.select:
        select = [t.strip() for t in args.select.split(",") if t.strip()]

    paths = args.paths or _default_paths()
    for p in paths:
        if not Path(p).exists():
            print(f"error: no such path: {p}", file=sys.stderr)
            return 2

    try:
        diags = lint_paths(paths, select=select)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(_to_json(diags))
    else:
        for d in diags:
            print(d.format())

    if diags:
        print(f"{len(diags)} problem(s) found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
