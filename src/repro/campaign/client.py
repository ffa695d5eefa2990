"""Thin bench clients: shared plumbing for every bench entry point.

``resilience_bench`` / ``scaling_bench`` used to each carry their
own copy of the run-write-ledger-print choreography; the
campaign engine makes them thin clients of one shared path so every
bench records to the same ledger with the same conventions:

* :func:`write_results` — results JSON to disk (sorted keys,
  two-space indent, trailing newline);
* :func:`record_to_ledger` — append to the persistent run ledger and
  announce the fingerprint;
* :func:`bench_client` — the whole choreography for a ``main()`` that
  must keep returning the results dict (the tier-1 tests call bench
  mains directly and consume the dict);
* :func:`run_cli` — wrap any such ``main`` into an int-returning
  process entry point with the shared exit-code convention
  (:mod:`repro.util.cli`): acceptance-gate failures exit 1, usage
  errors exit 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Callable

from ..obs.runlog import append_bench_record
from ..util.cli import EXIT_GATE, EXIT_OK, usage_error

__all__ = ["write_results", "record_to_ledger", "bench_client", "run_cli"]


def write_results(results: dict[str, Any], out_path: str | Path) -> None:
    """Write a bench results dict as sorted, indented JSON."""
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")


def record_to_ledger(
    ledger_path: str | Path, bench: str, results: dict[str, Any]
) -> dict[str, Any]:
    """Append one bench result to the run ledger; prints the fingerprint."""
    rec = append_bench_record(ledger_path, bench, results)
    print(f"ledger: appended {rec['fingerprint']} -> {ledger_path}")
    return rec


def bench_client(
    bench: str,
    results: dict[str, Any],
    out_path: str | Path,
    ledger_path: str | Path | None = None,
    summary: Callable[[dict[str, Any]], None] | None = None,
) -> dict[str, Any]:
    """The standard bench epilogue: write, record, summarize, return."""
    write_results(results, out_path)
    if ledger_path:
        record_to_ledger(ledger_path, bench, results)
    if summary is not None:
        summary(results)
    return results


def run_cli(main: Callable[..., Any], argv: Any = None) -> int:
    """Run a dict-returning bench ``main`` as a process entry point.

    Maps outcomes onto the shared exit-code convention: a clean run is
    0, an :class:`AssertionError` (every bench's acceptance-gate
    failure) is 1, and unreadable/unwritable inputs are usage errors
    (2).  ``argparse`` already exits 2 on bad flags, so the three codes
    are consistent however the run dies.
    """
    try:
        main(argv)
    except AssertionError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    except OSError as exc:
        return usage_error(str(exc))
    return EXIT_OK
