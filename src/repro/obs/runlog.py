"""Persistent run ledger: append-only JSONL memory across bench runs.

Every bench CLI run forgets its predecessors — the golden pins
(``tests/goldens.json``) only ever compare one fresh report against
one committed state.  The ledger is the cross-run
memory underneath the ROADMAP's campaign-engine item: each run appends
one JSON line keyed by a **config fingerprint** (a stable hash of the
run's configuration: machine, network, mesh/order, ranks, workload
knobs), so ``repro.apps.perf_report`` can render per-configuration
trajectories and flag drift against history instead of a single pin.

Record schema (``schema: 1``)::

    {
      "schema": 1,
      "bench":  "scaling_bench",
      "ts":     "2026-08-09T12:00:00+00:00",   # host time, metadata only
      "git_rev": "d8aafb5" | null,
      "fingerprint": "9f3a...",                 # hash of "config" only
      "config":  {...},                         # what was run
      "status":  "ok" | "failed",               # job outcome (default "ok")
      "values":  {flat key: number},            # deterministic quantities
      "timings": {flat key: seconds},           # host timings (drift warns)
      "critpath": {...} | null,                 # critical-path summary
      "metrics": {...} | null                   # metrics snapshot
    }

Records may carry an ``"error"`` string when ``status`` is ``failed``
(the campaign engine records why a job died).  Older ledgers predate the
``status`` field; readers treat a missing status as ``"ok"``.

The fingerprint hashes only ``config`` (canonical JSON), never the
timestamp or git revision: drift *across* revisions of the same
configuration is exactly what trend analysis must see, so the revision
rides in the record for attribution instead of splitting the history.
Host wall time appears only as record metadata — everything virtual
stays deterministic, which is what lets ``perf_report`` hard-flag
changes in ``values`` while merely warning on ``timings``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "config_fingerprint",
    "git_rev",
    "flatten_report",
    "is_timing_key",
    "split_flat",
    "RunLedger",
    "append_bench_record",
    "iter_timing_drift",
]


def config_fingerprint(config: dict[str, Any]) -> str:
    """Stable 16-hex-char fingerprint of a run configuration.

    Canonical-JSON hash: insensitive to dict ordering, stable across
    processes and platforms (asserted by the tier-1 tests).  Floats are
    serialised by ``repr`` via :func:`json.dumps`, so numerically equal
    configs hash equal.
    """
    blob = json.dumps(
        config, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def git_rev(root: str | Path | None = None) -> str | None:
    """Short git revision of the tree at ``root`` (default: the working
    directory), or None outside a repo.  Resolved once per process and
    directory: every record carries it, and ``git`` costs 100 appends."""
    return _git_rev(os.getcwd() if root is None else str(root))


@functools.lru_cache(maxsize=None)
def _git_rev(root: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def flatten_report(report: Any, prefix: str = "") -> dict[str, Any]:
    """Flatten nested dicts/lists to dotted scalar leaves.

    ``{"a": {"b": 1}, "c": [2, 3]}`` -> ``{"a.b": 1, "c.0": 2, "c.1": 3}``.
    Non-scalar leaves that aren't dict/list (None, etc.) are kept as-is.
    """
    flat: dict[str, Any] = {}
    if isinstance(report, dict):
        for k in sorted(report, key=str):
            key = f"{prefix}.{k}" if prefix else str(k)
            flat.update(flatten_report(report[k], key))
    elif isinstance(report, (list, tuple)):
        for i, v in enumerate(report):
            key = f"{prefix}.{i}" if prefix else str(i)
            flat.update(flatten_report(v, key))
    else:
        flat[prefix] = report
    return flat


def is_timing_key(key: str) -> bool:
    """Host-timing keys: wall-clock quantities whose drift only warns.

    ``*_s`` suffixes and speedup ratios are host measurements;
    everything else in a bench report is treated as deterministic
    (``tests/apps/test_smoke_goldens.py`` pins exactly that remainder).
    """
    leaf = key.rsplit(".", 1)[-1]
    return leaf.endswith("_s") or "speedup" in leaf or "elapsed" in leaf


def split_flat(report: Any) -> tuple[dict[str, Any], dict[str, float]]:
    """Flatten a bench report and split (deterministic values, timings)."""
    values: dict[str, Any] = {}
    timings: dict[str, float] = {}
    for key, val in flatten_report(report).items():
        if is_timing_key(key):
            if isinstance(val, (int, float)) and not isinstance(val, bool):
                timings[key] = float(val)
        else:
            values[key] = val
    return values, timings


class RunLedger:
    """Append-only JSONL store of bench run records.

    One line per run.  Concurrent appenders — campaign workers in one
    process, or several bench processes sharing one ledger — are safe at
    line granularity: the record is serialised to one buffer first and
    written with a single ``os.write`` on an ``O_APPEND`` descriptor, so
    the kernel's atomic append positioning keeps lines from interleaving
    (a buffered ``fh.write`` gives no such guarantee: the stdio layer
    may flush a line in several chunks).  Reading tolerates nothing: a
    corrupt line is a real error and raises, because silent skipping
    would turn the drift detector blind exactly when something went
    wrong.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(
        self,
        bench: str,
        config: dict[str, Any],
        *,
        report: Any = None,
        values: dict[str, Any] | None = None,
        timings: dict[str, float] | None = None,
        critpath: dict[str, Any] | None = None,
        metrics: dict[str, Any] | None = None,
        status: str = "ok",
        error: str | None = None,
    ) -> dict[str, Any]:
        """Append one run record; returns the record written.

        Pass the whole bench ``report`` to have it split into
        deterministic ``values`` and host ``timings`` automatically, or
        pass the two dicts explicitly (explicit wins).  ``status`` is
        the completion marker the campaign engine resumes from: only
        ``"ok"`` records mark a fingerprint as done.
        """
        if status not in ("ok", "failed"):
            raise ValueError(f"status must be 'ok' or 'failed', not {status!r}")
        auto_values: dict[str, Any] = {}
        auto_timings: dict[str, float] = {}
        if report is not None:
            auto_values, auto_timings = split_flat(report)
        record = {
            "schema": 1,
            "bench": bench,
            "ts": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "git_rev": git_rev(),
            "fingerprint": config_fingerprint(config),
            "config": config,
            "status": status,
            "values": values if values is not None else auto_values,
            "timings": timings if timings is not None else auto_timings,
            "critpath": critpath,
            "metrics": metrics,
        }
        if error is not None:
            record["error"] = str(error)
        self._write_line(json.dumps(record, sort_keys=True))
        return record

    def _write_line(self, line: str) -> None:
        """Atomically append one line: serialise first, one os.write.

        O_APPEND makes the kernel pick the offset at write time, so
        concurrent appenders (threads or processes) cannot clobber each
        other; emitting the whole line in a single write keeps it from
        interleaving with another writer's line.
        """
        data = (line + "\n").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            str(self.path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            written = os.write(fd, data)
            if written != len(data):
                raise OSError(
                    f"short ledger write: {written} of {len(data)} bytes"
                )
        finally:
            os.close(fd)

    def records(
        self,
        bench: str | None = None,
        fingerprint: str | None = None,
    ) -> list[dict[str, Any]]:
        """All records, oldest first, optionally filtered."""
        if not self.path.exists():
            return []
        out: list[dict[str, Any]] = []
        with self.path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{self.path}:{lineno}: corrupt ledger line: {exc}"
                    ) from exc
                if bench is not None and rec.get("bench") != bench:
                    continue
                if fingerprint is not None and rec.get("fingerprint") != fingerprint:
                    continue
                out.append(rec)
        return out

    def grouped_by_bench(self) -> dict[tuple[str, str], list[dict[str, Any]]]:
        """(bench, fingerprint) -> records (oldest first), first-seen order.

        The history key :mod:`repro.apps.perf_report` compares against:
        two benches that happen to share a config fingerprint must not
        pool their timing histories.
        """
        groups: dict[tuple[str, str], list[dict[str, Any]]] = {}
        for rec in self.records():
            fp = rec.get("fingerprint", "")
            if not fp:
                continue
            groups.setdefault((str(rec.get("bench", "")), fp), []).append(rec)
        return groups

    # -- completion index (the campaign engine's resumable store) ----------------

    def latest(self, bench: str | None = None) -> dict[str, dict[str, Any]]:
        """fingerprint -> its *latest* record, in first-seen order.

        The one place "the latest record of a fingerprint wins" is
        decided; resume, the campaign report and the catalog search
        all read it.
        """
        out: dict[str, dict[str, Any]] = {}
        for rec in self.records(bench=bench):
            fp = rec.get("fingerprint", "")
            if fp:
                out[fp] = rec
        return out

    def statuses(self, bench: str | None = None) -> dict[str, str]:
        """fingerprint -> status of its latest record.

        Records written before the status field default to ``"ok"``
        (they predate failure recording, and every pre-campaign bench
        appended only after a successful run).
        """
        return {
            fp: str(rec.get("status", "ok"))
            for fp, rec in self.latest(bench).items()
        }

    def completed(self, bench: str | None = None) -> set[str]:
        """Fingerprints whose latest record finished ok.

        A restarted campaign skips exactly this set: pending jobs never
        reached the ledger, and failed jobs' latest status is
        ``"failed"``, so both re-run.
        """
        return {
            fp for fp, st in self.statuses(bench=bench).items() if st == "ok"
        }


def append_bench_record(
    ledger_path: str | Path,
    bench: str,
    results: dict[str, Any],
) -> dict[str, Any]:
    """Append one bench CLI result dict to a ledger (the ``--ledger`` flag).

    Expects the bench convention: ``results["config"]`` is the run
    configuration (fingerprinted), an optional ``results["critpath"]``
    block rides in the dedicated field, and everything else is the
    report proper (split into deterministic values vs host timings).
    """
    report = {
        k: v for k, v in results.items() if k not in ("config", "critpath")
    }
    return RunLedger(ledger_path).append(
        bench,
        dict(results.get("config", {})),
        report=report,
        critpath=results.get("critpath"),
    )


def iter_timing_drift(
    history: Iterable[dict[str, Any]],
    rtol: float = 0.5,
) -> list[dict[str, Any]]:
    """Trend-aware drift findings for one fingerprint's history.

    Compares the latest record against the *median* of each timing key
    over the earlier records (so one noisy run doesn't poison the
    reference), and the latest deterministic values against the
    immediately preceding record (any change is a hard finding).
    Returns a list of finding dicts sorted most-severe first.

    Reference-history contract (pinned by the tier-1 tests):

    * the latest run is **excluded** from its own reference before the
      median is taken — folding it in would drag the reference towards
      the very run under test and dampen real regressions;
    * a single-sample reference (``nref == 1``, i.e. a two-run history)
      still compares, but the finding is downgraded to
      ``suspect-regression`` / ``suspect-improvement``: one reference
      run cannot distinguish "the code regressed" from "the first run
      was noisy", so the report marks these low-confidence.
    """
    hist = list(history)
    if len(hist) < 2:
        return []
    # hist[:-1]: the run under test never contributes to its own
    # reference median.
    latest, earlier = hist[-1], hist[:-1]
    findings: list[dict[str, Any]] = []
    # Host timings vs median of history: warn-level drift.
    for key, val in sorted(latest.get("timings", {}).items()):
        samples = sorted(
            rec["timings"][key]
            for rec in earlier
            if key in rec.get("timings", {})
        )
        if not samples:
            continue
        mid = len(samples) // 2
        median = (
            samples[mid]
            if len(samples) % 2
            else 0.5 * (samples[mid - 1] + samples[mid])
        )
        if median <= 0:
            continue
        ratio = val / median
        if ratio > 1.0 + rtol or ratio < 1.0 / (1.0 + rtol):
            severity = "regression" if ratio > 1.0 else "improvement"
            if len(samples) == 1:
                severity = f"suspect-{severity}"
            findings.append(
                {
                    "severity": severity,
                    "kind": "timing",
                    "key": key,
                    "latest": val,
                    "reference": median,
                    "ratio": ratio,
                    "nref": len(samples),
                }
            )
    # Deterministic values vs the previous record: hard drift.
    prev = earlier[-1]
    for key, val in sorted(latest.get("values", {}).items()):
        if key not in prev.get("values", {}):
            continue
        ref = prev["values"][key]
        if val != ref:
            findings.append(
                {
                    "severity": "drift",
                    "kind": "value",
                    "key": key,
                    "latest": val,
                    "reference": ref,
                }
            )
    order = {
        "drift": 0,
        "regression": 1,
        "suspect-regression": 2,
        "improvement": 3,
        "suspect-improvement": 4,
    }
    findings.sort(key=lambda f: (order.get(f["severity"], 5), f["key"]))
    return findings
