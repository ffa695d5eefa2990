"""Chrome trace-event / Perfetto JSON exporter and re-importer.

Serialises a :class:`~repro.obs.tracer.Trace` to the Trace Event Format
(the JSON consumed by ``chrome://tracing`` and https://ui.perfetto.dev):
one process, one thread track per rank, complete ("X") events for
spans, instant ("i") events for samples, plus thread-name metadata.
Timestamps are microseconds; virtual-cluster traces are virtual
``MPI_Wtime`` microseconds, so the browsable timeline IS the paper's
cost model laid out per rank.

The re-importer (:func:`load_chrome_trace` / :func:`stage_breakdown`)
reconstructs the Figure 12-16 per-stage cpu/wall/idle accounting from a
trace file alone — ``repro.apps.trace_report`` round-trips through the
JSON so the report provably derives from the artifact, not from
solver-internal state.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..util.timing import StageTimer
from .tracer import Trace, TraceEvent

__all__ = [
    "to_chrome_trace",
    "write_chrome_trace",
    "load_chrome_trace",
    "stage_breakdown",
    "idle_by_rank",
]

_US = 1.0e6  # seconds -> trace-event microseconds


def to_chrome_trace(
    trace: Trace,
    rank_traces: dict[int, list[str]] | None = None,
    label: str = "repro virtual cluster",
) -> dict[str, Any]:
    """Render a Trace as a Trace-Event-Format dict.

    ``rank_traces`` (from :meth:`VirtualCluster.rank_traces`) attaches
    each rank's most recent communication event strings to its thread
    metadata, so the comm verifier's view and the timeline share one
    artifact.
    """
    process_args: dict[str, Any] = {"name": label}
    if trace.annotations:
        process_args["annotations"] = dict(trace.annotations)
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": process_args,
        }
    ]
    for rank in sorted(trace.tracers):
        meta_args: dict[str, Any] = {"name": f"rank {rank}"}
        if rank_traces and rank in rank_traces:
            meta_args["recent_comm_events"] = list(rank_traces[rank])
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "args": meta_args,
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": 0,
                "tid": rank,
                "args": {"sort_index": rank},
            }
        )
    for ev in trace.events():
        entry: dict[str, Any] = {
            "name": ev.name,
            "cat": ev.cat or "default",
            "ph": ev.ph,
            "ts": ev.ts * _US,
            "pid": 0,
            "tid": ev.rank,
        }
        if ev.ph == "X":
            entry["dur"] = ev.dur * _US
        if ev.ph == "i":
            entry["s"] = "t"  # thread-scoped instant
        if ev.args:
            entry["args"] = ev.args
        events.append(entry)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    trace: Trace,
    path: str | Path,
    rank_traces: dict[int, list[str]] | None = None,
    label: str = "repro virtual cluster",
) -> Path:
    """Write the trace JSON; returns the path written."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(trace, rank_traces, label), fh, indent=1)
        fh.write("\n")
    return path


def load_chrome_trace(path: str | Path) -> list[TraceEvent]:
    """Read a trace JSON back into :class:`TraceEvent` records.

    Metadata ("M") events are dropped; timestamps come back in seconds.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    events: list[TraceEvent] = []
    for entry in doc["traceEvents"]:
        if entry.get("ph") == "M":
            continue
        events.append(
            TraceEvent(
                name=entry["name"],
                cat=entry.get("cat", ""),
                ts=entry["ts"] / _US,
                dur=entry.get("dur", 0.0) / _US,
                rank=int(entry.get("tid", 0)),
                args=entry.get("args"),
                ph=entry.get("ph", "X"),
            )
        )
    return events


def stage_breakdown(
    events: list[TraceEvent], rank: int | None = None
) -> StageTimer:
    """Per-stage cpu/wall accounting recovered from ``stage`` spans.

    Each stage span carries its virtual ``cpu``/``wall`` deltas in
    ``args`` (written by the solver's stage scope); summing them into a
    :class:`StageTimer` reproduces the Figure 12-16 breakdown, with
    ``wall - cpu`` per stage being the attributed idle time.  ``rank``
    restricts to one rank track; the default merges all ranks.
    """
    timer = StageTimer()
    for ev in events:
        if ev.cat != "stage" or ev.ph != "X":
            continue
        if rank is not None and ev.rank != rank:
            continue
        args = ev.args or {}
        wall = float(args.get("wall", ev.dur))
        cpu = float(args.get("cpu", wall))
        timer.add(ev.name, cpu=cpu, wall=wall)
    return timer


def idle_by_rank(events: list[TraceEvent]) -> dict[int, float]:
    """Total idle-wait seconds per waiting rank (sum of its ``idle`` span durations)."""
    out: dict[int, float] = {}
    for ev in events:
        if ev.cat == "idle" and ev.ph == "X":
            out[ev.rank] = out.get(ev.rank, 0.0) + ev.dur
    return out
