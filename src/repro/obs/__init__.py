"""repro.obs — unified tracing & metrics layer.

One subsystem for every measurement signal the reproduction produces
(DESIGN.md sections 11 and 16):

* :mod:`repro.obs.tracer` — thread-local event sink and stage tag;
  rank timelines on the installed tracer's clock (virtual
  ``MPI_Wtime`` on a cluster).  Solver stages reach it only through
  :class:`repro.ns.stages.StageScope`;
* :mod:`repro.obs.metrics` — counters / gauges / histograms (message
  sizes, PCG iterations, cache-hit rates);
* :mod:`repro.obs.export` — Chrome trace-event / Perfetto JSON
  exporter and the report-side re-importer;
* :mod:`repro.obs.critpath` — happens-before event-graph recorder,
  critical-path makespan attribution and what-if counterfactuals;
* :mod:`repro.obs.runlog` — persistent append-only run ledger keyed by
  config fingerprint (the cross-run memory under ``perf_report``).

Emitters do nothing when no tracer is installed and never charge the
ambient OpCounter, so instrumentation cannot perturb the flop/byte
accounting it reports on.

A virtual cluster's communication reaches this package through one
record, ``VirtualCluster.event_log``: kept for a run a tracer, a
critical-path recorder or the race sanitizer reads, one tuple per priced
event in host order, holding the values the pricing used.  After the
ranks are done :func:`repro.obs.tracer.spans_from_log` draws spans from
it and :meth:`CritPathRecorder.on_run_finish` replays it into the event
graph and the declared-access table.  Its rows:

* ``("send", rank, stage, dest, tag, nbytes, t_start, ready, wire,
  overhead, nret, delay, factor, resend_cpu, t_after)``;
* ``("timeout", rank, source, tag, t0, timeout, attempt)``;
* ``("recv", rank, stage, source, tag, nbytes, t_entry, t_busy_end,
  t_after, overhead, waited, busy_wait_fraction, send_row)``;
* a collective: ``("arrive", rank, stage, kind, seq, t)`` per rank,
  ``("complete", kind, seq, t_start, t_done, components, meta)`` by
  the last arriver, ``("release", rank, kind, seq, t_entry, t_sync,
  t_done, waited, busy_wait_fraction)`` per rank;
* ``("crash", rank, t)`` and ``("access", rank, op, name, site, key)``

where ``stage`` is the rank's solver stage, ``send_row`` the matching
send's row and ``key`` the declared object's id.
"""

from .critpath import (
    CritPathRecorder,
    CriticalPath,
    EventGraph,
    analyze,
    render_critpath_report,
    swap_network,
)
from .export import (
    idle_by_rank,
    load_chrome_trace,
    stage_breakdown,
    to_chrome_trace,
    write_chrome_trace,
)
from .metrics import (
    MetricsRegistry,
    inc,
    observe,
    scoped,
    set_gauge,
)
from .runlog import RunLedger, config_fingerprint
from .tracer import (
    Trace,
    TraceEvent,
    Tracer,
    current,
    current_stage,
    install,
    instant,
)

__all__ = [
    "Trace",
    "TraceEvent",
    "Tracer",
    "current",
    "current_stage",
    "install",
    "instant",
    "MetricsRegistry",
    "inc",
    "observe",
    "scoped",
    "set_gauge",
    "idle_by_rank",
    "load_chrome_trace",
    "stage_breakdown",
    "to_chrome_trace",
    "write_chrome_trace",
    "CritPathRecorder",
    "CriticalPath",
    "EventGraph",
    "analyze",
    "render_critpath_report",
    "swap_network",
    "RunLedger",
    "config_fingerprint",
]
