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
"""

from .critpath import (
    CritPathRecorder,
    CriticalPath,
    EventGraph,
    analyze,
    critical_path,
    render_critpath_report,
    swap_network,
    whatif,
)
from .export import (
    idle_by_peer,
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
    "idle_by_peer",
    "load_chrome_trace",
    "stage_breakdown",
    "to_chrome_trace",
    "write_chrome_trace",
    "CritPathRecorder",
    "CriticalPath",
    "EventGraph",
    "analyze",
    "critical_path",
    "render_critpath_report",
    "swap_network",
    "whatif",
    "RunLedger",
    "config_fingerprint",
]
