"""Thread-local, nestable span tracer — the observability spine.

Every measurement signal the reproduction already collects
(:class:`~repro.util.timing.StageTimer` stages, BLAS kernel charges,
PCG iterations, and simmpi communication events) can emit into one
:class:`Trace`, tagged with rank and timestamp, without perturbing the
signal it observes:

* **zero-cost when disabled** — emitters read one thread-local slot
  (:func:`current`) and do nothing when no tracer is installed; no
  objects are allocated and no clocks are read;
* **charge-neutral** — nothing in this module calls
  :func:`repro.linalg.counters.charge` or a counted BLAS kernel, so
  tracing enabled vs disabled leaves :class:`OpCounter` totals
  byte-identical (asserted by the tier-1 property tests).

Time domain: each :class:`Tracer` is bound to a ``clock`` callable.
Virtual-cluster runs bind each rank's tracer to that rank's virtual
wall clock (``simmpi`` timestamps are the paper's ``MPI_Wtime``);
serial host runs default to :func:`repro.util.timing.wall_clock`.

Event categories (the ``cat`` field, stable — the exporter and the
report CLI key off them):

* ``stage``  — one numbered timestep stage, emitted only by
  :class:`repro.ns.stages.StageScope`; ``args`` carries the stage's
  ``flops``/``bytes``, plus virtual ``cpu``/``wall`` deltas on a cluster;
* ``comm``   — one send / recv / collective, with byte counts;
* ``idle``   — the blocking portion of a recv or collective: the
  cpu/wall gap the paper attributes to network inefficiency;
* ``kernel`` — a sampled BLAS charge (one event every
  ``sample_every`` charges per label, cumulative totals in ``args``);
* ``pcg``    — one converged PCG solve (iterations, residual).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from ..util.timing import wall_clock

__all__ = [
    "TraceEvent",
    "Tracer",
    "Trace",
    "current",
    "install",
    "instant",
    "push_stage",
    "pop_stage",
    "current_stage",
]

ClockFn = Callable[[], float]


class _Slots(threading.local):
    """Per-thread slots; an unset one reads its class-level ``None``
    (see ``repro.linalg.counters._Slots``)."""

    tracer: "Tracer | None" = None
    stages: list[str] | None = None


_tls = _Slots()


@dataclass
class TraceEvent:
    """One complete ("X"-phase) or instant ("i"-phase) trace event.

    Timestamps are seconds in the owning tracer's clock domain; the
    Chrome exporter converts to microseconds.
    """

    name: str
    cat: str
    ts: float
    dur: float
    rank: int
    args: dict[str, Any] | None = None
    ph: str = "X"


class Tracer:
    """Per-thread event sink bound to one rank track and one clock.

    A tracer is installed on a thread with :func:`install`; the module
    emit helpers then route to it.  Each tracer owns its event list, so
    rank threads never contend on a lock.
    """

    def __init__(
        self,
        rank: int = 0,
        clock: ClockFn | None = None,
        sample_every: int = 64,
    ):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.rank = rank
        self.clock: ClockFn = wall_clock if clock is None else clock
        self.sample_every = sample_every
        self.events: list[TraceEvent] = []
        # label -> [calls, flops, bytes] cumulative kernel attribution.
        self.kernel_charges: dict[str, list[float]] = {}

    # -- emission ---------------------------------------------------------------

    def emit_span(
        self,
        name: str,
        cat: str,
        t0: float,
        t1: float,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record a completed span [t0, t1] (clock-domain seconds)."""
        self.events.append(
            TraceEvent(name, cat, t0, max(0.0, t1 - t0), self.rank, args)
        )

    def emit_instant(
        self, name: str, cat: str, args: dict[str, Any] | None = None
    ) -> None:
        self.events.append(
            TraceEvent(name, cat, self.clock(), 0.0, self.rank, args, ph="i")
        )

    # -- kernel charge sampling ---------------------------------------------------

    def kernel_sample(self, flops: float, nbytes: float, label: str) -> None:
        """Observe one BLAS charge (installed as the counters sampler).

        Aggregates exact per-label flop/byte attribution and emits one
        timeline instant every ``sample_every`` charges per label.
        Never charges anything itself.
        """
        acc = self.kernel_charges.get(label)
        if acc is None:
            acc = [0.0, 0.0, 0.0]
            self.kernel_charges[label] = acc
        acc[0] += 1
        acc[1] += flops
        acc[2] += nbytes
        if int(acc[0]) % self.sample_every == 1 or self.sample_every == 1:
            self.emit_instant(
                label or "(unlabelled)",
                "kernel",
                {
                    "calls": int(acc[0]),
                    "flops": acc[1],
                    "bytes": acc[2],
                    "last_flops": flops,
                    "last_bytes": nbytes,
                },
            )

    def kernel_totals(self) -> dict[str, tuple[int, float, float]]:
        """label -> (calls, flops, bytes) seen while installed."""
        return {
            k: (int(v[0]), v[1], v[2]) for k, v in self.kernel_charges.items()
        }


@dataclass
class Trace:
    """A whole run's worth of tracers, one per rank track.

    ``VirtualCluster.run`` creates one rank tracer per rank, bound to
    that rank's virtual wall clock; serial callers use ``rank_tracer(0)``
    with the default host clock.
    """

    sample_every: int = 64
    tracers: dict[int, Tracer] = field(default_factory=dict)
    annotations: dict[str, Any] = field(default_factory=dict)

    def annotate(self, key: str, value: Any) -> None:
        """Attach a run-level annotation, exported with the trace
        metadata (e.g. the sanitizer's final vector clocks)."""
        self.annotations[key] = value

    def rank_tracer(self, rank: int, clock: ClockFn | None = None) -> Tracer:
        """Create (or return) the tracer for one rank track."""
        tr = self.tracers.get(rank)
        if tr is None:
            tr = Tracer(rank=rank, clock=clock, sample_every=self.sample_every)
            self.tracers[rank] = tr
        return tr

    def events(self) -> list[TraceEvent]:
        """All events, merged across ranks, time-ordered."""
        merged = [e for tr in self.tracers.values() for e in tr.events]
        merged.sort(key=lambda e: (e.ts, e.rank, -e.dur))
        return merged

    @property
    def nranks(self) -> int:
        return len(self.tracers)


# -- thread-local stage stack ---------------------------------------------------
#
# ``StageScope`` announces each solver stage here whether or not a
# tracer is installed, so observers that tag events by NekTar stage (the
# critical-path recorder) work on untraced runs too.  Per-thread, like
# the tracer slot: each rank thread keeps its own stack.


def push_stage(name: str) -> None:
    """Enter a named solver stage on this thread (nests)."""
    stack = _tls.stages
    if stack is None:
        _tls.stages = [name]
    else:
        stack.append(name)


def pop_stage() -> None:
    """Leave the innermost stage scope (no-op when the stack is empty)."""
    stack = _tls.stages
    if stack:
        stack.pop()


def current_stage() -> str | None:
    """Innermost stage name on this thread, or None outside any stage."""
    stack = _tls.stages
    return stack[-1] if stack else None


# -- thread-local installation -------------------------------------------------


def current() -> Tracer | None:
    """The tracer installed on this thread, or None."""
    return _tls.tracer


class _Installation:
    """Context manager installing ``tracer`` thread-locally, plus the
    kernel-charge sampler hook in :mod:`repro.linalg.counters`."""

    def __init__(self, tracer: Tracer | None):
        self._tracer = tracer
        self._prev: Tracer | None = None

    def __enter__(self) -> Tracer | None:
        from ..linalg import counters

        self._prev = _tls.tracer
        _tls.tracer = self._tracer
        counters.set_kernel_sampler(
            None if self._tracer is None else self._tracer.kernel_sample
        )
        return self._tracer

    def __exit__(self, *exc: object) -> None:
        from ..linalg import counters

        _tls.tracer = self._prev
        counters.set_kernel_sampler(
            None if self._prev is None else self._prev.kernel_sample
        )


def install(tracer: Tracer | None) -> _Installation:
    """Install ``tracer`` on this thread for the duration of a ``with``.

    ``install(None)`` is valid and disables tracing in the block (used
    to shield sub-computations).  Nests: the previous installation is
    restored on exit.
    """
    return _Installation(tracer)


# -- module-level emit helper (a no-op when nothing is installed) ----------------


def instant(name: str, cat: str = "", **args: Any) -> None:
    """Emit an instant event (no-op when no tracer is installed)."""
    tr = _tls.tracer
    if tr is not None:
        tr.emit_instant(name, cat, args or None)

