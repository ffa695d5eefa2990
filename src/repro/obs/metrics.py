"""Metrics registry: counters, gauges, and histograms.

The second leg of the observability layer (the first is the span tracer
of :mod:`repro.obs.tracer`): low-rate aggregate signals that do not
belong on a timeline — message-size histograms, PCG iteration counts,
cache-hit rates for the Dirichlet-value and viscous-operator caches.

The module-level helpers (:func:`inc`, :func:`observe`, :func:`set_gauge`)
are no-ops unless a registry is activated with :func:`scoped`, so
instrumented hot paths pay one global read when metrics are off.  The
registry is process-global (not thread-local) on purpose: simmpi rank
threads aggregate into the same instruments, which take an internal
lock only on update.

Like the tracer, nothing here charges the ambient
:class:`~repro.linalg.counters.OpCounter` — metrics on/off leaves
flop/byte accounting byte-identical.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "scoped",
    "inc",
    "observe",
    "set_gauge",
]

_active: "MetricsRegistry | None" = None
_active_lock = threading.Lock()


class Counter:
    """Monotonically increasing count (events, bytes, cache hits)."""

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-observed value (residuals, queue depths)."""

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.value: float | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Power-of-two bucketed distribution (message sizes, iterations).

    Bucket ``i`` counts observations in ``(2^(i-1), 2^i]``, with bucket
    0 holding everything <= 1; exact count/sum/min/max ride along so
    means stay exact even though the shape is bucketed.
    """

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._lock = lock
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets: dict[int, int] = {}

    @staticmethod
    def bucket_of(value: float) -> int:
        if value <= 1.0:
            return 0
        b = 0
        edge = 1.0
        while edge < value:
            edge *= 2.0
            b += 1
        return b

    def observe(self, value: float) -> None:
        value = float(value)
        b = self.bucket_of(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            # bucket upper edges (2^i) -> count, sorted for readability
            "buckets": {
                str(int(2**b)): n for b, n in sorted(self.buckets.items())
            },
        }


class MetricsRegistry:
    """Create-or-get instrument store with a JSON-able snapshot."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name, self._lock)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict[str, dict]:
        """name -> instrument snapshot, JSON-serialisable."""
        with self._lock:
            items = list(self._instruments.items())
        return {name: inst.snapshot() for name, inst in sorted(items)}

    def reset(self) -> None:
        """Drop every instrument, returning the registry to birth state.

        For long-lived registries observing back-to-back clusters in
        one process (the campaign-engine pattern): reset between runs
        instead of replacing the registry, so handles held by callers
        keep pointing at the live store.
        """
        with self._lock:
            self._instruments.clear()

    def hit_rate(self, prefix: str) -> float | None:
        """Hit rate of a ``<prefix>.hits`` / ``<prefix>.misses`` pair."""
        with self._lock:
            hits = self._instruments.get(f"{prefix}.hits")
            misses = self._instruments.get(f"{prefix}.misses")
        h = hits.value if isinstance(hits, Counter) else 0.0
        m = misses.value if isinstance(misses, Counter) else 0.0
        total = h + m
        return None if total == 0 else h / total


# -- process-global activation --------------------------------------------------


class _RegistryScope:
    def __init__(self, registry: MetricsRegistry):
        self._registry = registry
        self._prev: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        global _active
        with _active_lock:
            self._prev = _active
            _active = self._registry
        return self._registry

    def __exit__(self, *exc: object) -> None:
        global _active
        with _active_lock:
            _active = self._prev


def scoped(registry: MetricsRegistry | None = None) -> _RegistryScope:
    """Activate a *freshly reset* registry for one measurement scope.

    The scoped-reset helper for back-to-back clusters in one process:
    ``with metrics.scoped() as reg:`` guarantees ``reg`` starts empty
    (a passed-in long-lived registry is reset on entry) and deactivates
    on exit, so consecutive runs never bleed counters into each other.
    """
    if registry is None:
        registry = MetricsRegistry()
    else:
        registry.reset()
    return _RegistryScope(registry)


def inc(name: str, amount: float = 1.0) -> None:
    """Bump a counter in the active registry (no-op when disabled)."""
    reg = _active
    if reg is not None:
        reg.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op when disabled)."""
    reg = _active
    if reg is not None:
        reg.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge (no-op when disabled)."""
    reg = _active
    if reg is not None:
        reg.gauge(name).set(value)
