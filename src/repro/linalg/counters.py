"""Operation accounting for the BLAS substrate.

Every kernel in :mod:`repro.linalg.blas` reports the floating-point
operations it performed and the bytes it moved to the ambient
:class:`OpCounter` (if one is active).  The application-level cost models
(Tables 1-3) are built on these counts: a *real* reduced-size run is
instrumented, and the per-stage flop/byte totals are then priced on each
simulated machine by :mod:`repro.machines.cpu`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

SamplerFn = Callable[[float, float, str], None]


class _Slots(threading.local):
    """Per-thread slots with class-level ``None`` defaults: a thread
    that never set one reads the default instead of raising (and
    swallowing) an ``AttributeError`` — ~8x the cost of a hit, paid by
    every :func:`charge` on a thread with no tracer installed."""

    active: "OpCounter | None" = None
    sampler: SamplerFn | None = None


_tls = _Slots()


@dataclass(frozen=True)
class OpSnapshot:
    """Immutable copy of an :class:`OpCounter`'s state at one instant.

    Produced by :meth:`OpCounter.snapshot` and :meth:`OpCounter.delta`;
    the accessor helpers replace the ad-hoc dict building the bench
    harnesses used to copy-paste.
    """

    flops: float
    bytes: float
    calls: int
    by_label: dict[str, tuple[float, float, int]]

    def totals(self) -> tuple[float, float]:
        """(flops, bytes) — the whole-run charge pair."""
        return (self.flops, self.bytes)

    def label_charges(self, with_calls: bool = False) -> dict:
        """Per-label charges: ``{label: (flops, bytes[, calls])}``.

        ``with_calls=False`` (the default) drops call counts — the
        comparison the multi-RHS benches need, since a blocked path
        legitimately makes fewer (bigger) calls for the same work.
        """
        if with_calls:
            return dict(self.by_label)
        return {k: (v[0], v[1]) for k, v in self.by_label.items()}


@dataclass
class OpCounter:
    """Accumulates flops and memory traffic, optionally per label.

    Use as a context manager; counters nest (an inner counter also feeds
    its parent, so a stage counter and a whole-run counter can be active
    simultaneously).
    """

    flops: float = 0.0
    bytes: float = 0.0
    calls: int = 0
    by_label: dict[str, tuple[float, float, int]] = field(default_factory=dict)
    _parent: "OpCounter | None" = None
    _saved: list["OpCounter | None"] = field(default_factory=list)

    def charge(self, flops: float, nbytes: float, label: str = "") -> None:
        # Iterative parent walk with a cycle guard: re-entering the same
        # counter must charge each ancestor exactly once, never recurse.
        node: OpCounter | None = self
        seen: set[int] = set()
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            node.flops += flops
            node.bytes += nbytes
            node.calls += 1
            if label:
                f, b, c = node.by_label.get(label, (0.0, 0.0, 0))
                node.by_label[label] = (f + flops, b + nbytes, c + 1)
            node = node._parent

    def snapshot(self) -> OpSnapshot:
        """Immutable copy of the current totals and per-label charges."""
        return OpSnapshot(
            flops=self.flops,
            bytes=self.bytes,
            calls=self.calls,
            by_label=dict(self.by_label),
        )

    def delta(self, since: OpSnapshot) -> OpSnapshot:
        """Charges accumulated after ``since`` (an earlier snapshot).

        Labels whose charges did not change are dropped, so the result
        reads like a fresh counter covering just the interval.
        """
        by_label: dict[str, tuple[float, float, int]] = {}
        for label, (f, b, c) in self.by_label.items():
            f0, b0, c0 = since.by_label.get(label, (0.0, 0.0, 0))
            if (f, b, c) != (f0, b0, c0):
                by_label[label] = (f - f0, b - b0, c - c0)
        return OpSnapshot(
            flops=self.flops - since.flops,
            bytes=self.bytes - since.bytes,
            calls=self.calls - since.calls,
            by_label=by_label,
        )

    def __enter__(self) -> "OpCounter":
        prev = _tls.active
        self._saved.append(prev)
        if prev is not self:  # re-entry must not make a counter its own parent
            self._parent = prev
        _tls.active = self
        return self

    def __exit__(self, *exc) -> None:
        prev = self._saved.pop() if self._saved else None
        _tls.active = prev
        if not self._saved:
            self._parent = None


def active_counter() -> OpCounter | None:
    """The innermost active counter on this thread, or None."""
    return _tls.active


def set_kernel_sampler(sampler: SamplerFn | None) -> None:
    """Install a read-only observer of module-level :func:`charge` calls.

    Used by :mod:`repro.obs.tracer` to sample BLAS kernel charges onto
    rank timelines.  The sampler sees ``(flops, nbytes, label)`` after
    the counter has been charged and must not charge anything itself —
    tracing enabled vs disabled leaves every OpCounter byte-identical
    (property-tested).  Thread-local, like the active counter.
    """
    _tls.sampler = sampler


def charge(flops: float, nbytes: float, label: str = "") -> None:
    """Charge ops to the active counter (no-op when none is active)."""
    counter = _tls.active
    if counter is not None:
        counter.charge(flops, nbytes, label)
    sampler = _tls.sampler
    if sampler is not None:
        sampler(flops, nbytes, label)
