"""Operation accounting for the BLAS substrate.

Every kernel in :mod:`repro.linalg.blas` reports the floating-point
operations it performed and the bytes it moved to the ambient
:class:`OpCounter` (if one is active).  The application-level cost models
(Tables 1-3) are built on these counts: a *real* reduced-size run is
instrumented, and the per-stage flop/byte totals are then priced on each
simulated machine by :mod:`repro.machines.cpu`.

Hot loops whose charges are fixed by their shapes (a sum-factorised
operator apply, a CG iteration) precompute them as a :data:`Tape` and
settle it with one :func:`charge_tape` call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

SamplerFn = Callable[[float, float, str], None]
#: A precomputed charge sequence: ``(flops, nbytes, label)`` entries in
#: the order one :func:`charge` call per entry would make them.
Tape = tuple[tuple[float, float, str], ...]


class _Slots(threading.local):
    """Per-thread slots with class-level ``None`` defaults: a thread
    that never set one reads the default instead of raising (and
    swallowing) an ``AttributeError`` — ~8x the cost of a hit, paid by
    every :func:`charge` on a thread with no tracer installed."""

    active: "OpCounter | None" = None
    sampler: SamplerFn | None = None


_tls = _Slots()


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

    def charge_tape(self, tape: Tape) -> None:
        """:meth:`charge` once per entry of ``tape``, in one walk of the
        parent chain: each node adds the entries in order, so its
        totals, ``calls`` and ``by_label`` come out as the sequential
        charges leave them, to the bit."""
        node: OpCounter | None = self
        seen: set[int] = set()
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            total_f, total_b = node.flops, node.bytes
            by_label = node.by_label
            for flops, nbytes, label in tape:
                total_f += flops
                total_b += nbytes
                if label:
                    f, b, c = by_label.get(label, (0.0, 0.0, 0))
                    by_label[label] = (f + flops, b + nbytes, c + 1)
            node.flops, node.bytes = total_f, total_b
            node.calls += len(tape)
            node = node._parent

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


def charge_tape(tape: Tape) -> None:
    """:func:`charge` every entry of ``tape``, in order, for the price of
    one call: the thread's slots are read once, the counter chain is
    walked once (:meth:`OpCounter.charge_tape`), and then the sampler
    sees each entry in turn.  Totals, ``calls``, ``by_label`` and the
    sampler's sequence equal those of one :func:`charge` per entry."""
    slots = _tls
    counter, sampler = slots.active, slots.sampler
    if counter is not None:
        counter.charge_tape(tape)
    if sampler is not None:
        for flops, nbytes, label in tape:
            sampler(flops, nbytes, label)
