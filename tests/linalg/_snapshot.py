"""Immutable copies of an ``OpCounter``'s state, for comparing charges.

A run reads its counters' fields directly; only the tests compare two
counters (or one counter at two instants) as values, or ask which
counter a thread is charging, so both live here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.linalg import counters


def active_counter() -> counters.OpCounter | None:
    """The innermost active counter on this thread, or None (a run only
    charges it; the tests look at it)."""
    return counters._tls.active


@dataclass(frozen=True)
class OpSnapshot:
    """An :class:`~repro.linalg.counters.OpCounter`'s totals and per-label
    charges at one instant."""

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
        comparison the multi-RHS checks need, since a blocked path
        legitimately makes fewer (bigger) calls for the same work.
        """
        if with_calls:
            return dict(self.by_label)
        return {k: (v[0], v[1]) for k, v in self.by_label.items()}


def snapshot(counter) -> OpSnapshot:
    """Immutable copy of ``counter``'s current totals and per-label charges."""
    return OpSnapshot(
        flops=counter.flops,
        bytes=counter.bytes,
        calls=counter.calls,
        by_label=dict(counter.by_label),
    )
