"""Frozen reference: a collective's loss draws one pair at a time.

``collective_retransmits`` is ``FaultPlan.collective_retransmits`` as it
was before a rank drew its whole row in one ``uint64`` array pass
(``FaultPlan.collective_row``): the splitmix64 chain of
``(seed, src, dst, kind tag, seq)`` in masked Python integers, advanced
one draw at a time until a transmission goes through.  Test-only; do not
import from ``src/``.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(*vals: int) -> int:
    h = _MASK64 & 0x243F6A8885A308D3
    for v in vals:
        h = (h + (v & _MASK64) + _GOLDEN) & _MASK64
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK64
        h ^= h >> 31
    return h


def _next(h: int) -> tuple[int, float]:
    h = (h + _GOLDEN) & _MASK64
    x = h
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return h, (x >> 11) / float(1 << 53)


def collective_retransmits(plan, kind: str, seq: int, src: int, dst: int) -> int:
    """Retransmit count of the ``src -> dst`` message of collective
    instance ``(kind, seq)`` under ``plan``."""
    if plan.loss_rate <= 0.0:
        return 0
    h = _mix(plan.seed, src, dst, _mix(*kind.encode("utf-8")), seq)
    n = 0
    while n < plan.max_retransmits:
        h, u = _next(h)
        if u >= plan.loss_rate:
            break
        n += 1
    return n
