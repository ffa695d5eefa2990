"""Shared utilities: clocks and stage timers."""

from .timing import StageRecord, StageTimer, cpu_clock, wall_clock

__all__ = [
    "StageRecord",
    "StageTimer",
    "cpu_clock",
    "wall_clock",
]
