"""Timing utilities mirroring the paper's measurement protocol.

The paper times DNS stages two ways: ``clock()`` (CPU time) and
``MPI_Wtime`` (wall clock); the gap between the two is idle time spent
waiting on the network.  This module provides the same pair of clocks for
*real* runs on the host, plus :class:`StageTimer`, the instrument used to
produce the per-stage breakdowns of Figures 12-16.

Virtual-time runs (on the simulated cluster) do not use these clocks; they
read the rank-local clocks maintained by :mod:`repro.parallel.simmpi`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


def cpu_clock() -> float:
    """CPU seconds consumed by this process (the paper's ``clock()``)."""
    return time.process_time()


def wall_clock() -> float:
    """Wall-clock seconds (the paper's ``MPI_Wtime``)."""
    return time.perf_counter()


@dataclass
class StageRecord:
    """Accumulated CPU and wall time for one named stage."""

    name: str
    cpu: float = 0.0
    wall: float = 0.0
    calls: int = 0


@dataclass
class StageTimer:
    """Accumulates per-stage CPU and wall-clock time across timesteps.

    The serial and parallel NekTar analogues split each timestep into the
    paper's numbered stages (Section 4.1, items 1-7).  Usage::

        timer = StageTimer()
        with timer.stage("2:nonlinear"):
            ...work...
        timer.percentages("cpu")   # -> {"2:nonlinear": 61.3, ...}
    """

    records: dict[str, StageRecord] = field(default_factory=dict)

    def stage(self, name: str) -> "_StageContext":
        rec = self.records.setdefault(name, StageRecord(name))
        return _StageContext(rec)

    def add(self, name: str, cpu: float, wall: float | None = None) -> None:
        """Directly charge time to a stage (used by cost-model drivers)."""
        rec = self.records.setdefault(name, StageRecord(name))
        rec.cpu += cpu
        rec.wall += cpu if wall is None else wall
        rec.calls += 1

    def total(self, kind: str = "cpu") -> float:
        return sum(getattr(r, kind) for r in self.records.values())

    def percentages(self, kind: str = "cpu") -> dict[str, float]:
        """Share of each stage in percent, as in the paper's pie charts."""
        tot = self.total(kind)
        if tot <= 0.0:
            return {name: 0.0 for name in self.records}
        return {
            name: 100.0 * getattr(rec, kind) / tot
            for name, rec in self.records.items()
        }

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Per-stage ``{cpu, wall, idle, calls}`` rows.

        ``idle = max(0, wall - cpu)`` is the paper's idle-time
        attribution (Section 4.2): the CPU/wall gap spent waiting on the
        network.  This is the table the trace-report CLI renders.
        """
        return {
            name: {
                "cpu": rec.cpu,
                "wall": rec.wall,
                "idle": max(0.0, rec.wall - rec.cpu),
                "calls": float(rec.calls),
            }
            for name, rec in self.records.items()
        }

    def reset(self) -> None:
        self.records.clear()


class _StageContext:
    def __init__(self, rec: StageRecord):
        self._rec = rec
        self._cpu0 = 0.0
        self._wall0 = 0.0

    def __enter__(self) -> "_StageContext":
        self._cpu0 = cpu_clock()
        self._wall0 = wall_clock()
        return self

    def __exit__(self, *exc) -> None:
        self._rec.cpu += cpu_clock() - self._cpu0
        self._rec.wall += wall_clock() - self._wall0
        self._rec.calls += 1
