"""Pricing application stages on the simulated machines.

The serial/parallel drivers obtain exact per-stage flop counts from
*instrumented real runs* of the reduced-size solvers, scale them to the
paper's problem sizes, and price each stage with the machine-specific
sustained rate for that stage's kind of work:

* stages 5, 7 — banded solves ('solve': recurrence/bandwidth bound),
* stages 2, 3, 4, 6 — long-vector kernels ('vector'),
* stage 1 — small dense transforms ('transform').

This is how Table 1 / Figure 12's machine-to-machine differences arise
from the same workload.
"""

from __future__ import annotations

from ..machines.cpu import CPUModel
from ..ns.stages import STAGES

__all__ = ["STAGE_KINDS", "price_stages", "total_time"]

STAGE_KINDS = {
    "1:transform": "transform",
    "2:nonlinear": "vector",
    "3:average": "vector",
    "4:pressure-rhs": "vector",
    "5:pressure-solve": "solve",
    "6:viscous-rhs": "vector",
    "7:viscous-solve": "solve",
}


def price_stages(cpu: CPUModel, stage_flops: dict[str, float]) -> dict[str, float]:
    """Seconds per stage on a machine, from per-stage flop counts."""
    out = {}
    for stage in STAGES:
        flops = stage_flops.get(stage, 0.0)
        if flops < 0:
            raise ValueError(f"negative flops for stage {stage}")
        kind = STAGE_KINDS[stage]
        rate = cpu.stage_rate(kind)
        out[stage] = flops / (rate * 1e6)
    return out


def total_time(stage_seconds: dict[str, float]) -> float:
    return sum(stage_seconds.values())
