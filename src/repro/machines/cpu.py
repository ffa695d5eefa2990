"""Single-CPU performance models (the Figures 1-6 substrate).

The paper measures vendor-BLAS throughput against working-set size on
each machine.  Those curves are determined by a handful of hardware
parameters — peak flop rate, cache sizes, per-level sustained
bandwidths, and per-call overhead — so we model each CPU as a roofline
with smooth cache transitions:

    t(call) = overhead + max(bytes_moved / B(ws), flops / F_r)

where B(ws) interpolates the per-level bandwidths in log-working-set
space and F_r is a routine-specific in-cache flop ceiling (dgemm gets a
small-n degradation term for the call/blocking overhead the paper's
Figure 6 highlights).  Parameters for the paper's machines live in
:mod:`repro.machines.catalog`, calibrated from Section 2's hardware
specs and the shapes of Figures 1-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..linalg.blas import byte_count, flop_count

__all__ = ["CPUModel", "ROUTINES", "working_set"]

#: The routines Figures 1-6 time; their flops and bytes per call are the
#: counted kernels' own (:func:`repro.linalg.blas.flop_count` /
#: :func:`~repro.linalg.blas.byte_count`, n = vector length or matrix
#: dimension).
ROUTINES = ("dcopy", "daxpy", "ddot", "dgemv", "dgemm")

#: Bytes of banded factor a solve streams through, for per-kind stage
#: pricing (``stage_rate("solve")``, read by Table 1 / Fig 12's
#: ``price_stages``).
STAGE_SOLVER_WS_BYTES = 2e6


def working_set(routine: str, n: int) -> float:
    """Resident bytes during the call (decides the cache level)."""
    return {
        "dcopy": 16.0 * n,
        "daxpy": 16.0 * n,
        "ddot": 16.0 * n,
        "dgemv": 8.0 * (n * n + 2.0 * n),
        "dgemm": 8.0 * 3.0 * n * n,
    }[routine]


@dataclass(frozen=True)
class CPUModel:
    """Roofline-with-caches model of one processor.

    cache_sizes:
        Capacities of each cache level, in bytes (L1, L2, ...).
    bandwidths:
        Sustained bandwidth (bytes/s) when the working set fits each
        level, plus one final entry for main memory; so
        len(bandwidths) == len(cache_sizes) + 1.
    flop_caps:
        Routine -> in-cache ceiling in Mflop/s (defaults to peak).
    """

    name: str
    clock_mhz: float
    peak_mflops: float
    cache_sizes: tuple[float, ...]
    bandwidths: tuple[float, ...]
    overhead_us: float = 0.2
    dgemm_efficiency: float = 0.8
    dgemm_n_half: float = 8.0
    flop_caps: dict[str, float] = field(default_factory=dict)
    # Measured application-level sustained rate (Mflop/s) for the DNS
    # stage mix, which ``app_time`` prices with (simmpi's
    # ``compute_flops``, Table 3's ALE pricing); every catalog CPU has
    # one.  Table-1-style serial timings are calibrated through this
    # knob — the kernel model alone cannot see latency-bound effects like
    # the banded back-substitution's dependency chains.
    app_mflops: float | None = None
    # Sustained rate (Mflop/s) of the banded triangular solves (the
    # paper's dominant stage 5/7 work).  Recurrence-bound, so it tracks
    # clock x serial IPC rather than peak or bandwidth.
    solve_mflops: float | None = None

    def __post_init__(self):
        if len(self.bandwidths) != len(self.cache_sizes) + 1:
            raise ValueError("need one bandwidth per cache level plus memory")
        if any(b <= 0 for b in self.bandwidths) or self.peak_mflops <= 0:
            raise ValueError("rates must be positive")
        if list(self.cache_sizes) != sorted(self.cache_sizes):
            raise ValueError("cache sizes must be increasing")

    # -- memory hierarchy ---------------------------------------------------------

    def bandwidth_at(self, ws_bytes: float) -> float:
        """Sustained bandwidth for a given working set, with smooth
        (logistic in log-size) transitions at each capacity boundary."""
        if ws_bytes <= 0:
            return self.bandwidths[0]
        b = math.log(self.bandwidths[0])
        x = math.log(ws_bytes)
        for size, (hi, lo) in zip(
            self.cache_sizes, zip(self.bandwidths[:-1], self.bandwidths[1:])
        ):
            # Transition centred at the capacity, width ~ a factor of 2.
            t = 1.0 / (1.0 + math.exp(-(x - math.log(size)) / 0.35))
            b += t * (math.log(lo) - math.log(hi))
        return math.exp(b)

    def flop_ceiling(self, routine: str, n: int) -> float:
        """In-cache flop ceiling in flops/s for a routine."""
        cap = self.flop_caps.get(routine, self.peak_mflops) * 1e6
        if routine == "dgemm":
            eff = self.dgemm_efficiency * n / (n + self.dgemm_n_half)
            cap = min(cap, self.peak_mflops * 1e6 * eff)
        return cap

    # -- kernel timing ----------------------------------------------------------------

    def blas_time(self, routine: str, n: int) -> float:
        """Seconds for one BLAS call on size-n operands."""
        if routine not in ROUTINES:
            raise ValueError(f"unknown routine {routine!r}")
        if n < 1:
            raise ValueError("operand size must be >= 1")
        mem = byte_count(routine, n) / self.bandwidth_at(working_set(routine, n))
        flops = flop_count(routine, n)
        ft = flops / self.flop_ceiling(routine, n) if flops else 0.0
        return self.overhead_us * 1e-6 + max(mem, ft)

    def blas_rate(self, routine: str, n: int) -> float:
        """The paper's plotted metric: MB/s for dcopy (bytes moved per
        second), Mflop/s for everything else."""
        t = self.blas_time(routine, n)
        if routine == "dcopy":
            return byte_count(routine, n) / t / 1e6
        return flop_count(routine, n) / t / 1e6

    # -- application pricing ------------------------------------------------------------

    def stage_rate(self, kind: str) -> float:
        """Sustained Mflop/s for one DNS stage *kind*:

        * 'solve'  — banded forward/back substitution (stages 5 and 7):
          min of the memory-bound dgemv rate at the solver working set
          and the recurrence-bound ``solve_mflops`` ceiling;
        * 'vector' — long-vector kernels (stages 2, 3, 4, 6): daxpy at
          the paper's ~15k-long vectors;
        * 'transform' — stage 1's small dense products: dgemm at n=10.
        """
        if kind == "solve":
            n = max(8, int(math.sqrt(STAGE_SOLVER_WS_BYTES / 8.0)))
            rate = self.blas_rate("dgemv", n)
            if self.solve_mflops is not None:
                rate = min(rate, self.solve_mflops)
            return rate
        if kind == "vector":
            return self.blas_rate("daxpy", 15000)
        if kind == "transform":
            return self.blas_rate("dgemm", 10)
        raise ValueError(f"unknown stage kind {kind!r}")

    def app_time(self, flops: float) -> float:
        """Seconds to execute `flops` of DNS-mix work."""
        if flops < 0:
            raise ValueError("negative flops")
        if self.app_mflops is None:
            raise ValueError(f"{self.name}: no measured application rate (app_mflops)")
        return flops / (self.app_mflops * 1e6)
