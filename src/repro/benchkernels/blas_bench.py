"""Kernel-level CPU benchmark driver (Figures 1-6).

Two modes:

* **model** — evaluate each machine's CPU model over the paper's
  working-set sweep, regenerating the multi-machine curves of
  Figures 1-6;
* **host** — actually time the :mod:`repro.linalg.blas` kernels on this
  machine (the "PC" stand-in), the measurement protocol of Section 3.1:
  repeated calls on in-cache/or-not operands, reporting MB/s or
  Mflop/s "as seen by the user".
"""

from __future__ import annotations

import time

import numpy as np

from ..linalg import blas
from ..machines.catalog import BLAS_FIGURE_MACHINES, MACHINES
from ..machines.cpu import ROUTINES

__all__ = [
    "FIGURES",
    "sweep_sizes",
    "model_curve",
    "figure_series",
    "host_measure",
]

# Figure number -> (routine, x-axis regime).
FIGURES = {
    1: ("dcopy", "vector"),
    2: ("daxpy", "vector"),
    3: ("ddot", "vector"),
    4: ("dgemv", "matrix"),
    5: ("dgemm", "matrix"),
    6: ("dgemm", "small"),
}


def sweep_sizes(figure: int) -> np.ndarray:
    """Operand sizes n (vector length or matrix dimension) swept by each
    figure; x-axes follow the paper (bytes for 1-5, n for 6)."""
    if figure in (1, 2, 3):
        # 100 bytes .. ~8 MB vectors, log spaced.
        return np.unique(
            np.logspace(np.log10(16), np.log10(1 << 20), 40).astype(int)
        )
    if figure == 4:
        return np.arange(4, 151, 4)  # rows of 32..1200 bytes
    if figure == 5:
        return np.arange(4, 76, 3)  # rows of 32..600 bytes
    if figure == 6:
        return np.arange(2, 21)
    raise ValueError(f"no BLAS sweep for figure {figure}")


def x_axis(figure: int, n: np.ndarray) -> np.ndarray:
    """The paper's abscissa: operand bytes (8n) for figures 1-5, n for 6."""
    return n if figure == 6 else 8 * np.asarray(n)


def model_curve(machine_key: str, figure: int) -> tuple[np.ndarray, np.ndarray]:
    routine, _ = FIGURES[figure]
    cpu = MACHINES[machine_key].cpu
    n = sweep_sizes(figure)
    y = np.array([cpu.blas_rate(routine, int(k)) for k in n])
    return x_axis(figure, n), y


def figure_series(figure: int, panel: str = "left") -> dict[str, tuple]:
    """All curves of one panel of a Figure 1-6 plot."""
    if panel not in BLAS_FIGURE_MACHINES:
        raise ValueError(f"panel must be one of {sorted(BLAS_FIGURE_MACHINES)}")
    return {
        key: model_curve(key, figure) for key in BLAS_FIGURE_MACHINES[panel]
    }


def host_measure(
    routine: str, n: int, min_time: float = 0.01
) -> dict[str, float]:
    """Time the real numpy kernel on this host (Section 3.1 protocol).

    Returns the plotted metric (MB/s for dcopy, Mflop/s otherwise) plus
    raw reps/seconds.  No warm-cache compensation — "the figures
    presented correspond to the performance as seen by the user".
    """
    if routine not in ROUTINES:
        raise ValueError(f"unknown routine {routine!r}")
    rng = np.random.default_rng(0)
    if routine in ("dcopy", "daxpy", "ddot"):
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        call = {
            "dcopy": lambda: blas.dcopy(x, y),
            "daxpy": lambda: blas.daxpy(1.0001, x, y),
            "ddot": lambda: blas.ddot(x, y),
        }[routine]
    elif routine == "dgemv":
        a = rng.standard_normal((n, n))
        x = rng.standard_normal(n)
        y = np.zeros(n)
        call = lambda: blas.dgemv(1.0, a, x, 0.0, y)  # noqa: E731
    else:
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        c = np.zeros((n, n))
        call = lambda: blas.dgemm(1.0, a, b, 0.0, c)  # noqa: E731

    call()  # first-touch
    reps, elapsed = 0, 0.0
    t0 = time.perf_counter()
    while elapsed < min_time:
        call()
        reps += 1
        elapsed = time.perf_counter() - t0
    per_call = elapsed / reps
    flops = blas.flop_count(routine, n)
    out = {
        "routine": routine,
        "n": n,
        "reps": reps,
        "seconds_per_call": per_call,
        "mflops": flops / per_call / 1e6 if flops else 0.0,
        "mb_per_s": blas.byte_count(routine, n) / per_call / 1e6,
    }
    return out
