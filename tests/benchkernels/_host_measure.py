"""This host's BLAS curves (the Section 3.1 protocol), which no run takes.

ROADMAP item 8 (b) fits a CPU model to them; until a run does, the
measurement lives with its test.
"""

import time

import numpy as np

from repro.linalg import blas
from repro.machines.cpu import ROUTINES

from ..linalg._vector_kernels import daxpy, dcopy, dgemv


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
            "dcopy": lambda: dcopy(x, y),
            "daxpy": lambda: daxpy(1.0001, x, y),
            "ddot": lambda: blas.ddot(x, y),
        }[routine]
    elif routine == "dgemv":
        a = rng.standard_normal((n, n))
        x = rng.standard_normal(n)
        y = np.zeros(n)
        call = lambda: dgemv(1.0, a, x, 0.0, y)  # noqa: E731
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
