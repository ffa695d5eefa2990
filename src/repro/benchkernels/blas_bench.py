"""Kernel-level CPU benchmark (Figures 1-6): each machine's CPU
model evaluated over the paper's working-set sweep, regenerating the
multi-machine curves of Figures 1-6.
"""

from __future__ import annotations

import numpy as np

from ..machines.catalog import BLAS_FIGURE_MACHINES, MACHINES

__all__ = [
    "FIGURES",
    "sweep_sizes",
    "model_curve",
    "figure_series",
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
