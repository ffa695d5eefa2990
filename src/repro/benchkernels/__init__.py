"""Kernel-level benchmark drivers (Figures 1-8)."""

from .alltoall import figure8_series, message_sizes
from .blas_bench import (
    FIGURES,
    figure_series,
    model_curve,
    sweep_sizes,
)
from .netpipe import (
    bandwidth_series,
    bandwidth_sizes,
    latency_series,
    latency_sizes,
)

__all__ = [
    "FIGURES",
    "sweep_sizes",
    "model_curve",
    "figure_series",
    "latency_sizes",
    "bandwidth_sizes",
    "latency_series",
    "bandwidth_series",
    "message_sizes",
    "figure8_series",
]
