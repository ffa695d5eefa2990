"""NetPIPE-style ping-pong driver (Figure 7).

"Simple unidirectional (Ping-Pong) latency and bandwidth testing is
performed with NetPIPE 2.3."  The curves evaluate the network models'
ping-pong latency and bandwidth directly; the tests run the ping-pong
on a two-rank simmpi cluster and hold the two to each other.
"""

from __future__ import annotations

import numpy as np

from ..machines.catalog import NETWORKS, PINGPONG_FIGURE_NETWORKS

__all__ = [
    "latency_sizes",
    "bandwidth_sizes",
    "latency_series",
    "bandwidth_series",
]


def latency_sizes() -> np.ndarray:
    """Small messages, 0-600 bytes (Figure 7 left panel)."""
    return np.arange(0, 601, 40)


def bandwidth_sizes() -> np.ndarray:
    """1 byte to 64 MB, log spaced (Figure 7 right panel)."""
    return np.unique(np.logspace(0, np.log10(64 << 20), 40).astype(int))


def latency_series() -> dict[str, tuple]:
    sizes = latency_sizes()
    return {
        name: (
            sizes,
            np.array([NETWORKS[name].pingpong_latency_us(int(s)) for s in sizes]),
        )
        for name in PINGPONG_FIGURE_NETWORKS
    }


def bandwidth_series() -> dict[str, tuple]:
    sizes = bandwidth_sizes()
    return {
        name: (
            sizes,
            np.array([NETWORKS[name].pingpong_bandwidth(int(s)) for s in sizes]),
        )
        for name in PINGPONG_FIGURE_NETWORKS
    }
