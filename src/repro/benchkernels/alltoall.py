"""MPI_Alltoall benchmark driver (Figure 8).

The paper times a globally synchronised loop of MPI_Alltoall calls and
reports the average per-process bandwidth against message size, for 4
and 8 processors.  The curves sweep the collective cost models; the
tests perform the paper's measurement protocol literally on simmpi
(barrier, loop of alltoalls, per-rank statistics over the repetitions)
and hold the two to each other.
"""

from __future__ import annotations

import numpy as np

from ..machines.catalog import ALLTOALL_FIGURE_NETWORKS, NETWORKS

__all__ = ["message_sizes", "figure8_series"]


def message_sizes() -> np.ndarray:
    """1 byte to ~6.4 MB per pair, log spaced (Figure 8 abscissa)."""
    return np.unique(np.logspace(0, np.log10(6.4e6), 30).astype(int))


def figure8_series(nprocs: int) -> dict[str, tuple]:
    """Average Alltoall bandwidth curves for one processor count."""
    if nprocs < 2:
        raise ValueError("alltoall needs at least two processors")
    sizes = message_sizes()
    out = {}
    for name in ALLTOALL_FIGURE_NETWORKS:
        if name == "Muses, LAM" and nprocs > 4:
            continue  # Muses has 4 nodes
        net = NETWORKS[name]
        out[name] = (
            sizes,
            np.array(
                [net.alltoall_avg_bandwidth(nprocs, int(s)) for s in sizes]
            ),
        )
    return out
