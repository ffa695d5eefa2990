"""Reference: Figures 7 and 8's measurements run literally on simmpi.

The figures plot the network models' closed forms
(``repro.benchkernels.netpipe`` / ``alltoall``); these two drivers run
the paper's measurement protocols on a ``VirtualCluster`` instead and
time them with the virtual clock, so the tests can hold the closed forms
to what the simulator charges.  No run reaches them, hence they live here.
"""

from __future__ import annotations

import numpy as np

from repro.machines.catalog import NETWORKS
from repro.parallel.simmpi import VirtualCluster


def simulated_pingpong(network_name: str, nbytes: int, reps: int = 10) -> float:
    """Run the ping-pong on simmpi; returns measured one-way seconds."""
    net = NETWORKS[network_name]

    def fn(comm):
        msg = np.zeros(max(1, nbytes // 8))
        for _ in range(reps):
            if comm.rank == 0:
                comm.send(1, msg)
                comm.recv(1)
            else:
                comm.recv(0)
                comm.send(0, msg)
        return comm.wall

    cluster = VirtualCluster(2, net)
    res = cluster.run(fn)
    return res[0] / (2 * reps)


def simulated_alltoall(
    network_name: str, nprocs: int, nbytes: int, reps: int = 5
) -> dict[str, float]:
    """The paper's protocol on simmpi: globally synchronise, then time a
    loop calling MPI_Alltoall; statistics over the repetitions."""
    net = NETWORKS[network_name]

    def fn(comm):
        chunks = [np.zeros(max(1, nbytes // 8)) for _ in range(comm.size)]
        comm.barrier()
        t0 = comm.wall
        times = []
        for _ in range(reps):
            t_before = comm.wall
            comm.alltoall(chunks)
            times.append(comm.wall - t_before)
        total = comm.wall - t0
        return times, total

    res = VirtualCluster(nprocs, net).run(fn)
    times = np.array([t for times, _ in res for t in times])
    mean = float(times.mean())
    return {
        "mean_seconds": mean,
        "min_seconds": float(times.min()),
        "max_seconds": float(times.max()),
        "avg_bandwidth_mb": (nprocs - 1) * nbytes / mean / 1e6,
    }
