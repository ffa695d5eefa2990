"""Interconnect performance models (the Figures 7-8 substrate).

Hockney-style point-to-point model with an eager/rendezvous protocol
switch, plus the two collective-relevant properties the paper's results
hinge on:

* ``full_duplex`` — whether a node can send and receive simultaneously
  (Myrinet, SP switch, crossbars: yes; Fast-Ethernet TCP stacks of the
  era: effectively no),
* ``aggregate_capacity`` — total concurrent bytes/s the fabric can
  carry; Alltoall on P processors pushes P*(P-1) messages at once, and
  a fabric whose aggregate capacity is below P x port bandwidth
  saturates — that is exactly the "ethernet saturates above 4-8
  processors" effect of Table 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["NetworkModel"]


@dataclass(frozen=True)
class NetworkModel:
    """One network configuration (a line in Figure 7)."""

    name: str
    latency_us: float  # one-way zero-byte latency
    bandwidth: float  # asymptotic one-way bytes/s per port
    eager_threshold: int = 8192  # bytes; larger messages pay rendezvous
    rendezvous_extra_us: float = 0.0
    full_duplex: bool = True
    aggregate_capacity: float | None = None  # None = non-blocking fabric
    # CPU seconds burned per byte by the protocol stack (TCP copies and
    # checksums on the Ethernet clusters; ~0 for OS-bypass Myrinet/GM and
    # the supercomputer networks).  This is why Table 2 shows *CPU* time,
    # not just wall-clock, inflating on the Ethernet RoadRunner runs.
    cpu_overhead_per_byte: float = 0.0
    # Fraction of communication wait time that burns CPU.  Vendor MPIs
    # and MPICH-GM busy-poll (cpu ~ wall, as in the paper's nearly equal
    # CPU/wall columns on the supercomputers and Myrinet); TCP sockets
    # block in the kernel (cpu < wall on Muses and RoadRunner-ethernet).
    busy_wait_fraction: float = 0.0

    def __post_init__(self):
        if self.latency_us < 0 or self.bandwidth <= 0:
            raise ValueError("invalid latency/bandwidth")

    # -- point to point ---------------------------------------------------------

    def send_time(self, nbytes: int) -> float:
        """One-way time for a message of nbytes (NetPIPE's metric)."""
        if nbytes < 0:
            raise ValueError("negative message size")
        t = self.latency_us * 1e-6 + nbytes / self.bandwidth
        if nbytes > self.eager_threshold:
            t += self.rendezvous_extra_us * 1e-6
        return t

    def pingpong_latency_us(self, nbytes: int) -> float:
        return self.send_time(nbytes) * 1e6

    def pingpong_bandwidth(self, nbytes: int) -> float:
        """MB/s (1 MB = 1e6 bytes) seen by NetPIPE at this size."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.send_time(nbytes) / 1e6

    # -- collectives --------------------------------------------------------------

    def effective_capacity(self, nflows: int) -> float:
        """Total bytes/s the fabric sustains with nflows concurrent flows."""
        cap = nflows * self.bandwidth
        if self.aggregate_capacity is not None:
            cap = min(cap, self.aggregate_capacity)
        return cap

    def alltoall_time(self, nprocs: int, nbytes: int) -> float:
        """MPI_Alltoall: every rank sends nbytes to each other rank.

        Pairwise-exchange algorithm: P-1 rounds; each round every rank
        sends and receives one message.  On a full-duplex non-blocking
        fabric a round costs one message time; half-duplex doubles it;
        an oversubscribed fabric stretches rounds by the ratio of
        offered load to aggregate capacity.

        A single-rank Alltoall is not free: MPI still performs the
        local copy, priced as one pass through the protocol stack
        (:meth:`cpu_time_for_bytes`; zero on OS-bypass networks).
        """
        if nprocs < 2:
            return self.cpu_time_for_bytes(nbytes) if nbytes > 0 else 0.0
        rounds = nprocs - 1
        per_msg = self.send_time(nbytes)
        if not self.full_duplex:
            per_msg += nbytes / self.bandwidth  # serialised send + receive
        # Congestion stretch: P concurrent flows vs what the fabric carries.
        offered = nprocs * self.bandwidth
        stretch = max(1.0, offered / self.effective_capacity(nprocs))
        return rounds * (self.latency_us * 1e-6 + (per_msg - self.latency_us * 1e-6) * stretch)

    def alltoall_avg_bandwidth(self, nprocs: int, nbytes: int) -> float:
        """Figure 8's metric: per-process outgoing volume over time, MB/s."""
        if nbytes <= 0 or nprocs < 2:
            return 0.0
        t = self.alltoall_time(nprocs, nbytes)
        return (nprocs - 1) * nbytes / t / 1e6

    # -- reductions ------------------------------------------------------------------

    def cpu_time_for_bytes(self, nbytes: float) -> float:
        """CPU seconds the protocol stack charges for moving nbytes."""
        return self.cpu_overhead_per_byte * nbytes

    def allreduce_time(self, nprocs: int, nbytes: int) -> float:
        """Binomial-tree reduce + broadcast (2 * ceil(log2 P) hops)."""
        if nprocs < 2:
            return 0.0
        hops = 2 * math.ceil(math.log2(nprocs))
        return hops * self.send_time(nbytes)

    def barrier_time(self, nprocs: int) -> float:
        return self.allreduce_time(nprocs, 8)

    def collective_time(self, kind: str, nprocs: int, nbytes: int) -> float:
        """The collective price list: seconds for one ``kind`` collective.

        The one table ``simmpi`` prices rendezvous from and the
        fabric-swap counterfactual re-prices them with.  A barrier is
        an 8-byte allreduce (pass ``nbytes=8``, as :meth:`barrier_time`
        does); allgather is priced as an allreduce of the contribution.
        """
        if kind == "alltoall":
            return self.alltoall_time(nprocs, nbytes)
        if kind in ("barrier", "allgather") or kind.startswith("allreduce"):
            return self.allreduce_time(nprocs, nbytes)
        if kind == "bcast":  # binomial tree
            hops = math.ceil(math.log2(nprocs)) if nprocs > 1 else 0
            return hops * self.send_time(nbytes)
        if kind == "gather":  # root receives P-1 messages in turn
            return (nprocs - 1) * self.send_time(nbytes)
        raise ValueError(f"unknown collective kind {kind!r}")
