"""Deterministic fault injection for the virtual cluster.

The paper's "fact or fiction" question is really a question about
unreliability: commodity Fast-Ethernet/TCP fabrics are lossy,
half-duplex and kernel-mediated, while the supercomputer interconnects
they chase carry DNS traffic natively.  This module models the three
failure classes that separate a Beowulf cluster from the machines of
Tables 2-3:

* **message loss** — a lost TCP segment costs a retransmit timeout
  (exponential backoff) plus a resend; the timeout and resend are
  charged to the virtual *wall* clocks, the kernel's extra copies and
  checksums to the *CPU* clocks via
  :meth:`~repro.machines.network.NetworkModel.cpu_time_for_bytes`.
  Loss only applies to kernel-mediated (TCP) networks — the catalog's
  Ethernet entries — because OS-bypass fabrics (Myrinet/GM, the
  supercomputer switches) have link-level flow control and never drop
  into a software retransmit path;
* **link degradation and stragglers** — per-link slowdown factors
  stretch the priced point-to-point times, per-rank straggler factors
  stretch compute on the virtual clocks (a failing fan, a busy node);
* **rank crash** — a rank dies at a chosen virtual time or timestep.
  Surviving ranks see a typed :class:`RankFailure` on their next
  communication with the dead rank, which an application can catch to
  trigger checkpoint/restart recovery.

Everything is seeded and deterministic: the retransmit count of message
``n`` from rank ``s`` to rank ``d`` with tag ``t`` is a pure function
of ``(seed, s, d, t, n)``, so a faulty run replays bit-for-bit.
Because the draws are pure, who makes them is a question of host cost
only: inside a collective instance each ``(source, dest)`` loss is
drawn once, by the source rank at entry (for its own resend CPU), as
one row in one ``uint64`` array pass (:meth:`FaultPlan.collective_row`),
and the row travels to the rendezvous where the last arriver prices the
shared completion delay from the P rows
(:meth:`VirtualComm.alltoall`).  Nothing is cached on the plan.

An **empty plan is provably zero-cost**: ``VirtualCluster`` skips every
fault branch when the plan is empty, so clocks and charge accounting
stay byte-identical to a run without the fault layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Mapping

import numpy as np

if TYPE_CHECKING:
    from ..machines.network import NetworkModel

__all__ = [
    "CrashSpec",
    "FaultPlan",
    "RankFailure",
    "RecvTimeout",
]

_MASK64 = (1 << 64) - 1
# splitmix64 constants: a tiny, stable, well-mixed generator that keeps
# the loss draws identical across Python versions and platforms.
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1, _MUL2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class RankFailure(RuntimeError):
    """A rank crashed; raised on the next communication with it.

    ``rank`` is the dead rank, ``when`` its virtual crash time (the
    dead rank's wall clock at the crash point).  Applications catch
    this to abandon the step and restart from a checkpoint.
    """

    def __init__(self, rank: int, when: float):
        self.rank = int(rank)
        self.when = float(when)
        super().__init__(f"rank {rank} crashed at virtual t={when:.6g}s")


class RecvTimeout(RuntimeError):
    """A ``recv`` with a virtual timeout expired with no message.

    Carries the peer, tag, total virtual seconds waited across all
    attempts, and the number of attempts made.
    """

    def __init__(self, source: int, tag: int, waited: float, attempts: int):
        self.source = int(source)
        self.tag = int(tag)
        self.waited = float(waited)
        self.attempts = int(attempts)
        super().__init__(
            f"recv(source={source}, tag={tag}) timed out after "
            f"{waited:.6g} virtual seconds ({attempts} attempt(s))"
        )


@dataclass(frozen=True)
class CrashSpec:
    """Kill one rank at a virtual time or at the start of a timestep.

    Exactly one of ``at_time`` (virtual seconds on the rank's wall
    clock) or ``at_step`` (application step index, delivered through
    :meth:`VirtualComm.mark_step`) must be given.
    """

    rank: int
    at_time: float | None = None
    at_step: int | None = None

    def __post_init__(self):
        if (self.at_time is None) == (self.at_step is None):
            raise ValueError("CrashSpec needs exactly one of at_time/at_step")
        if self.rank < 0:
            raise ValueError(f"bad rank {self.rank}")


def _mix(*vals: int) -> int:
    """Deterministic 64-bit hash of a tuple of ints (splitmix64 chain)."""
    h = _MASK64 & 0x243F6A8885A308D3
    for v in vals:
        h = (h + (v & _MASK64) + _GOLDEN) & _MASK64
        h ^= h >> 30
        h = (h * _MUL1) & _MASK64
        h ^= h >> 27
        h = (h * _MUL2) & _MASK64
        h ^= h >> 31
    return h


def _next(h: int) -> tuple[int, float]:
    """Advance the hash state; returns (new state, uniform in [0, 1))."""
    h = (h + _GOLDEN) & _MASK64
    x = h
    x ^= x >> 30
    x = (x * _MUL1) & _MASK64
    x ^= x >> 27
    x = (x * _MUL2) & _MASK64
    x ^= x >> 31
    return h, (x >> 11) / float(1 << 53)


#: ``uint64`` operands of the array draws (0-d arrays: cheaper per
#: ufunc call than numpy scalars on the short rows a collective draws).
_U = {k: np.array(k, dtype=np.uint64) for k in (1, 11, 27, 30, 31, _MUL1, _MUL2, _GOLDEN)}


def _mix_array(h: np.ndarray) -> np.ndarray:
    """The finaliser of :func:`_mix` / :func:`_next` on a ``uint64``
    array: numpy's unsigned arithmetic wraps mod 2**64, as the masked
    Python integers do."""
    h = h ^ (h >> _U[30])
    h *= _U[_MUL1]
    h ^= h >> _U[27]
    h *= _U[_MUL2]
    h ^= h >> _U[31]
    return h


@lru_cache(maxsize=None)
def _kind_tag(kind: str) -> int:
    """The tag slot of a collective kind's draw chain: its UTF-8 bytes
    hashed — once per kind, not once per draw."""
    return _mix(*kind.encode("utf-8"))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of faults for one cluster run.

    Parameters
    ----------
    seed:
        Root seed for the loss draws; two runs with the same plan see
        the same losses on the same messages.
    loss_rate:
        Per-transmission-attempt probability that a point-to-point
        message is lost and must be retransmitted.  Only applies to
        kernel-mediated TCP networks (``cpu_overhead_per_byte > 0``);
        OS-bypass fabrics never enter the software retransmit path.
    retransmit_timeout:
        Base TCP retransmission timeout in virtual seconds; attempt
        ``i`` backs off exponentially to ``retransmit_timeout * 2**i``.
    max_retransmits:
        Hard cap on retransmits per message (mirrors a kernel's RTO
        cap; also bounds the deterministic draw).
    degraded_links:
        ``(rank_a, rank_b) -> slowdown factor >= 1`` applied
        symmetrically to the priced point-to-point time on that pair.
    stragglers:
        ``rank -> slowdown factor >= 1`` applied to that rank's priced
        compute (both clocks: a slow node burns proportionally more of
        each).
    crashes:
        :class:`CrashSpec` entries, at most one per rank.
    """

    seed: int = 0
    loss_rate: float = 0.0
    retransmit_timeout: float = 0.2
    max_retransmits: int = 8
    degraded_links: Mapping[tuple[int, int], float] = field(default_factory=dict)
    stragglers: Mapping[int, float] = field(default_factory=dict)
    crashes: tuple[CrashSpec, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.retransmit_timeout < 0 or self.max_retransmits < 0:
            raise ValueError("invalid retransmit parameters")
        for f in self.degraded_links.values():
            if f < 1.0:
                raise ValueError("link degradation factors must be >= 1")
        for f in self.stragglers.values():
            if f < 1.0:
                raise ValueError("straggler factors must be >= 1")
        ranks = [c.rank for c in self.crashes]
        if len(ranks) != len(set(ranks)):
            raise ValueError("at most one CrashSpec per rank")

    @property
    def is_empty(self) -> bool:
        """True iff the plan injects nothing (zero-cost guarantee)."""
        return (
            self.loss_rate == 0.0
            and not self.degraded_links
            and not self.stragglers
            and not self.crashes
        )

    # -- loss ------------------------------------------------------------------

    def loss_applies(self, network: "NetworkModel") -> bool:
        """Loss injects only on kernel-mediated (TCP) networks."""
        return self.loss_rate > 0.0 and network.cpu_overhead_per_byte > 0.0

    def retransmits(self, src: int, dst: int, tag: int, index: int) -> int:
        """Deterministic retransmit count of one message.

        ``index`` is the sender's message sequence number; the draw is
        a pure function of ``(seed, src, dst, tag, index)``.
        """
        if self.loss_rate <= 0.0:
            return 0
        h = _mix(self.seed, src, dst, tag, index)
        n = 0
        while n < self.max_retransmits:
            h, u = _next(h)
            if u >= self.loss_rate:
                break
            n += 1
        return n

    def retransmit_delay(self, nretrans: int) -> float:
        """Total virtual seconds of RTO backoff before the successful
        transmission: ``sum_i rto * 2**i`` for ``i < nretrans``."""
        if nretrans <= 0:
            return 0.0
        return self.retransmit_timeout * float((1 << nretrans) - 1)

    def collective_row(self, kind: str, seq: int, src: int, size: int) -> list[int]:
        """Deterministic retransmit counts of ``src``'s messages to every
        other rank below ``size`` inside collective instance ``(kind,
        seq)``, in destination order.

        Each is :meth:`retransmits` ``(src, dst, tag, seq)`` with the kind
        string folded into the tag slot, so the draw chain is disjoint
        from the point-to-point one and interleaving collectives with
        sends never perturbs either stream.  The row is drawn in one
        ``uint64`` array pass over (destination, attempt): attempt k's
        uniform is the finaliser of the chain's state advanced k golden
        steps, and a count is the number of leading lost attempts.
        """
        if self.loss_rate <= 0.0:
            return [0] * (size - 1)
        dst = np.arange(size - 1, dtype=np.uint64)
        dst[src:] += _U[1]
        # The rest of the (seed, src, dst, tag, seq) chain of _mix,
        # each step's constants summed mod 2**64 first.
        h = _mix_array(dst + np.uint64((_mix(self.seed, src) + _GOLDEN) & _MASK64))
        for v in (_kind_tag(kind), seq):
            h = _mix_array(h + np.uint64(((v & _MASK64) + _GOLDEN) & _MASK64))
        steps = np.arange(1, self.max_retransmits + 1, dtype=np.uint64) * _U[_GOLDEN]
        # u = (x >> 11) / 2**53 < loss_rate, compared exactly in integers
        # below 2**53 (scaling by a power of two is exact).
        lost = (_mix_array(h[:, None] + steps) >> _U[11]) < self.loss_rate * float(1 << 53)
        return np.cumprod(lost, axis=1).sum(axis=1).tolist()

    # -- degradation / stragglers ------------------------------------------------

    def link_factor(self, a: int, b: int) -> float:
        """Symmetric slowdown factor of the (a, b) link (1.0 = healthy)."""
        if not self.degraded_links:
            return 1.0
        f = self.degraded_links.get((a, b))
        if f is None:
            f = self.degraded_links.get((b, a), 1.0)
        return float(f)

    def max_link_factor(self, nprocs: int) -> float:
        """Worst slowdown factor over every rank pair below ``nprocs``.

        Equals ``max(link_factor(a, b) for all pairs a != b)`` but costs
        O(|degraded_links|) instead of O(nprocs^2) — the alltoall
        pricing path calls this once per collective, and at 1024 ranks
        the pairwise scan would dominate the simulation.
        """
        worst = 1.0
        for (a, b), f in sorted(self.degraded_links.items()):
            if a != b and 0 <= a < nprocs and 0 <= b < nprocs:
                worst = max(worst, float(f))
        return worst

    def straggler_factor(self, rank: int) -> float:
        if not self.stragglers:
            return 1.0
        return float(self.stragglers.get(rank, 1.0))

    # -- crashes ----------------------------------------------------------------

    def crash_for(self, rank: int) -> CrashSpec | None:
        for c in self.crashes:
            if c.rank == rank:
                return c
        return None
