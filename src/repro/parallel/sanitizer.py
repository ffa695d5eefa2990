# repro: waive-file[virtual-time] host-side bookkeeping lock; never touches the virtual clocks
"""Runtime determinism sanitizer: vector-clock race detection.

The static rules REPRO004–REPRO006 ban the *sources* of
nondeterminism the AST can see; this module catches the ones it can't —
two ranks touching the same Python object without a message or
collective ordering the accesses.  ``VirtualCluster(sanitize=True)``
builds per-rank vector clocks from the virtual-time message graph that
already exists (every ``send`` piggybacks the sender's clock, every
``recv`` joins it, every collective joins all participants), and rank
code declares shared-object accesses with
:meth:`~repro.parallel.simmpi.VirtualComm.shared_read` /
``shared_write``.  At finalize, any cross-rank pair of accesses to the
same object with at least one write and vector clocks unordered by
happens-before is reported as a race (:class:`DeterminismError`, code
REPRO006 — the runtime twin of the unordered-iteration rule).

Charge parity is a hard contract: the detector maintains its own host
lock and its own state, and none of its hooks read or write the
per-rank virtual wall/cpu clocks, byte ledgers or the ambient
OpCounter.  A sanitized run produces byte-identical virtual clocks and
op counts to an unsanitized one (locked by a property test).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..analysis.vocab import RUNTIME_CODES

__all__ = ["Access", "DeterminismError", "Race", "RaceDetector"]


@dataclass(frozen=True)
class Access:
    """One declared shared-object access."""

    rank: int
    op: str  # "read" | "write"
    vc: tuple[int, ...]  # rank's vector clock at the access
    site: str  # "file:line" of the shared_read/shared_write call


@dataclass(frozen=True)
class Race:
    """Two cross-rank accesses unordered by happens-before."""

    label: str
    first: Access
    second: Access

    def describe(self) -> str:
        code = RUNTIME_CODES["race"]
        return (
            f"data race on {self.label}: rank {self.first.rank} "
            f"{self.first.op} at {self.first.site} (vc={self.first.vc}) and "
            f"rank {self.second.rank} {self.second.op} at "
            f"{self.second.site} (vc={self.second.vc}) are unordered by "
            f"happens-before [{code}]"
        )


class DeterminismError(RuntimeError):
    """Raised at finalize when a sanitized run observed data races."""

    def __init__(self, races: list[Race]):
        self.races = races
        lines = [f"{len(races)} data race(s) detected"]
        lines += [r.describe() for r in races]
        super().__init__("\n".join(lines))


def _leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _ordered(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return _leq(a, b) or _leq(b, a)


class RaceDetector:
    """Per-run vector clocks plus the shared-access log.

    Clock discipline (standard vector clocks): every recorded event —
    a send, a completed recv, a collective arrival/release, a declared
    shared access — first ticks the rank's own component, so two
    accesses on different ranks can only compare as ordered when an
    actual message chain connects them.
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        # Host-side lock only: hook latency never reaches virtual time.
        self._lock = threading.Lock()
        self._clocks = [[0] * nprocs for _ in range(nprocs)]
        # id(obj) -> (label, [Access, ...])
        self._accesses: dict[int, tuple[str, list[Access]]] = {}
        self._races: list[Race] = []
        # collective key -> {rank: vc snapshot at arrival}
        self._coll_vcs: dict[tuple[str, int], dict[int, tuple[int, ...]]] = {}
        self._coll_released: dict[tuple[str, int], int] = {}

    # -- clock maintenance --------------------------------------------

    def _tick(self, rank: int) -> None:
        self._clocks[rank][rank] += 1

    def _merge(self, rank: int, other: tuple[int, ...]) -> None:
        mine = self._clocks[rank]
        for i, v in enumerate(other):
            if v > mine[i]:
                mine[i] = v

    def clock(self, rank: int) -> tuple[int, ...]:
        with self._lock:
            return tuple(self._clocks[rank])

    def clocks(self) -> dict[int, tuple[int, ...]]:
        """All ranks' vector clocks in one snapshot (rank -> clock).

        Convenience for finalize-time consumers (trace annotation, the
        engine golden suite) that compare whole-cluster clock states."""
        with self._lock:
            return {r: tuple(vc) for r, vc in enumerate(self._clocks)}

    # -- hooks called by simmpi ---------------------------------------

    def on_send(self, rank: int) -> tuple[int, ...]:
        """Tick and snapshot the sender's clock (piggybacked on the
        message)."""
        with self._lock:
            self._tick(rank)
            return tuple(self._clocks[rank])

    def on_recv(self, rank: int, sender_vc: tuple[int, ...]) -> None:
        """Join the piggybacked clock into the receiver's."""
        with self._lock:
            self._merge(rank, sender_vc)
            self._tick(rank)

    def collective_arrive(self, key: tuple[str, int], rank: int) -> None:
        with self._lock:
            self._tick(rank)
            self._coll_vcs.setdefault(key, {})[rank] = tuple(self._clocks[rank])

    def collective_release(self, key: tuple[str, int], rank: int) -> None:
        """Join every participant's arrival clock: a completed
        collective orders everything before it on any rank before
        everything after it on every rank."""
        with self._lock:
            for vc in self._coll_vcs[key].values():
                self._merge(rank, vc)
            self._tick(rank)
            done = self._coll_released.get(key, 0) + 1
            if done == self.nprocs:
                del self._coll_vcs[key]
                self._coll_released.pop(key, None)
            else:
                self._coll_released[key] = done

    # -- shared-object accesses ---------------------------------------

    def record(self, rank: int, obj, op: str, label: str | None, site: str) -> None:
        if op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        with self._lock:
            self._tick(rank)
            vc = tuple(self._clocks[rank])
            access = Access(rank=rank, op=op, vc=vc, site=site)
            key = id(obj)
            name = label or f"{type(obj).__name__}@0x{key:x}"
            _, log = self._accesses.setdefault(key, (name, []))
            for prior in log:
                if prior.rank == rank:
                    continue
                if prior.op != "write" and op != "write":
                    continue
                if not _ordered(prior.vc, vc):
                    self._races.append(Race(label=name, first=prior, second=access))
            log.append(access)

    def races(self) -> list[Race]:
        with self._lock:
            return list(self._races)
