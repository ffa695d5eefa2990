"""The pre-graph race detector, frozen as a test oracle.

``RaceDetector`` below is the body ``repro.parallel.sanitizer`` shipped
before the race check became a query on the run's event graph: per-rank
vector clocks ticked at every send, recv, collective arrival and
release and declared access, a clock piggybacked on every message and
every participant's arrival clock joined at each release.  It is kept
verbatim.

:func:`replay` drives it without the simulator's hooks.  It walks each
rank's ``rank_traces()`` in order: the k-th recv on a (src, dst, tag)
channel matches the k-th send, and a collective releases a rank once
all of its arrivals are in.  Declared accesses are fed at their trace
positions, in the order the program declared them.
"""

from __future__ import annotations

import re
import threading
from collections import Counter, deque

from repro.parallel.sanitizer import Access, Race

_SEND = re.compile(r"send -> (\d+) tag=(\d+) ")
_RECV = re.compile(r"recv <- (\d+) tag=(\d+) ")
_COLL = re.compile(r"(\S+) #(\d+)$")


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


def replay(nprocs, traces, log):
    """Replay one run through a fresh :class:`RaceDetector`.

    ``traces`` is the run's ``rank_traces()``; ``log`` lists its
    declared accesses in declaration order as ``(rank, trace position,
    obj, op, label, site)``.  Returns the detector and each access's
    clock, in ``log`` order.
    """
    det = RaceDetector(nprocs)
    events = {r: [] for r in range(nprocs)}
    for r, lines in traces.items():
        for line in lines:
            if m := _SEND.match(line):
                events[r].append(("send", (r, int(m[1]), int(m[2]))))
            elif m := _RECV.match(line):
                events[r].append(("recv", (int(m[1]), r, int(m[2]))))
            elif m := _COLL.match(line):
                events[r].append(("coll", (m[1], int(m[2]))))
    # A rank's trace only grows, so its earlier accesses sit before.
    placed = [0] * nprocs
    for i, (r, pos, *_rest) in enumerate(log):
        events[r].insert(pos + placed[r], ("access", i))
        placed[r] += 1
    channels: dict[tuple, deque] = {}
    arrived: Counter = Counter()
    waiting: dict[int, tuple] = {}
    nxt = [0] * nprocs
    clocks = [None] * len(log)
    done = 0  # accesses fed so far (they go in declaration order)
    progress = True
    while progress:
        progress = False
        for r in range(nprocs):
            while True:
                if r in waiting:
                    if arrived[waiting[r]] < nprocs:
                        break
                    det.collective_release(waiting.pop(r), r)
                    progress = True
                if nxt[r] == len(events[r]):
                    break
                what, arg = events[r][nxt[r]]
                if what == "access":
                    if arg != done:
                        break
                    _, _, obj, op, label, site = log[arg]
                    det.record(r, obj, op, label, site)
                    clocks[arg] = det.clock(r)
                    done += 1
                elif what == "send":
                    channels.setdefault(arg, deque()).append(det.on_send(r))
                elif what == "recv":
                    if not channels.get(arg):
                        break
                    det.on_recv(r, channels[arg].popleft())
                else:
                    det.collective_arrive(arg, r)
                    arrived[arg] += 1
                    waiting[r] = arg
                nxt[r] += 1
                progress = True
    assert done == len(log), "replay stalled before every access was fed"
    return det, clocks
