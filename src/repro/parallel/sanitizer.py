"""Runtime determinism sanitizer: data races as a query on the event graph.

The static rules REPRO004–REPRO006 ban the *sources* of
nondeterminism the AST can see; this module catches the ones it can't —
two ranks touching the same Python object without a message or
collective ordering the accesses.  Rank code declares shared-object
accesses with :meth:`~repro.parallel.simmpi.VirtualComm.shared_read` /
``shared_write``; ``VirtualCluster(sanitize=True)`` logs them with the run's other
events; its :class:`~repro.obs.critpath.CritPathRecorder` replays the
log into the happens-before event graph and the access table, and at
finalize :func:`happens_before` derives every vector clock from that one
graph.  Any cross-rank pair of accesses to the same object with at least
one write and vector clocks unordered by happens-before is a race
(:class:`DeterminismError`, code REPRO006 — the runtime twin of the
unordered-iteration rule).

Clock discipline (standard vector clocks): every event — a send, a
completed recv, a collective arrival, the rank's own collective release,
a declared access — ticks the acting rank's own component, so two
accesses on different ranks compare as ordered only when an actual
message chain or collective connects them.  In the graph a send, recv
or arrival is a rank-owned node; a release is the collective's shared
``release`` node, ticked by the rank whose next local edge leaves it.

Charge parity: nothing here, and nothing in the recorder, runs before
the ranks have returned, so a sanitized run's virtual clocks, byte
ledgers and op counts equal an unsanitized run's.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.critpath import EventGraph

__all__ = ["Access", "DeterminismError", "HappensBefore", "Race", "happens_before"]


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


class DeterminismError(RuntimeError):
    """Raised at finalize when a sanitized run observed data races."""

    def __init__(self, races: list[Race]):
        self.races = races
        lines = [f"{len(races)} data race(s) detected"]
        lines += [
            f"data race on {r.label}: rank {r.first.rank} "
            f"{r.first.op} at {r.first.site} (vc={r.first.vc}) and "
            f"rank {r.second.rank} {r.second.op} at "
            f"{r.second.site} (vc={r.second.vc}) are unordered by "
            "happens-before [REPRO006]"
            for r in races
        ]
        super().__init__("\n".join(lines))


class HappensBefore(NamedTuple):
    """What one run's event graph says about its shared accesses."""

    clocks: dict[int, tuple[int, ...]]  # rank -> vector clock at finish
    accesses: list[Access]  # in declaration order
    races: list[Race]


def happens_before(graph: "EventGraph", table: Sequence[tuple]) -> HappensBefore:
    """Vector clocks and races of a finished run.

    ``table`` holds the run's declared accesses as
    ``(rank, rank's last graph node, op, name, site, key)`` rows in
    host order: ``key`` is the object's id (the run's communicators
    keep every declared object alive, so no id is reused) and ``name``
    its label.  Each rank-owned node is seeded with the rank's tick
    count there; one max-only sweep over the graph's levels gives every
    node's vector clock, and an access's clock is its last node's with
    the own component advanced to the access's tick.
    """
    c = graph._columns()
    kind, owner = graph.node_kind, graph.node_rank
    local = c.code == 0
    prev = dict(zip(c.dst[local].tolist(), c.src[local].tolist()))
    naccess = Counter((r, last) for r, last, *_ in table)
    count = [0] * graph.nprocs
    tick = np.zeros(len(kind), dtype=np.int32)
    final = [0] * graph.nprocs
    after: dict[tuple[int, int], int] = {}  # (rank, node) -> ticks just after it
    for node, r in enumerate(owner):
        if r < 0:
            continue
        p = prev.get(node)
        if p is not None:
            after[r, p] = k = count[r] + (kind[p] == "release")
            count[r] = k + naccess[r, p] + (kind[node] in ("send", "recv", "arrive"))
        tick[node] = count[r]
        final[r] = node
    levels = c.plan()
    row, nrows = _rows(c, levels, [last for _r, last, *_ in table] + final)
    vc = np.zeros((nrows, graph.nprocs), dtype=np.int32)
    born = np.flatnonzero((c.depth == 0) & (c.rank >= 0))
    vc[row[born], c.rank[born]] = tick[born]
    for _lo, _hi, src, tgt, starts in levels:
        x = vc.take(row[src], axis=0)
        if starts is not None:  # some target has several in-edges
            x = np.maximum.reduceat(x, starts, axis=0)
        # No in-edge knows more of a rank than the rank's own tick.
        i = np.flatnonzero(c.rank[tgt] >= 0)
        x[i, c.rank[tgt[i]]] = tick[tgt[i]]
        vc[row[tgt]] = x

    accesses: list[Access] = []
    races: list[Race] = []
    logs: dict[int, tuple[str, list[Access]]] = {}
    seen: Counter = Counter()
    for r, last, op, name, site, key in table:
        seen[r, last] += 1
        clock = vc[row[last]].tolist()
        clock[r] = after[r, last] + seen[r, last]
        access = Access(rank=r, op=op, vc=tuple(clock), site=site)
        accesses.append(access)
        # An object's first declaration names it.
        name, log = logs.setdefault(key, (name, []))
        # ``prior`` ran first on the host, so the only order the graph
        # can hold is prior -> access: the access has seen its tick.
        for prior in log:
            if prior.rank == r or "write" not in (prior.op, op):
                continue
            if access.vc[prior.rank] < prior.vc[prior.rank]:
                races.append(Race(label=name, first=prior, second=access))
        log.append(access)
    clocks = {r: tuple(v) for r, v in enumerate(vc[row[final]].tolist())}
    return HappensBefore(clocks, accesses, races)


def _rows(c, levels: list[tuple], keep: list[int]) -> tuple[np.ndarray, int]:
    """A clock-table row per node, handed on at the level of its deepest
    out-edge target (a level gathers before it scatters), or one level
    on for a node without out-edges; ``keep``'s rows are never handed on.
    The table holds about one level's rows, not one per node."""
    free_at = c.depth + 1
    np.maximum.at(free_at, c.src, c.depth[c.dst])
    free_at[keep] = len(levels) + 2
    order = np.argsort(free_at, kind="stable")
    cuts = np.searchsorted(free_at[order], np.arange(len(levels) + 3))
    row = np.empty(len(free_at), dtype=np.int64)
    nrows, spare = 0, []
    for d, tgt in enumerate([np.flatnonzero(c.depth == 0)] + [lv[3] for lv in levels]):
        spare += row[order[cuts[d] : cuts[d + 1]]].tolist()
        need = len(tgt) - len(spare)
        if need > 0:
            spare += range(nrows, nrows + need)
            nrows += need
        row[tgt] = spare[len(spare) - len(tgt) :]
        del spare[len(spare) - len(tgt) :]
    return row, nrows
