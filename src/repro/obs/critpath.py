"""Critical-path profiler: the happens-before event graph, priced.

The virtual cluster already *prices* every event (Hockney point-to-point
model, collective formulas, fault surcharges) but discards the structure
between them: which chain of compute segments, message deliveries and
collective joins actually bounds the makespan.  This module records that
structure as a DAG and answers the paper's Figures 12-16 question
quantitatively — *why* is the makespan what it is.

Model
-----
Nodes are rank-local events anchored at virtual wall timestamps: a
per-rank ``start``, every ``send``/``recv`` completion, collective
``arrive``/``sync``/``release`` points, and a per-rank ``finish``.
Edges carry the priced virtual-seconds between events, split into five
resources:

* ``cpu``       — application compute (BLAS/app-model seconds),
* ``overhead``  — protocol-stack CPU that also occupies the wall clock
  (TCP copies/checksums: ``cpu_overhead_per_byte``),
* ``latency``   — per-message/per-round zero-byte cost (plus the
  rendezvous handshake),
* ``bandwidth`` — wire occupancy (bytes over link bandwidth, including
  retransmitted copies and congestion/half-duplex stretch),
* ``idle``      — time no resource is used: RTO backoff waits and
  expired virtual recv timeouts.

Each node's recorded timestamp satisfies ``t(node) = max over in-edges
of (t(src) + cost(edge))`` (up to float association), so the graph
*re-derives* the simulator's clocks rather than approximating them —
:meth:`EventGraph.validate` asserts this.  Collective rendezvous are
collapsed to ``P arrivals -> 1 sync -> 1 release`` (2P+2 edges, not
P^2), which is what keeps 1024-rank graphs cheap.

Storage and pricing
-------------------
The recorder appends plain schema-1 rows (the ``to_dict`` edge layout)
and each node's *depth*, 1 + the largest depth among its in-edge
sources; sources exist before their targets, so depths fall out of
ingest.  The first pricing or serialisation turns the rows into numpy
columns and a plan: edges grouped by target depth, sorted by target
within a depth.  Every longest path is then one level-synchronous
sweep (:func:`_sweep`) over a ``(k, E)`` weight matrix — per depth,
``t[:, tgt] = max.reduceat(t[:, src] + W[:, edges])`` — so ``k``
counterfactuals cost one pass: :func:`analyze` prices the recorded run
and its standard counterfactuals together, and :func:`swap_makespans`
prices every (graph, fabric) pair of a campaign search at once.  Each
weight row is column arithmetic in the order the per-edge formulas
always used, and the max over sums is the same max, so node times are
bit for bit what a Python pass over the edges gives.

Counterfactuals
---------------
:func:`whatif` re-weights edge components (zero latency, infinite
bandwidth, remove-straggler via per-rank cpu scaling);
:func:`swap_network` re-prices communication edges under a different
:class:`~repro.machines.network.NetworkModel` using the byte counts and
participant counts stashed on each edge — no re-run of the cluster.

Charge parity: the recorder reads rank state and appends to its own
lists — it never touches virtual clocks, byte ledgers, the OpCounter,
or sanitizer vector clocks (pinned byte-identical by the tier-1
hypothesis tests, like the tracer and the race detector).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Iterator, NamedTuple, Sequence

import numpy as np

from .tracer import current_stage

if TYPE_CHECKING:  # pragma: no cover
    from ..machines.network import NetworkModel
    from ..parallel.simmpi import VirtualCluster

__all__ = [
    "RESOURCES",
    "Edge",
    "EventGraph",
    "CritPathRecorder",
    "PathSegment",
    "CriticalPath",
    "critical_path",
    "whatif",
    "swap_network",
    "swap_makespans",
    "analyze",
    "aggregate_analyses",
    "render_critpath_report",
]

#: The five cost resources every edge decomposes into.
RESOURCES = ("cpu", "overhead", "latency", "bandwidth", "idle")


class Edge(NamedTuple):
    """One happens-before edge: a schema-1 edge row without its target.

    The byte/participant metadata (``nbytes``, ``ebytes``, ``obytes``,
    ``n``, ``stretch``, ``factor``) exists purely so counterfactual
    re-pricing can re-derive the components under a different network:

    * ``nbytes`` — logical payload bytes (per message / max chunk),
    * ``ebytes`` — effective wire bytes: link-factor-scaled, including
      retransmitted copies (``bandwidth == ebytes / old_bw``),
    * ``obytes`` — bytes through the protocol stack
      (``overhead == cpu_overhead_per_byte * obytes``),
    * ``n``      — participant count (collective edges),
    * ``stretch``— degraded-link round stretch (alltoall),
    * ``factor`` — per-link degradation factor (message edges).
    """

    src: int
    cpu: float = 0.0
    overhead: float = 0.0
    latency: float = 0.0
    bandwidth: float = 0.0
    idle: float = 0.0
    kind: str = "local"
    nbytes: float = 0.0
    ebytes: float = 0.0
    obytes: float = 0.0
    n: int = 0
    stretch: float = 1.0
    factor: float = 1.0

    def total(self) -> float:
        return self.cpu + self.overhead + self.latency + self.bandwidth + self.idle

    def components(self) -> dict[str, float]:
        return {
            "cpu": self.cpu,
            "overhead": self.overhead,
            "latency": self.latency,
            "bandwidth": self.bandwidth,
            "idle": self.idle,
        }


#: A schema-1 edge row is ``(dst, *Edge)``; a node row is
#: ``(rank, kind, label, stage, t)``.
EDGE_WIDTH, NODE_WIDTH = 1 + len(Edge._fields), 5
#: The float edge fields, in schema order (``_Columns.floats``).
_FLOAT_FIELDS = (
    "cpu", "overhead", "latency", "bandwidth", "idle",
    "nbytes", "ebytes", "obytes", "stretch", "factor",
)
#: Edge kinds the pricing formulas single out; anything else is a
#: collective release edge.
_KIND_CODE = {"local": 0, "message": 1, "sync": 2}
#: The cost-free join edge of an arrival into its collective's sync.
_SYNC_TAIL = (0.0, 0.0, 0.0, 0.0, 0.0, "sync", 0.0, 0.0, 0.0, 0, 1.0, 1.0)


class EventGraph:
    """The recorded happens-before DAG of one ``VirtualCluster.run``.

    Node columns are parallel lists indexed by node id (ids are a valid
    topological order); ``edges`` holds schema-1 rows
    ``(dst, src, cpu, overhead, latency, bandwidth, idle, kind, nbytes,
    ebytes, obytes, n, stretch, factor)``.  Rows normally arrive in
    target order (the recorder and :meth:`from_dict` guarantee it); a
    hand-built graph that adds them out of order is regrouped by target
    when its columns are built.  A graph read by :meth:`from_dict` holds
    columns only and lists its rows again when someone asks for them.
    """

    def __init__(self, nprocs: int, network: "NetworkModel | None" = None):
        self.nprocs = nprocs
        self.network = network
        # Deserialized graphs know the recorded network only by name
        # (the model itself is not persisted); see ``network_name``.
        self._network_name: str | None = None
        self.node_rank: list[int] = []
        self.node_kind: list[str] = []
        self.node_label: list[str] = []
        self.node_stage: list[str | None] = []
        self.node_t: list[float] = []
        self.node_depth: list[int] = []
        self._edges: list[tuple] | None = []
        self._ordered = True
        self._cols: _Columns | None = None

    def __len__(self) -> int:
        return len(self.node_t)

    @property
    def edges(self) -> list[tuple]:
        """The schema-1 edge rows, in target order."""
        if self._edges is None:
            self._edges = list(_rows(self._cols))
        return self._edges

    @property
    def nedges(self) -> int:
        return len(self._edges) if self._edges is not None else len(self._cols.dst)

    @property
    def network_name(self) -> str | None:
        """Name of the network the graph was recorded under, if known."""
        if self.network is not None:
            return self.network.name
        return self._network_name

    def add_node(
        self,
        rank: int,
        kind: str,
        label: str,
        t: float,
        stage: str | None = None,
    ) -> int:
        self.node_rank.append(rank)
        self.node_kind.append(kind)
        self.node_label.append(label)
        self.node_stage.append(stage)
        self.node_t.append(t)
        self.node_depth.append(0)
        self._changed()
        return len(self.node_t) - 1

    def add_edge(self, dst: int, edge: Edge) -> Edge:
        src = edge.src
        if not 0 <= src < len(self.node_t):
            raise ValueError(f"edge source {src} does not exist")
        if src >= dst:
            raise ValueError(f"edge {src} -> {dst} violates topological node order")
        if dst >= len(self.node_t):
            raise ValueError(f"edge target {dst} does not exist")
        rows = self.edges
        if rows and dst < rows[-1][0]:
            self._ordered = False
        rows.append((dst, *edge))
        depth = self.node_depth
        depth[dst] = max(depth[dst], depth[src] + 1)
        self._changed()
        return edge

    def _changed(self) -> None:
        """Drop the columns, listing the rows first if they stood in for
        them."""
        if self._cols is not None:
            self._edges = self.edges
            self._cols = None

    def _columns(self) -> "_Columns":
        """The graph's numpy columns and sweep plan, built once."""
        if self._cols is None:
            if not self._ordered:
                self.edges.sort(key=itemgetter(0))  # stable: in-edge order kept
                self.node_depth = _depths(
                    len(self), [r[0] for r in self.edges], [r[1] for r in self.edges]
                )
                self._ordered = True
            self._cols = _Columns.of_rows(self)
        return self._cols

    def makespan(self) -> float:
        """Virtual makespan implied by the edges.

        Measured from the earliest source anchor, so graphs recorded on
        reused clusters (nonzero starting clocks) stay comparable.
        """
        c = self._columns()
        return _makespans(_sweep(c, c.total[None, :]), [c])[0][0]

    @property
    def t0(self) -> float:
        """Earliest source anchor (0.0 on a fresh cluster)."""
        return self._columns().t0

    # -- serialization (campaign artifacts) ------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form of the recorded graph.

        The campaign engine persists each job's graph next to the run
        ledger so ``campaign search`` can re-weight it (``whatif`` /
        ``swap_network``) long after the run, without re-running the
        cluster.  The network rides along by name only — counterfactual
        passes supply their own :class:`NetworkModel`.
        """
        c = self._columns()
        return {
            "schema": 1,
            "nprocs": self.nprocs,
            "network": self.network_name,
            # Numeric fields are normalised (counts int, weights float)
            # so serialising a rebuilt graph is a byte-level fixed point.
            "nodes": list(map(list, zip(
                c.rank.tolist(), self.node_kind, self.node_label, self.node_stage,
                c.t.tolist(),
            ))),
            "edges": list(map(list, _rows(c))),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EventGraph":
        """Rebuild a graph serialised by :meth:`to_dict`.

        Malformed input — a wrong row width, a non-number, an edge that
        names a missing node or points backwards — is a ``ValueError``
        naming the row.
        """
        schema = data.get("schema") if isinstance(data, dict) else None
        if schema != 1:
            raise ValueError(f"unknown event-graph schema {schema!r}")
        try:
            g = cls(int(data["nprocs"]))
            nodes, edges = data["nodes"], data["edges"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"event graph header: {exc!r}") from None
        g._network_name = data.get("network")
        ranks, kinds, labels, stages, ts = _transpose(nodes, NODE_WIDTH, "node")
        rank = _numbers([ranks], np.int64, "node", ("rank",))[0]
        t = _numbers([ts], float, "node", ("t",))[0]
        cols = _transpose(edges, EDGE_WIDTH, "edge")
        dst, src, n = _numbers(
            [cols[0], cols[1], cols[11]], np.int64, "edge", ("dst", "src", "n")
        )
        bad = np.flatnonzero((src < 0) | (src >= dst) | (dst >= len(ts)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"event graph edge row {i}: {src[i]} -> {dst[i]} is not an "
                f"edge between existing nodes in topological order"
            )
        f = _numbers(cols[2:7] + cols[8:11] + cols[12:], float, "edge", _FLOAT_FIELDS)
        kind = tuple(map(str, cols[7]))
        if np.any(dst[1:] < dst[:-1]):  # regroup in-edges by target
            order = np.argsort(dst, kind="stable")
            dst, src, f, n = dst[order], src[order], f[:, order], n[order]
            kind = tuple(kind[i] for i in order.tolist())
        g.node_rank, g.node_t = rank.tolist(), t.tolist()
        g.node_kind, g.node_label = list(map(str, kinds)), list(map(str, labels))
        g.node_stage = list(stages)
        g.node_depth = _depths(len(ts), dst.tolist(), src.tolist())
        g._edges = None
        g._cols = _Columns(
            t, rank, np.array(g.node_depth, dtype=np.int64), dst, src, tuple(f), n, kind
        )
        return g

    def validate(self, rel: float = 1e-6) -> None:
        """Assert recorded anchors match edge-implied times.

        Tolerates float re-association between the simulator's
        incremental clock updates and the single-pass summation here.
        """
        c = self._columns()
        t = _sweep(c, c.total[None, :])[0]
        span = float(np.abs(c.t).max()) if len(self) else 1.0
        tol = rel * max(1e-30, span)
        bad = np.flatnonzero(np.abs(t - c.t) > tol)
        if bad.size:
            i = int(bad[0])
            raise AssertionError(
                f"node {i} ({self.node_kind[i]} "
                f"'{self.node_label[i]}' rank {self.node_rank[i]}): "
                f"edge-implied t={float(t[i])!r} vs recorded t={self.node_t[i]!r}"
            )


def _transpose(rows: Any, width: int, what: str) -> list[tuple]:
    """Columns of a list of ``width``-wide rows; a ``ValueError`` names
    the first row that is not one."""
    if not isinstance(rows, list):
        raise ValueError(f"event graph {what}s are not a list")
    try:
        ok = set(map(len, rows)) <= {width}
    except TypeError:
        ok = False
    if not ok:
        i = next(
            i for i, r in enumerate(rows)
            if not isinstance(r, list) or len(r) != width
        )
        raise ValueError(
            f"event graph {what} row {i} is not a list of {width} fields: "
            f"{rows[i]!r}"
        )
    return list(zip(*rows)) if rows else [()] * width


def _numbers(cols: list[Sequence[Any]], dtype: Any, what: str, names: Sequence[str]) -> np.ndarray:
    """``cols`` as one ``(len(cols), n)`` array; a ``ValueError`` names
    the first row holding something that is not a number."""
    try:
        return np.array(cols, dtype=dtype)
    except (TypeError, ValueError, OverflowError):
        for col, name in zip(cols, names):
            for i, v in enumerate(col):
                try:
                    np.array(v, dtype=dtype)
                except (TypeError, ValueError, OverflowError):
                    raise ValueError(
                        f"event graph {what} row {i}: {name} {v!r} is not a number"
                    ) from None
        raise


def _rows(c: "_Columns") -> Iterator[tuple]:
    """Schema-1 edge rows from columns: counts int, weights float."""
    f = [col.tolist() for col in c.floats]
    return zip(
        c.dst.tolist(), c.src.tolist(), *f[:5], c.kind, *f[5:8], c.n.tolist(), *f[8:]
    )


def _depths(nnodes: int, dst: list[int], src: list[int]) -> list[int]:
    """Node depths from edges listed in target order (sources first)."""
    depth = [0] * nnodes
    for d, s in zip(dst, src):
        if depth[s] >= depth[d]:
            depth[d] = depth[s] + 1
    return depth


# ---------------------------------------------------------------------------
# Columns, the plan and the sweep
# ---------------------------------------------------------------------------


class _Columns:
    """Numpy columns of one graph (or of several, concatenated) and the
    level-synchronous sweep plan over them.

    Edge columns are in row order (targets nondecreasing); ``floats``
    holds the ten float ones in schema order.  The plan (built on the first sweep) orders
    edges by target depth, targets ascending within a depth, in-edge
    order kept: ``order`` maps plan position to row, and ``levels``
    holds per depth the plan slice, its sources, its distinct targets
    and, when some target has several in-edges, where each target's run
    of in-edges starts within the slice.
    """

    def __init__(self, t, rank, depth, dst, src, floats, n, kind, code=None):
        self.t, self.rank, self.depth = t, rank, depth
        self.dst, self.src, self.n, self.kind = dst, src, n, kind
        self.floats = floats
        (self.cpu, self.overhead, self.latency, self.bandwidth, self.idle,
         self.nbytes, self.ebytes, self.obytes, self.stretch, self.factor) = floats
        self.total = self.cpu + self.overhead + self.latency + self.bandwidth + self.idle
        if code is None:
            code = np.fromiter(
                map(_KIND_CODE.get, kind, repeat(3)), dtype=np.int8, count=len(kind)
            )
        self.code = code
        sources = t[depth == 0]
        self.t0 = float(sources.min()) if sources.size else 0.0
        self.levels: list[tuple] | None = None

    @classmethod
    def of_rows(cls, g: EventGraph) -> "_Columns":
        cols = list(zip(*g.edges)) if g.edges else [()] * EDGE_WIDTH
        return cls(
            np.array(g.node_t, dtype=float),
            np.array(g.node_rank, dtype=np.int64),
            np.array(g.node_depth, dtype=np.int64),
            np.array(cols[0], dtype=np.int64),
            np.array(cols[1], dtype=np.int64),
            tuple(np.array(cols[2:7] + cols[8:11] + cols[12:], dtype=float)),
            np.array(cols[11], dtype=np.int64),
            cols[7],
        )

    @classmethod
    def concat(cls, parts: list["_Columns"]) -> "_Columns":
        """One graph of disjoint parts, node ids offset part by part."""
        if len(parts) == 1:
            return parts[0]
        offsets = np.cumsum([0] + [len(p.t) for p in parts[:-1]])
        shift = np.repeat(offsets, [len(p.dst) for p in parts])
        cat = np.concatenate
        return cls(
            cat([p.t for p in parts]),
            cat([p.rank for p in parts]),
            cat([p.depth for p in parts]),
            cat([p.dst for p in parts]) + shift,
            cat([p.src for p in parts]) + shift,
            [cat([p.floats[i] for p in parts]) for i in range(len(_FLOAT_FIELDS))],
            cat([p.n for p in parts]),
            tuple(chain.from_iterable(p.kind for p in parts)),
            cat([p.code for p in parts]),
        )

    def plan(self) -> list[tuple]:
        if self.levels is None:
            edepth = self.depth[self.dst]
            self.order = order = np.argsort(edepth, kind="stable")
            pdst, pdep = self.dst[order], edepth[order]
            psrc = self.src[order]
            first = np.ones(len(order), dtype=bool)
            first[1:] = pdst[1:] != pdst[:-1]
            tstart = np.flatnonzero(first)  # where each target's run begins
            first[1:] = pdep[1:] != pdep[:-1]
            bounds = np.append(np.flatnonzero(first), len(order))
            cuts = np.searchsorted(tstart, bounds)
            tnode = pdst[tstart]
            rel = tstart - np.repeat(bounds[:-1], np.diff(cuts))
            self.levels = [
                (lo, hi, psrc[lo:hi], tnode[a:b], rel[a:b] if b - a < hi - lo else None)
                for lo, hi, a, b in zip(
                    bounds[:-1].tolist(), bounds[1:].tolist(),
                    cuts[:-1].tolist(), cuts[1:].tolist(),
                )
            ]
        return self.levels


def _sweep(c: _Columns, W: np.ndarray) -> np.ndarray:
    """Longest-path node times, one row per row of ``W`` (k, E).

    Source nodes keep their recorded anchor — a reused cluster's clocks
    do not restart at zero.  Each depth takes, per target, the max over
    its in-edges of source time + weight: the per-edge pass's values,
    bit for bit.  The sweep runs node-major, ``(V, k)``, so a depth's
    gather and scatter move whole rows.
    """
    levels = c.plan()
    Wt = W.T[c.order]
    t = np.repeat(c.t[:, None], len(W), axis=1)
    for lo, hi, src, tgt, starts in levels:
        x = t.take(src, axis=0)
        x += Wt[lo:hi]
        if starts is not None:  # some target has several in-edges
            x = np.maximum.reduceat(x, starts, axis=0)
        t[tgt] = x
    return t.T


def _makespans(t: np.ndarray, parts: list[_Columns]) -> list[list[float]]:
    """Per row of ``t`` and per part: latest node time minus the part's
    earliest source anchor (0.0 for a part without nodes)."""
    sizes = [len(p.t) for p in parts]
    offsets = np.cumsum([0] + sizes[:-1])
    live = [i for i, size in enumerate(sizes) if size]
    out = np.zeros((len(t), len(parts)))
    if live:
        out[:, live] = np.maximum.reduceat(t, offsets[live], axis=1) - np.array(
            [parts[i].t0 for i in live]
        )
    return out.tolist()


# ---------------------------------------------------------------------------
# Recorder (the simmpi hook surface)
# ---------------------------------------------------------------------------


class CritPathRecorder:
    """Observer recording the event graph of one ``VirtualCluster.run``.

    Attach via ``VirtualCluster(..., critpath=recorder)``; after the
    run, ``recorder.graph`` holds the priced DAG.  A new ``run()``
    starts a fresh graph.  Hooks are called from rank threads, but the
    scheduler runs one rank at a time, so they never interleave.  Each
    hook appends node columns and plain edge rows; nothing per edge is
    an object.
    """

    def __init__(self) -> None:
        self.graph: EventGraph | None = None
        self._last: list[int] = []
        # Per rank, the wall-clock components accrued since its last
        # node, [bandwidth, overhead, idle, ebytes, obytes]: sender-side
        # wire occupancy, protocol overhead and RTO/timeout idle land on
        # the *next* local edge.
        self._pending: list[list[float]] = []
        # send node -> (latency, wire, rto_idle, nbytes, factor) of the
        # in-flight message; consumed by the matching recv.
        self._msg: dict[int, tuple[float, float, float, float, float]] = {}
        # collective key -> arrival nodes
        self._arrivals: dict[tuple[str, int], list[int]] = {}
        # collective key -> (release node, remaining releases)
        self._release: dict[tuple[str, int], list[int]] = {}

    # -- run lifecycle ---------------------------------------------------------

    def on_run_begin(self, cluster: "VirtualCluster") -> None:
        g = EventGraph(cluster.nprocs, cluster.network)
        self.graph = g
        self._msg.clear()
        self._arrivals.clear()
        self._release.clear()
        self._pending = [[0.0] * 5 for _ in range(cluster.nprocs)]
        self._last = [
            g.add_node(r, "start", "start", cluster.ranks[r].wall)
            for r in range(cluster.nprocs)
        ]

    def on_run_finish(self, cluster: "VirtualCluster") -> None:
        g = self.graph
        if g is None:
            return
        for r in range(cluster.nprocs):
            wall = cluster.ranks[r].wall
            self._event(r, "finish", "finish", wall, wall, None)
        g._cols = None

    def _event(
        self,
        rank: int,
        kind: str,
        label: str,
        t: float,
        t_busy_end: float,
        stage: str | None,
        extra_overhead: float = 0.0,
        extra_obytes: float = 0.0,
        peer: int | None = None,
    ) -> int:
        """A new node on ``rank`` and its local edge from ``last[rank]``.

        ``t_busy_end`` is the rank's wall before any blocking at this
        event, so the residual after pending components is pure compute;
        ``extra_overhead`` folds in receiver-side protocol cost charged
        after the blocking point.  ``peer`` is the node's other in-edge
        source (a recv's send), counted in its depth.
        """
        g = self.graph
        last = self._last[rank]
        depth = g.node_depth
        d = depth[last]
        if peer is not None and depth[peer] > d:
            d = depth[peer]
        node = len(g.node_t)
        g.node_rank.append(rank)
        g.node_kind.append(kind)
        g.node_label.append(label)
        g.node_stage.append(stage)
        g.node_t.append(t)
        depth.append(d + 1)
        bw, ovh, idle, ebytes, obytes = self._pending[rank]
        cpu = max(0.0, t_busy_end - g.node_t[last] - (bw + ovh + idle))
        g.edges.append((
            node, last, cpu, ovh + extra_overhead, 0.0, bw, idle, "local",
            0.0, ebytes, obytes + extra_obytes, 0, 1.0, 1.0,
        ))
        self._pending[rank] = [0.0, 0.0, 0.0, 0.0, 0.0]
        self._last[rank] = node
        return node

    # -- point-to-point --------------------------------------------------------

    def on_send(
        self,
        *,
        rank: int,
        dest: int,
        tag: int,
        nbytes: float,
        t_start: float,
        ready: float,
        wire: float,
        overhead: float,
        nret: int,
        delay: float,
        factor: float,
        resend_cpu: float,
    ) -> int:
        """Record a send; returns the node id the mailbox entry carries."""
        node = self._event(
            rank, "send", f"send->{dest} tag={tag}", t_start, t_start, current_stage()
        )
        # Message-edge split: ready = t_start + delay + factor *
        # send_time(nbytes); the wire term is factor * nbytes/bw,
        # the remainder is latency (plus any rendezvous handshake).
        self._msg[node] = (ready - t_start - delay - wire, wire, delay, nbytes, factor)
        # Sender-side wall costs accrue onto the next local edge: wire
        # occupancy for each copy, protocol CPU (plus kernel resend
        # copies), RTO backoff as idle.
        p = self._pending[rank]
        p[0] += wire * (1 + nret)
        p[1] += overhead + resend_cpu
        p[2] += delay
        p[3] += factor * nbytes * (1 + nret)
        p[4] += nbytes * (1 + nret)
        return node

    def on_recv(
        self,
        *,
        rank: int,
        source: int,
        tag: int,
        nbytes: float,
        t_busy_end: float,
        t_after: float,
        overhead: float,
        send_node: int | None,
    ) -> None:
        node = self._event(
            rank, "recv", f"recv<-{source} tag={tag}", t_after, t_busy_end,
            current_stage(), overhead, nbytes, send_node,
        )
        if send_node is not None:
            lat, wire, delay, mbytes, factor = self._msg.pop(send_node)
            self.graph.edges.append((
                node, send_node, 0.0, overhead, lat, wire, delay, "message",
                mbytes, factor * mbytes, mbytes, 0, 1.0, factor,
            ))

    def on_wait_burn(self, rank: int, seconds: float) -> None:
        """An expired virtual recv timeout burned wall time as idle."""
        if self.graph is not None:
            self._pending[rank][2] += seconds

    # -- collectives -----------------------------------------------------------

    def on_collective_arrive(
        self, key: tuple[str, int], rank: int, t_arrive: float
    ) -> None:
        node = self._event(
            rank, "arrive", f"{key[0]}#{key[1]}", t_arrive, t_arrive, current_stage()
        )
        self._arrivals.setdefault(key, []).append(node)

    def on_collective_complete(
        self,
        key: tuple[str, int],
        t_start: float,
        t_done: float,
        components: dict[str, float],
        meta: dict[str, Any],
    ) -> None:
        """All ranks arrived: collapse the rendezvous to sync -> release.

        ``components`` (resource -> seconds) must sum to
        ``t_done - t_start``; ``meta`` carries the re-pricing fields
        (kind/n/nbytes/ebytes/obytes/stretch).
        """
        g = self.graph
        depth = g.node_depth
        label = f"{key[0]}#{key[1]}"
        arrivals = self._arrivals.pop(key, [])
        sync = g.add_node(-1, "sync", label, t_start)
        g.edges.extend([(sync, a, *_SYNC_TAIL) for a in arrivals])
        if arrivals:
            depth[sync] = 1 + max([depth[a] for a in arrivals])
        release = g.add_node(-1, "release", label, t_done)
        depth[release] = depth[sync] + 1
        g.edges.append((
            release, sync, *(components.get(r, 0.0) for r in RESOURCES),
            str(meta.get("kind", key[0])),
            *(float(meta.get(f, 0.0)) for f in ("nbytes", "ebytes", "obytes")),
            int(meta.get("n", g.nprocs)), float(meta.get("stretch", 1.0)), 1.0,
        ))
        self._release[key] = [release, g.nprocs]

    def on_collective_release(self, key: tuple[str, int], rank: int) -> None:
        if self.graph is None:
            return
        entry = self._release.get(key)
        if entry is None:  # defensive: release without completion
            return
        self._last[rank] = entry[0]
        entry[1] -= 1
        if entry[1] <= 0:
            del self._release[key]


# ---------------------------------------------------------------------------
# Critical-path extraction and attribution
# ---------------------------------------------------------------------------


@dataclass
class PathSegment:
    """One edge on the critical path, resolved to (rank, stage, label)."""

    rank: int
    stage: str | None
    label: str
    start: float
    edge: Edge

    @property
    def kind(self) -> str:
        return self.edge.kind

    @property
    def end(self) -> float:
        return self.start + self.edge.total()

    def total(self) -> float:
        return self.edge.total()

    def components(self) -> dict[str, float]:
        return self.edge.components()


@dataclass
class CriticalPath:
    """The longest virtual-time chain and its makespan attribution."""

    graph: EventGraph
    makespan: float
    segments: list[PathSegment] = field(default_factory=list)

    @property
    def covered(self) -> float:
        """Seconds of the makespan explained by named path segments."""
        return sum(s.total() for s in self.segments)

    @property
    def coverage(self) -> float:
        """Fraction of the makespan attributed (1.0 = fully explained)."""
        return self.covered / self.makespan if self.makespan > 0 else 1.0

    def by_resource(self) -> dict[str, float]:
        out = dict.fromkeys(RESOURCES, 0.0)
        for s in self.segments:
            for k, v in s.components().items():
                out[k] += v
        return out

    def by_rank(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for s in self.segments:
            out[s.rank] = out.get(s.rank, 0.0) + s.total()
        return dict(sorted(out.items()))

    def by_stage(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.segments:
            stage = s.stage if s.stage is not None else "(unstaged)"
            out[stage] = out.get(stage, 0.0) + s.total()
        return dict(sorted(out.items()))

    def top_segments(self, k: int = 10) -> list[PathSegment]:
        return sorted(self.segments, key=lambda s: -s.total())[:k]


def critical_path(graph: EventGraph) -> CriticalPath:
    """Longest virtual-time path from any start anchor to the last finish.

    Ties break deterministically (larger edge cost, then lower source
    id).  Collective release edges are attributed to the binding (last
    arriving) rank and its stage.
    """
    c = graph._columns()
    return _walk(graph, c, _sweep(c, c.total[None, :])[0])


def _walk(graph: EventGraph, c: _Columns, t: np.ndarray) -> CriticalPath:
    """Walk back from the sink over binding in-edges (node times ``t``)."""
    if not len(graph):
        return CriticalPath(graph, 0.0)
    tl = t.tolist()
    sink = len(tl) - 1 - int(np.argmax(t[::-1]))  # the last of the latest
    makespan = tl[sink] - c.t0

    # Rows are in target order: node v's in-edges are rows[lo[v]:lo[v + 1]].
    lo = np.searchsorted(c.dst, np.arange(len(tl) + 1)).tolist()
    rows = graph.edges
    links: list[tuple[int, int]] = []  # (dst, row), sink-first
    node = sink
    while lo[node] < lo[node + 1]:
        best, best_key = -1, None
        for i in range(lo[node], lo[node + 1]):
            _, s, cpu, overhead, latency, bandwidth, idle = rows[i][:7]
            cost = cpu + overhead + latency + bandwidth + idle  # Edge.total
            key = (tl[s] + cost, cost, -s)
            if best_key is None or key > best_key:
                best, best_key = i, key
        links.append((node, best))
        node = rows[best][1]
    links.reverse()  # source -> sink order

    # Resolve rank/stage along the walk: sync/release nodes are global
    # (rank -1); they inherit from the most recent ranked node on the
    # path — the binding arrival.
    segments: list[PathSegment] = []
    cur_rank = graph.node_rank[node]
    cur_stage = graph.node_stage[node]
    for dst, row in links:
        e = Edge(*rows[row][1:])
        if graph.node_rank[e.src] >= 0:
            cur_rank = graph.node_rank[e.src]
            cur_stage = graph.node_stage[e.src]
        rank = graph.node_rank[dst]
        stage = graph.node_stage[dst]
        if rank < 0:
            rank, stage = cur_rank, cur_stage
        if e.kind == "sync":
            continue  # zero-cost join bookkeeping, not a segment
        segments.append(
            PathSegment(
                rank=rank,
                stage=stage,
                label=graph.node_label[dst],
                start=tl[e.src],
                edge=e,
            )
        )
    return CriticalPath(graph, makespan, segments)


# ---------------------------------------------------------------------------
# Counterfactuals: re-weight edges, never re-run the cluster
# ---------------------------------------------------------------------------


def _whatif_weights(c: _Columns, scalings: list[dict[str, Any]]) -> np.ndarray:
    """One weight row per set of :func:`whatif` keywords: each component
    times its scale, summed in resource order."""
    scales = np.array(
        [[kw.get(f"{r}_scale", 1.0) for r in RESOURCES] for kw in scalings]
    )
    cpu_scales = scales[:, :1]
    ranked = [i for i, kw in enumerate(scalings) if kw.get("rank_cpu_scale") is not None]
    if ranked:  # per edge: scaled again by the rank of its target
        cpu_scales = np.repeat(cpu_scales, len(c.dst), axis=1)
        ranks, inv = np.unique(c.rank, return_inverse=True)
        target_rank = inv[c.dst]
        for i in ranked:
            by_rank = scalings[i]["rank_cpu_scale"]
            lut = np.array([by_rank.get(r, 1.0) for r in ranks.tolist()])
            cpu_scales[i] = scales[i, 0] * lut[target_rank]
    W = c.cpu * cpu_scales
    for j, col in enumerate((c.overhead, c.latency, c.bandwidth, c.idle), 1):
        W += col * scales[:, j, None]
    return W


def whatif(
    graph: EventGraph,
    *,
    cpu_scale: float = 1.0,
    overhead_scale: float = 1.0,
    latency_scale: float = 1.0,
    bandwidth_scale: float = 1.0,
    idle_scale: float = 1.0,
    rank_cpu_scale: dict[int, float] | None = None,
) -> float:
    """Makespan under component scaling (e.g. ``latency_scale=0``).

    ``rank_cpu_scale`` scales the cpu component of edges whose target
    node belongs to the given rank — ``{straggler: 1/stretch}`` is the
    remove-straggler counterfactual.
    """
    c = graph._columns()
    w = _whatif_weights(c, [dict(
        cpu_scale=cpu_scale, overhead_scale=overhead_scale,
        latency_scale=latency_scale, bandwidth_scale=bandwidth_scale,
        idle_scale=idle_scale, rank_cpu_scale=rank_cpu_scale,
    )])
    return _makespans(_sweep(c, w), [c])[0][0]


def _swap_weights(c: _Columns, new: "NetworkModel", cpu_scale: Any) -> np.ndarray:
    """Every edge re-priced under ``new`` (see :func:`swap_network`);
    ``cpu_scale`` is a scalar or one value per edge."""
    lossy = new.cpu_overhead_per_byte > 0.0
    wire = c.ebytes / new.bandwidth
    # Message latency: factor * (send_time(nbytes) - nbytes / bandwidth)
    # at the truncated byte count, rendezvous surcharge included.
    nbytes = np.trunc(c.nbytes)
    per_byte = nbytes / new.bandwidth
    send = new.latency_us * 1e-6 + per_byte
    send = np.where(
        nbytes > new.eager_threshold, send + new.rendezvous_extra_us * 1e-6, send
    )
    cost = np.where(
        c.code == 0, c.cpu * cpu_scale + wire, c.factor * (send - per_byte) + wire
    )
    cost = cost + new.cpu_time_for_bytes(c.obytes)
    if lossy:
        cost = cost + c.idle
    cost[c.code == 2] = 0.0
    coll = np.flatnonzero(c.code == 3)  # collective release edges
    fields = (c.stretch, c.n, c.nbytes, c.latency, c.bandwidth, c.obytes, c.idle, c.ebytes)
    for i, stretch, n, nb, lat, bw, ob, idle, eb in zip(
        coll.tolist(), *(f[coll].tolist() for f in fields)
    ):
        try:
            # ``stretch`` is 1.0 (exact) on all but a degraded Alltoall.
            base = stretch * new.collective_time(c.kind[i], n, int(nb))
        except ValueError:
            # A deserialised graph may carry a kind the table does not
            # price: keep the recorded wire cost, re-price the overhead.
            base = lat + bw
        total = base + new.cpu_time_for_bytes(ob)
        if lossy:
            # Keep the recorded RTO draws; resend wire re-priced to the
            # new link speed.
            total += idle + eb / new.bandwidth
        cost[i] = total
    return cost


def swap_network(
    graph: EventGraph, new: "NetworkModel", cpu_scale: float = 1.0
) -> float:
    """Makespan with every communication edge re-priced under ``new``.

    Compute (cpu) is untouched by default; ``cpu_scale`` scales it so a
    whole-machine swap (different CPU *and* fabric, e.g. campaign
    ``search`` trying another catalog entry) can be priced in one pass.
    Loss surcharges (RTO idle, resend wire/CPU) only survive if the new
    network is still kernel-mediated (``cpu_overhead_per_byte > 0``) —
    swapping to an OS-bypass fabric removes TCP loss along with its
    costs, mirroring ``FaultPlan.loss_applies``.
    """
    return swap_makespans([graph], [(new, [cpu_scale])])[0][0]


def swap_makespans(
    graphs: list[EventGraph],
    swaps: list[tuple["NetworkModel", Sequence[float]]],
) -> list[list[float]]:
    """``swap_network`` of every graph under every swap, in one sweep.

    ``swaps[i] = (network, cpu_scale per graph)``; the result's
    ``[i][j]`` equals ``swap_network(graphs[j], network, scales[j])``.
    The graphs are priced as one graph of disjoint parts.
    """
    parts = [g._columns() for g in graphs]
    c = _Columns.concat(parts)
    counts = [len(p.dst) for p in parts]
    W = np.stack(
        [
            _swap_weights(c, net, np.repeat(np.asarray(scales, dtype=float), counts))
            for net, scales in swaps
        ]
    )
    return _makespans(_sweep(c, W), parts)


# ---------------------------------------------------------------------------
# One-call analysis + text report
# ---------------------------------------------------------------------------


def analyze(
    graph: EventGraph,
    swap_nets: dict[str, "NetworkModel"] | None = None,
    straggler_scale: dict[int, float] | None = None,
    top_k: int = 8,
) -> dict[str, Any]:
    """Critical path + attribution + standard counterfactual suite.

    Returns a JSON-able dict (every quantity is virtual-clock derived,
    hence deterministic and regression-gateable).  ``swap_nets`` maps
    display name -> NetworkModel for fabric-swap counterfactuals;
    ``straggler_scale`` maps rank -> cpu scale for remove-straggler.
    The recorded run and every counterfactual are rows of one weight
    matrix, priced in one sweep.
    """
    c = graph._columns()
    names = ["zero_latency", "infinite_bandwidth", "zero_overhead", "zero_idle"]
    scalings = [{}, {"latency_scale": 0.0}, {"bandwidth_scale": 0.0},
                {"overhead_scale": 0.0}, {"idle_scale": 0.0}]
    if straggler_scale:
        names.append("remove_straggler")
        scalings.append({"rank_cpu_scale": straggler_scale})
    rows = [_whatif_weights(c, scalings)]  # row 0: the recorded run
    for name, net in (swap_nets or {}).items():
        names.append(f"swap:{name}")
        rows.append(_swap_weights(c, net, 1.0)[None, :])
    t = _sweep(c, np.concatenate(rows))
    counter = dict(zip(names, [row[0] for row in _makespans(t[1:], [c])]))
    path = _walk(graph, c, t[0])
    res = path.by_resource()
    makespan = path.makespan
    pct = {
        k: (100.0 * v / makespan if makespan > 0 else 0.0)
        for k, v in res.items()
    }
    return {
        "nodes": len(graph),
        "edges": graph.nedges,
        "makespan": makespan,
        "covered": path.covered,
        "coverage": path.coverage,
        "resource_seconds": res,
        "resource_pct": pct,
        "by_rank": {str(k): v for k, v in path.by_rank().items()},
        "by_stage": path.by_stage(),
        "top_segments": [
            {
                "rank": s.rank,
                "stage": s.stage if s.stage is not None else "(unstaged)",
                "label": s.label,
                "kind": s.kind,
                "seconds": s.total(),
                "pct": 100.0 * s.total() / makespan if makespan > 0 else 0.0,
                "components": s.components(),
            }
            for s in path.top_segments(top_k)
        ],
        "counterfactuals": counter,
    }


def aggregate_analyses(analyses: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """Campaign-level attribution across many per-job ``analyze()`` dicts.

    ``analyses`` maps job id -> per-job analysis.  Jobs are independent
    virtual clusters, so campaign totals are sums: total makespan is the
    serialized cost of the campaign's work (wall-clock depends on the
    worker pool, which is host-side and not attributable), and
    resource/stage seconds add because each job's attribution already
    partitions its own makespan.  Percentages are recomputed against the
    summed makespan; ``dominant_jobs`` ranks jobs by makespan share so a
    campaign report can lead with where the virtual time actually went.
    """
    if not analyses:
        return {
            "jobs": 0,
            "total_makespan": 0.0,
            "resource_seconds": dict.fromkeys(RESOURCES, 0.0),
            "resource_pct": dict.fromkeys(RESOURCES, 0.0),
            "by_stage": {},
            "dominant_jobs": [],
        }
    total = sum(a["makespan"] for a in analyses.values())
    res = dict.fromkeys(RESOURCES, 0.0)
    by_stage: dict[str, float] = {}
    for a in analyses.values():
        for k in RESOURCES:
            res[k] += a["resource_seconds"].get(k, 0.0)
        for stage, secs in a["by_stage"].items():
            by_stage[stage] = by_stage.get(stage, 0.0) + secs
    by_stage = dict(sorted(by_stage.items()))
    dominant = sorted(
        analyses.items(), key=lambda kv: kv[1]["makespan"], reverse=True
    )
    return {
        "jobs": len(analyses),
        "total_makespan": total,
        "resource_seconds": res,
        "resource_pct": {
            k: (100.0 * v / total if total > 0 else 0.0)
            for k, v in res.items()
        },
        "by_stage": by_stage,
        "dominant_jobs": [
            {
                "job": job,
                "makespan": a["makespan"],
                "pct": 100.0 * a["makespan"] / total if total > 0 else 0.0,
            }
            for job, a in dominant
        ],
    }


def render_critpath_report(analysis: dict[str, Any]) -> str:
    """Human-readable block for ``trace_report --critical-path``."""
    lines: list[str] = []
    mk = analysis["makespan"]
    lines.append(
        f"Critical path: virtual makespan {mk:.6g} s over "
        f"{analysis['nodes']} events / {analysis['edges']} edges, "
        f"{100.0 * analysis['coverage']:.1f}% attributed"
    )
    pct = analysis["resource_pct"]
    lines.append(
        "  resource shares: "
        + " | ".join(f"{k} {pct[k]:5.1f}%" for k in RESOURCES)
    )
    lines.append("  top path segments (rank, stage, event, resource split):")
    for s in analysis["top_segments"]:
        comp = s["components"]
        dom = max(comp, key=lambda k: comp[k])
        lines.append(
            f"    rank {s['rank']:>4}  {s['stage']:<16} {s['label']:<24} "
            f"{s['seconds']:.4g} s ({s['pct']:.1f}%) mostly {dom}"
        )
    lines.append("  counterfactuals (edge re-weighting, no re-run):")
    lines.append(f"    {'recorded':<24} {mk:.6g} s  1.00x")
    for name, val in analysis["counterfactuals"].items():
        ratio = val / mk if mk > 0 else 1.0
        lines.append(f"    {name:<24} {val:.6g} s  {ratio:.2f}x")
    return "\n".join(lines)
