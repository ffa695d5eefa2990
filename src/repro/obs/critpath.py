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
The recorder appends plain edge rows ``(dst, *Edge)`` and each node's
*depth*, 1 + the largest depth among its in-edge sources; sources
exist before their targets, so depths fall out of ingest.  The first
pricing or serialisation turns the rows into numpy columns and a plan:
edges grouped by target depth, sorted by target within a depth.
Every longest path is then one level-synchronous sweep
(:func:`_sweep`) over a ``(k, E)`` weight matrix — per depth,
``t[:, tgt] = max.reduceat(t[:, src] + W[:, edges])`` — so ``k``
counterfactuals cost one pass: :func:`analyze` prices the recorded run
and its standard counterfactuals together, and :func:`swap_makespans`
prices every (graph, fabric) pair of a campaign search at once.  Each
weight row is column arithmetic in the order the per-edge formulas
always used, and the max over sums is the same max, so node times are
bit for bit what a Python pass over the edges gives.

Counterfactuals
---------------
:func:`analyze` re-weights edge components (zero latency, infinite
bandwidth, remove-straggler via per-rank cpu scaling);
:func:`swap_network` re-prices communication edges under a different
:class:`~repro.machines.network.NetworkModel` using the byte counts and
participant counts stashed on each edge — no re-run of the cluster.

Charge parity holds by construction: the recorder builds the graph
after the ranks are done, by replaying the cluster's event log
(``VirtualCluster.event_log``, one row per priced event, in host
order), so nothing it does can reach the run's clocks, byte ledgers or
OpCounter.  The same graph is the race sanitizer's happens-before order:
``VirtualCluster(sanitize=True)`` attaches a recorder, and
:func:`repro.parallel.sanitizer.happens_before` derives vector clocks
from its node kinds and edges.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import TYPE_CHECKING, Any, NamedTuple, Sequence

import numpy as np

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
    "swap_network",
    "swap_makespans",
    "analyze",
    "aggregate_analyses",
    "render_critpath_report",
]

#: The five cost resources every edge decomposes into.
RESOURCES = ("cpu", "overhead", "latency", "bandwidth", "idle")


class Edge(NamedTuple):
    """One happens-before edge: an edge row without its target.

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


#: An edge row is ``(dst, *Edge)``.
EDGE_WIDTH = 1 + len(Edge._fields)
#: The float edge fields, in schema order: ``_Columns.floats`` and the
#: rows of a serialised graph's ``floats`` block.
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
    topological order); ``edges`` holds edge rows
    ``(dst, src, cpu, overhead, latency, bandwidth, idle, kind, nbytes,
    ebytes, obytes, n, stretch, factor)``, in target order (the recorder
    and :meth:`from_dict` append them that way).  A graph read by
    :meth:`from_dict` holds columns only and lists its rows again when
    someone asks for them.
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
        self._cols: _Columns | None = None

    def __len__(self) -> int:
        return len(self.node_t)

    @property
    def edges(self) -> list[tuple]:
        """The edge rows, in target order (listed from the columns of a
        graph read by :meth:`from_dict`: counts int, weights float)."""
        if self._edges is None:
            c = self._cols
            f = [col.tolist() for col in c.floats]
            self._edges = list(zip(
                c.dst.tolist(), c.src.tolist(), *f[:5], c.kind, *f[5:8], c.n.tolist(), *f[8:]
            ))
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

    def _changed(self) -> None:
        """Drop the columns, listing the rows first if they stood in for
        them."""
        if self._cols is not None:
            self._edges = self.edges
            self._cols = None

    def _columns(self) -> "_Columns":
        """The graph's numpy columns and sweep plan, built once."""
        if self._cols is None:
            self._cols = _Columns.of_rows(self)
        return self._cols

    # -- serialization (campaign artifacts) ------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form of the recorded graph (schema 2).

        The campaign engine persists each job's graph next to the run
        ledger so ``campaign search`` can re-weight it (``analyze`` /
        ``swap_network``) long after the run, without re-running the
        cluster.  The network rides along by name only — counterfactual
        passes supply their own :class:`NetworkModel`.

        Every column is one string: a numeric one is the base64 of its
        little-endian ``<i8`` / ``<f8`` bytes (the ten float edge fields
        as one ``(10, E)`` block, rows in schema order), so floats
        round-trip bit for bit; a string one is ``{"vocab", "codes"}``,
        its distinct values in order of first appearance and a base64
        ``<i4`` index per row.  Serialising a rebuilt graph is therefore
        a byte-level fixed point.
        """
        c = self._columns()
        return {
            "schema": 2,
            "nprocs": self.nprocs,
            "network": self.network_name,
            "nodes": {
                "rank": _encode(c.rank, "<i8"),
                "t": _encode(c.t, "<f8"),
                "kind": _encode_strings(self.node_kind),
                "label": _encode_strings(self.node_label),
                "stage": _encode_strings(self.node_stage),
            },
            "edges": {
                "dst": _encode(c.dst, "<i8"),
                "src": _encode(c.src, "<i8"),
                "n": _encode(c.n, "<i8"),
                "floats": _encode(np.stack(c.floats), "<f8"),
                "kind": _encode_strings(c.kind),
            },
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EventGraph":
        """Rebuild a graph serialised by :meth:`to_dict`.

        Malformed input is a ``ValueError`` naming what is wrong: the
        header field, the column (missing, not base64, not whole items,
        a length other than its table's, a code outside its vocabulary)
        or, for an edge that names a missing node or points backwards,
        the row.
        """
        schema = data.get("schema") if isinstance(data, dict) else None
        if type(schema) is not int or schema != 2:
            raise ValueError(f"unknown event-graph schema {schema!r}")
        try:
            nprocs, network, nodes, edges = (
                data[key] for key in ("nprocs", "network", "nodes", "edges")
            )
        except KeyError as exc:
            raise ValueError(f"event graph header: {exc.args[0]!r} is missing") from None
        if type(nprocs) is not int or not (network is None or isinstance(network, str)):
            raise ValueError(f"event graph header: nprocs {nprocs!r} / network {network!r}")
        if not (isinstance(nodes, dict) and isinstance(edges, dict)):
            raise ValueError("event graph header: nodes and edges are not column tables")
        rank = _decode(nodes, "rank", "node column 'rank'", "<i8")
        t = _decode(nodes, "t", "node column 't'", "<f8")
        kinds = _decode_strings(nodes, "kind", "node column 'kind'")
        labels = _decode_strings(nodes, "label", "node column 'label'")
        stages = _decode_strings(nodes, "stage", "node column 'stage'", none=True)
        _same_length("node", rank=rank, t=t, kind=kinds[1], label=labels[1], stage=stages[1])
        dst = _decode(edges, "dst", "edge column 'dst'", "<i8")
        src = _decode(edges, "src", "edge column 'src'", "<i8")
        n = _decode(edges, "n", "edge column 'n'", "<i8")
        f = _decode(edges, "floats", "edge column 'floats'", "<f8")
        vocab, codes = _decode_strings(edges, "kind", "edge column 'kind'")
        _same_length("edge", dst=dst, src=src, n=n, kind=codes)
        if len(f) != len(_FLOAT_FIELDS) * len(dst):
            raise ValueError(
                f"event graph edge column 'floats' has {len(f)} values, not "
                f"{len(_FLOAT_FIELDS)} per edge for {len(dst)} edges"
            )
        f = f.reshape(len(_FLOAT_FIELDS), len(dst))
        bad = np.flatnonzero((src < 0) | (src >= dst) | (dst >= len(t)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"event graph edge row {i}: {src[i]} -> {dst[i]} is not an "
                f"edge between existing nodes in topological order"
            )
        if np.any(dst[1:] < dst[:-1]):  # regroup in-edges by target
            order = np.argsort(dst, kind="stable")
            dst, src, f, n, codes = dst[order], src[order], f[:, order], n[order], codes[order]
        g = cls(nprocs)
        g._network_name = network
        g.node_rank, g.node_t = rank.tolist(), t.tolist()
        g.node_kind, g.node_label, g.node_stage = (
            _strings(*kinds), _strings(*labels), _strings(*stages)
        )
        g.node_depth = _depths(len(t), dst.tolist(), src.tolist())
        g._edges = None
        code = np.array([_KIND_CODE.get(k, 3) for k in vocab], dtype=np.int8)[codes]
        g._cols = _Columns(
            t, rank, np.array(g.node_depth, dtype=np.int64), dst, src, tuple(f), n,
            tuple(_strings(vocab, codes)), code,
        )
        return g

    def validate(self) -> None:
        """Assert recorded anchors match edge-implied times.

        Tolerates float re-association between the simulator's
        incremental clock updates and the single-pass summation here
        (1e-6 of the latest anchor).
        """
        c = self._columns()
        t = _sweep(c, c.total[None, :])[0]
        span = float(np.abs(c.t).max()) if len(self) else 1.0
        tol = 1e-6 * max(1e-30, span)
        bad = np.flatnonzero(np.abs(t - c.t) > tol)
        if bad.size:
            i = int(bad[0])
            raise AssertionError(
                f"node {i} ({self.node_kind[i]} "
                f"'{self.node_label[i]}' rank {self.node_rank[i]}): "
                f"edge-implied t={float(t[i])!r} vs recorded t={self.node_t[i]!r}"
            )


def _encode(a: np.ndarray, dtype: str) -> str:
    """A numeric column as the base64 of its ``dtype`` bytes."""
    return base64.b64encode(np.ascontiguousarray(a, dtype=dtype).tobytes()).decode("ascii")


def _encode_strings(col: Sequence[str | None]) -> dict[str, Any]:
    """A string column as its vocabulary, in order of first appearance,
    and one ``<i4`` code per row."""
    index: dict[str | None, int] = {}
    codes = [index.setdefault(v, len(index)) for v in col]
    return {"vocab": list(index), "codes": _encode(np.array(codes), "<i4")}


def _decode(table: dict, key: str, where: str, dtype: str) -> np.ndarray:
    """``table[key]``, the base64 of a ``dtype`` column, as a read-only
    array; ``where`` names the column in errors."""
    if key not in table:
        raise ValueError(f"event graph {where} is missing")
    try:
        raw = base64.b64decode(table[key], validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise ValueError(f"event graph {where} is not base64: {exc}") from None
    size = np.dtype(dtype).itemsize
    if len(raw) % size:
        raise ValueError(
            f"event graph {where}: {len(raw)} bytes are not whole {size}-byte items"
        )
    return np.frombuffer(raw, dtype)


def _decode_strings(
    table: dict, key: str, where: str, none: bool = False
) -> tuple[list, np.ndarray]:
    """``table[key]``, a string column, as its vocabulary and codes;
    ``none`` admits a null value."""
    col = table.get(key)
    if not (isinstance(col, dict) and isinstance(col.get("vocab"), list)):
        raise ValueError(f"event graph {where} is not a vocab/codes table")
    vocab = col["vocab"]
    if not all(isinstance(v, str) or (none and v is None) for v in vocab):
        raise ValueError(f"event graph {where} has a vocabulary entry that is not a string")
    codes = _decode(col, "codes", f"{where} codes", "<i4")
    bad = np.flatnonzero((codes < 0) | (codes >= len(vocab)))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"event graph {where} row {i}: code {codes[i]} is outside its "
            f"vocabulary of {len(vocab)}"
        )
    return vocab, codes


def _same_length(what: str, **cols: np.ndarray) -> None:
    """Every column of a table has one length."""
    sizes = {name: len(col) for name, col in cols.items()}
    if len(set(sizes.values())) > 1:
        raise ValueError(f"event graph {what} columns differ in length: {sizes}")


def _strings(vocab: list, codes: np.ndarray) -> list:
    """A decoded string column."""
    return list(map(vocab.__getitem__, codes.tolist()))


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
# Recorder (a replay of the cluster's event log)
# ---------------------------------------------------------------------------


class CritPathRecorder:
    """Observer recording the event graph of one ``VirtualCluster.run``.

    Attach via ``VirtualCluster(..., critpath=recorder)``; after the
    run, ``recorder.graph`` holds the priced DAG.  A new ``run()``
    starts a fresh graph.  The cluster calls :meth:`on_run_begin` before
    its ranks start and :meth:`on_run_finish` after they are done, which
    replays the run's event log (``VirtualCluster.event_log``) row by
    row, in host order; each row appends node columns and plain edge
    rows; nothing per edge is an object.
    """

    def __init__(self) -> None:
        self.graph: EventGraph | None = None
        self._last: list[int] = []
        # Per rank, the wall-clock components accrued since its last
        # node, [bandwidth, overhead, idle, ebytes, obytes]: sender-side
        # wire occupancy, protocol overhead and RTO/timeout idle land on
        # the *next* local edge.
        self._pending: list[list[float]] = []
        # send row -> (send node, latency, wire, rto_idle, nbytes,
        # factor) of the in-flight message; consumed by the matching recv.
        self._msg: dict[int, tuple[int, float, float, float, float, float]] = {}
        # collective key -> arrival nodes
        self._arrivals: dict[tuple[str, int], list[int]] = {}
        # collective key -> (release node, remaining releases)
        self._release: dict[tuple[str, int], list[int]] = {}
        # Declared shared accesses of a sanitized run, in host order:
        # (rank, rank's last node, op, name, site, key).  Not part of
        # the graph; ``repro.parallel.sanitizer`` reads them with it.
        self.accesses: list[tuple] = []

    # -- run lifecycle ---------------------------------------------------------

    def on_run_begin(self, cluster: "VirtualCluster") -> None:
        g = EventGraph(cluster.nprocs, cluster.network)
        self.graph = g
        self._msg.clear()
        self._arrivals.clear()
        self._release.clear()
        self.accesses = []
        self._pending = [[0.0] * 5 for _ in range(cluster.nprocs)]
        self._last = [
            g.add_node(r, "start", "start", cluster.ranks[r].wall)
            for r in range(cluster.nprocs)
        ]

    def on_run_finish(self, cluster: "VirtualCluster") -> None:
        """Replay the run's event log, then close every rank's final
        compute segment (crashed ranks' at their crash clocks)."""
        g = self.graph
        if g is None:
            return
        replay = {
            "recv": self._recv,
            "timeout": self._timeout,
            "arrive": self._arrive,
            "complete": self._complete,
            "release": self._released,
            "access": self._access,
        }
        for i, (what, *fields) in enumerate(cluster.event_log or ()):
            if what == "send":
                self._msg[i] = self._send(*fields)
            elif what in replay:
                replay[what](*fields)
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

    def _send(
        self, rank, stage, dest, tag, nbytes, t_start, ready, wire, overhead,
        nret, delay, factor, resend_cpu, _t_after,
    ) -> tuple:
        """A send node; returns the message the matching recv consumes."""
        node = self._event(rank, "send", f"send->{dest} tag={tag}", t_start, t_start, stage)
        # Sender-side wall costs accrue onto the next local edge: wire
        # occupancy for each copy, protocol CPU (plus kernel resend
        # copies), RTO backoff as idle.
        p = self._pending[rank]
        p[0] += wire * (1 + nret)
        p[1] += overhead + resend_cpu
        p[2] += delay
        p[3] += factor * nbytes * (1 + nret)
        p[4] += nbytes * (1 + nret)
        # Message-edge split: ready = t_start + delay + factor *
        # send_time(nbytes); the wire term is factor * nbytes/bw,
        # the remainder is latency (plus any rendezvous handshake).
        return (node, ready - t_start - delay - wire, wire, delay, nbytes, factor)

    def _recv(
        self, rank, stage, source, tag, nbytes, _t_entry, t_busy_end, t_after,
        overhead, _waited, _bwf, send_row,
    ) -> None:
        msg = None if send_row is None else self._msg.pop(send_row)
        node = self._event(
            rank, "recv", f"recv<-{source} tag={tag}", t_after, t_busy_end,
            stage, overhead, nbytes, None if msg is None else msg[0],
        )
        if msg is not None:
            send_node, lat, wire, delay, mbytes, factor = msg
            self.graph.edges.append((
                node, send_node, 0.0, overhead, lat, wire, delay, "message",
                mbytes, factor * mbytes, mbytes, 0, 1.0, factor,
            ))

    def _access(self, rank: int, op: str, name: str, site: str, key: int) -> None:
        """A declared shared access, placed after the rank's last node."""
        self.accesses.append((rank, self._last[rank], op, name, site, key))

    def _timeout(self, rank, _source, _tag, _t0, timeout, _attempt) -> None:
        """An expired virtual recv timeout burned wall time as idle."""
        self._pending[rank][2] += timeout

    # -- collectives -----------------------------------------------------------

    def _arrive(self, rank: int, stage: str | None, kind: str, seq: int, t: float) -> None:
        node = self._event(rank, "arrive", f"{kind}#{seq}", t, t, stage)
        self._arrivals.setdefault((kind, seq), []).append(node)

    def _complete(
        self,
        kind: str,
        seq: int,
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
        label = f"{kind}#{seq}"
        arrivals = self._arrivals.pop((kind, seq), [])
        sync = g.add_node(-1, "sync", label, t_start)
        g.edges.extend([(sync, a, *_SYNC_TAIL) for a in arrivals])
        if arrivals:
            depth[sync] = 1 + max([depth[a] for a in arrivals])
        release = g.add_node(-1, "release", label, t_done)
        depth[release] = depth[sync] + 1
        g.edges.append((
            release, sync, *(components.get(r, 0.0) for r in RESOURCES),
            str(meta.get("kind", kind)),
            *(float(meta.get(f, 0.0)) for f in ("nbytes", "ebytes", "obytes")),
            int(meta.get("n", g.nprocs)), float(meta.get("stretch", 1.0)), 1.0,
        ))
        self._release[kind, seq] = [release, g.nprocs]

    def _released(self, rank: int, kind: str, seq: int, *_span) -> None:
        entry = self._release[kind, seq]  # its completion row came first
        self._last[rank] = entry[0]
        entry[1] -= 1
        if entry[1] <= 0:
            del self._release[kind, seq]


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
    """One weight row per set of component scalings (``cpu_scale=``,
    ``latency_scale=``, ...): each component times its scale, summed in
    resource order."""
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
) -> dict[str, Any]:
    """Critical path + attribution + standard counterfactual suite.

    Returns a JSON-able dict (every quantity is virtual-clock derived,
    hence deterministic and regression-gateable).  ``swap_nets`` maps
    display name -> NetworkModel for fabric-swap counterfactuals;
    ``straggler_scale`` maps rank -> cpu scale for remove-straggler.
    ``top_segments`` lists the path's eight longest segments.
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
            for s in path.top_segments(8)
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
