"""Frozen oracle: ``repro.obs.critpath`` as it was before the columns.

This is the per-edge implementation the columnar event graph replaced:
an ``Edge`` dataclass per edge, ``in_edges`` lists per node,
``WeightFn`` callbacks and one Python pass over every edge per
longest path.  ``search_makespans`` at the bottom is the pricing loop
of that era's campaign search: one ``swap_network`` pass per (graph,
candidate).
``tests/obs/test_critpath_oracle.py`` holds the new code to it —
artifact bytes, analyses, counterfactuals and search makespans equal.
Nothing here may change; the rest of this docstring is the original.

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

The creation order of nodes is a valid topological order (an edge's
source always exists before its target), so longest-path and
counterfactual re-weighting are single O(V+E) passes — no re-run of
the cluster.

Counterfactuals
---------------
:func:`whatif` re-weights edge components (zero latency, infinite
bandwidth, remove-straggler via per-rank cpu scaling);
:func:`swap_network` re-prices communication edges under a different
:class:`~repro.machines.network.NetworkModel` using the byte counts and
participant counts stashed on each edge.  Both recompute node times in
one pass over the recorded graph.

Charge parity: the recorder reads rank state and appends to its own
lists — it never touches virtual clocks, byte ledgers, the OpCounter,
or sanitizer vector clocks (pinned byte-identical by the tier-1
hypothesis tests, like the tracer and the race detector).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.machines.catalog import MACHINES, NETWORKS
from repro.obs.tracer import current_stage

if TYPE_CHECKING:  # pragma: no cover
    from repro.machines.network import NetworkModel
    from repro.parallel.simmpi import VirtualCluster

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
    "analyze",
    "aggregate_analyses",
    "render_critpath_report",
]

#: The five cost resources every edge decomposes into.
RESOURCES = ("cpu", "overhead", "latency", "bandwidth", "idle")


@dataclass
class Edge:
    """One happens-before edge with its priced cost decomposition.

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


# weight(edge, dst_node_index) -> seconds, for counterfactual passes.
WeightFn = Callable[[Edge, int], float]


class EventGraph:
    """The recorded happens-before DAG of one ``VirtualCluster.run``.

    Node arrays are parallel lists indexed by node id; ``in_edges[i]``
    holds the edges ending at node ``i``.  Node ids are assigned in a
    valid topological order (see module docstring), which
    :meth:`recompute` exploits.
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
        self.in_edges: list[list[Edge]] = []

    def __len__(self) -> int:
        return len(self.node_t)

    @property
    def nedges(self) -> int:
        return sum(len(es) for es in self.in_edges)

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
        self.in_edges.append([])
        return len(self.node_t) - 1

    def add_edge(self, dst: int, edge: Edge) -> Edge:
        if not 0 <= edge.src < len(self.node_t):
            raise ValueError(f"edge source {edge.src} does not exist")
        if edge.src >= dst:
            raise ValueError(
                f"edge {edge.src} -> {dst} violates topological node order"
            )
        self.in_edges[dst].append(edge)
        return edge

    # -- longest-path machinery ------------------------------------------------

    def recompute(self, weight: WeightFn | None = None) -> list[float]:
        """Node times implied by the edges (one pass, creation order).

        Source nodes (no in-edges) keep their recorded anchor — a
        reused cluster's clocks do not restart at zero.  With a
        ``weight`` override this evaluates a counterfactual timing.
        """
        t: list[float] = [0.0] * len(self.node_t)
        for i, edges in enumerate(self.in_edges):
            if not edges:
                t[i] = self.node_t[i]
                continue
            best = None
            for e in edges:
                cand = t[e.src] + (e.total() if weight is None else weight(e, i))
                if best is None or cand > best:
                    best = cand
            t[i] = best if best is not None else self.node_t[i]
        return t

    def makespan(self, weight: WeightFn | None = None) -> float:
        """Virtual makespan implied by the (possibly re-weighted) graph.

        Measured from the earliest source anchor, so graphs recorded on
        reused clusters (nonzero starting clocks) stay comparable.
        """
        t = self.recompute(weight)
        return max(t, default=0.0) - self.t0

    @property
    def t0(self) -> float:
        """Earliest source anchor (0.0 on a fresh cluster)."""
        starts = [
            self.node_t[i] for i, es in enumerate(self.in_edges) if not es
        ]
        return min(starts, default=0.0)

    # -- serialization (campaign artifacts) ------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form of the recorded graph.

        The campaign engine persists each job's graph next to the run
        ledger so ``campaign search`` can re-weight it (``whatif`` /
        ``swap_network``) long after the run, without re-running the
        cluster.  The network rides along by name only — counterfactual
        passes supply their own :class:`NetworkModel`.
        """
        return {
            "schema": 1,
            "nprocs": self.nprocs,
            "network": self.network_name,
            # Numeric fields are normalised (counts int, weights float)
            # so serialising a rebuilt graph is a byte-level fixed point.
            "nodes": [
                [
                    int(self.node_rank[i]),
                    self.node_kind[i],
                    self.node_label[i],
                    self.node_stage[i],
                    float(self.node_t[i]),
                ]
                for i in range(len(self.node_t))
            ],
            "edges": [
                [
                    int(dst),
                    int(e.src),
                    float(e.cpu),
                    float(e.overhead),
                    float(e.latency),
                    float(e.bandwidth),
                    float(e.idle),
                    e.kind,
                    float(e.nbytes),
                    float(e.ebytes),
                    float(e.obytes),
                    int(e.n),
                    float(e.stretch),
                    float(e.factor),
                ]
                for dst, edges in enumerate(self.in_edges)
                for e in edges
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EventGraph":
        """Rebuild a graph serialised by :meth:`to_dict`."""
        if data.get("schema") != 1:
            raise ValueError(
                f"unknown event-graph schema {data.get('schema')!r}"
            )
        g = cls(int(data["nprocs"]))
        g._network_name = data.get("network")
        for rank, kind, label, stage, t in data["nodes"]:
            g.add_node(int(rank), str(kind), str(label), float(t), stage)
        for dst, src, cpu, ovh, lat, bw, idle, kind, nb, eb, ob, n, st, fa in data[
            "edges"
        ]:
            g.add_edge(
                int(dst),
                Edge(
                    src=int(src),
                    cpu=float(cpu),
                    overhead=float(ovh),
                    latency=float(lat),
                    bandwidth=float(bw),
                    idle=float(idle),
                    kind=str(kind),
                    nbytes=float(nb),
                    ebytes=float(eb),
                    obytes=float(ob),
                    n=int(n),
                    stretch=float(st),
                    factor=float(fa),
                ),
            )
        return g

    def validate(self, rel: float = 1e-6) -> None:
        """Assert recorded anchors match edge-implied times.

        Tolerates float re-association between the simulator's
        incremental clock updates and the single-pass summation here.
        """
        t = self.recompute()
        span = max(abs(x) for x in self.node_t) if self.node_t else 1.0
        tol = rel * max(1e-30, span)
        for i, (got, want) in enumerate(zip(t, self.node_t)):
            if abs(got - want) > tol:
                raise AssertionError(
                    f"node {i} ({self.node_kind[i]} "
                    f"'{self.node_label[i]}' rank {self.node_rank[i]}): "
                    f"edge-implied t={got!r} vs recorded t={want!r}"
                )


# ---------------------------------------------------------------------------
# Recorder (the simmpi hook surface)
# ---------------------------------------------------------------------------


class _Pending:
    """Wall-clock components a rank accrued since its last node.

    Sender-side wire occupancy, protocol overhead and RTO/timeout idle
    land on the *next* local edge; ``ebytes``/``obytes`` ride along for
    counterfactual re-pricing.
    """

    __slots__ = ("bandwidth", "overhead", "idle", "ebytes", "obytes")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.bandwidth = 0.0
        self.overhead = 0.0
        self.idle = 0.0
        self.ebytes = 0.0
        self.obytes = 0.0

    def total(self) -> float:
        return self.bandwidth + self.overhead + self.idle


class CritPathRecorder:
    """Observer recording the event graph of one ``VirtualCluster.run``.

    Attach via ``VirtualCluster(..., critpath=recorder)``; after the
    run, ``recorder.graph`` holds the priced DAG.  A new ``run()``
    starts a fresh graph.  Hooks are called from rank threads; the
    scheduler runs one rank at a time, so the lock is uncontended.
    """

    def __init__(self) -> None:
        self.graph: EventGraph | None = None
        self._lock = threading.Lock()
        self._last: list[int] = []
        self._pending: list[_Pending] = []
        # send node -> (latency, wire, rto_idle, nbytes, factor) of the
        # in-flight message; consumed by the matching recv.
        self._msg: dict[int, tuple[float, float, float, float, float]] = {}
        # collective key -> list of (arrival node, rank)
        self._arrivals: dict[tuple[str, int], list[tuple[int, int]]] = {}
        # collective key -> (release node, remaining releases)
        self._release: dict[tuple[str, int], list[int]] = {}

    # -- run lifecycle ---------------------------------------------------------

    def on_run_begin(self, cluster: "VirtualCluster") -> None:
        with self._lock:
            g = EventGraph(cluster.nprocs, cluster.network)
            self.graph = g
            self._msg.clear()
            self._arrivals.clear()
            self._release.clear()
            self._pending = [_Pending() for _ in range(cluster.nprocs)]
            self._last = [
                g.add_node(r, "start", "start", cluster.ranks[r].wall)
                for r in range(cluster.nprocs)
            ]

    def on_run_finish(self, cluster: "VirtualCluster") -> None:
        with self._lock:
            g = self.graph
            if g is None:
                return
            for r in range(cluster.nprocs):
                node = g.add_node(r, "finish", "finish", cluster.ranks[r].wall)
                self._close_segment(r, node, cluster.ranks[r].wall)

    def _close_segment(
        self,
        rank: int,
        node: int,
        t_busy_end: float,
        extra_overhead: float = 0.0,
        extra_obytes: float = 0.0,
    ) -> None:
        """Local edge last[rank] -> node (lock held).

        ``t_busy_end`` is the rank's wall before any blocking at this
        event, so the residual after pending components is pure compute;
        ``extra_overhead`` folds in receiver-side protocol cost charged
        after the blocking point.
        """
        g = self.graph
        assert g is not None
        last = self._last[rank]
        p = self._pending[rank]
        cpu = max(0.0, t_busy_end - g.node_t[last] - p.total())
        g.add_edge(
            node,
            Edge(
                src=last,
                cpu=cpu,
                overhead=p.overhead + extra_overhead,
                bandwidth=p.bandwidth,
                idle=p.idle,
                kind="local",
                ebytes=p.ebytes,
                obytes=p.obytes + extra_obytes,
            ),
        )
        p.clear()
        self._last[rank] = node

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
        with self._lock:
            g = self.graph
            assert g is not None
            node = g.add_node(
                rank, "send", f"send->{dest} tag={tag}", t_start, current_stage()
            )
            self._close_segment(rank, node, t_start)
            # Message-edge split: ready = t_start + delay + factor *
            # send_time(nbytes); the wire term is factor * nbytes/bw,
            # the remainder is latency (plus any rendezvous handshake).
            self._msg[node] = (
                ready - t_start - delay - wire,
                wire,
                delay,
                nbytes,
                factor,
            )
            # Sender-side wall costs accrue onto the next local edge:
            # wire occupancy for each copy, protocol CPU (plus kernel
            # resend copies), RTO backoff as idle.
            p = self._pending[rank]
            p.bandwidth += wire * (1 + nret)
            p.overhead += overhead + resend_cpu
            p.idle += delay
            p.ebytes += factor * nbytes * (1 + nret)
            p.obytes += nbytes * (1 + nret)
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
        with self._lock:
            g = self.graph
            assert g is not None
            node = g.add_node(
                rank, "recv", f"recv<-{source} tag={tag}", t_after, current_stage()
            )
            self._close_segment(
                rank, node, t_busy_end,
                extra_overhead=overhead, extra_obytes=nbytes,
            )
            if send_node is not None:
                lat, wire, delay, mbytes, factor = self._msg.pop(send_node)
                g.add_edge(
                    node,
                    Edge(
                        src=send_node,
                        latency=lat,
                        bandwidth=wire,
                        idle=delay,
                        overhead=overhead,
                        kind="message",
                        nbytes=mbytes,
                        ebytes=factor * mbytes,
                        obytes=mbytes,
                        factor=factor,
                    ),
                )

    def on_wait_burn(self, rank: int, seconds: float) -> None:
        """An expired virtual recv timeout burned wall time as idle."""
        with self._lock:
            if self.graph is not None:
                self._pending[rank].idle += seconds

    # -- collectives -----------------------------------------------------------

    def on_collective_arrive(
        self, key: tuple[str, int], rank: int, t_arrive: float
    ) -> None:
        with self._lock:
            g = self.graph
            assert g is not None
            label = f"{key[0]}#{key[1]}"
            node = g.add_node(rank, "arrive", label, t_arrive, current_stage())
            self._close_segment(rank, node, t_arrive)
            self._arrivals.setdefault(key, []).append((node, rank))

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
        with self._lock:
            g = self.graph
            assert g is not None
            label = f"{key[0]}#{key[1]}"
            sync = g.add_node(-1, "sync", label, t_start)
            for node, _rank in self._arrivals.pop(key, []):
                g.add_edge(sync, Edge(src=node, kind="sync"))
            release = g.add_node(-1, "release", label, t_done)
            g.add_edge(
                release,
                Edge(
                    src=sync,
                    cpu=components.get("cpu", 0.0),
                    overhead=components.get("overhead", 0.0),
                    latency=components.get("latency", 0.0),
                    bandwidth=components.get("bandwidth", 0.0),
                    idle=components.get("idle", 0.0),
                    kind=str(meta.get("kind", key[0])),
                    nbytes=float(meta.get("nbytes", 0.0)),
                    ebytes=float(meta.get("ebytes", 0.0)),
                    obytes=float(meta.get("obytes", 0.0)),
                    n=int(meta.get("n", g.nprocs)),
                    stretch=float(meta.get("stretch", 1.0)),
                ),
            )
            self._release[key] = [release, g.nprocs]

    def on_collective_release(self, key: tuple[str, int], rank: int) -> None:
        with self._lock:
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
    t = graph.recompute()
    if not t:
        return CriticalPath(graph, 0.0)
    sink = max(range(len(t)), key=lambda i: (t[i], i))
    makespan = t[sink] - graph.t0

    # Backward walk over binding in-edges.
    chain: list[tuple[int, Edge]] = []  # (dst, edge), sink-first
    node = sink
    while graph.in_edges[node]:
        best: Edge | None = None
        best_key: tuple[float, float, int] | None = None
        for e in graph.in_edges[node]:
            key = (t[e.src] + e.total(), e.total(), -e.src)
            if best_key is None or key > best_key:
                best, best_key = e, key
        assert best is not None
        chain.append((node, best))
        node = best.src
    chain.reverse()  # source -> sink order

    # Resolve rank/stage along the walk: sync/release nodes are global
    # (rank -1); they inherit from the most recent ranked node on the
    # path — the binding arrival.
    segments: list[PathSegment] = []
    cur_rank = graph.node_rank[node] if graph.node_rank else 0
    cur_stage = graph.node_stage[node] if graph.node_stage else None
    for dst, e in chain:
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
                start=t[e.src],
                edge=e,
            )
        )
    return CriticalPath(graph, makespan, segments)


# ---------------------------------------------------------------------------
# Counterfactuals: re-weight edges, never re-run the cluster
# ---------------------------------------------------------------------------


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

    def weight(e: Edge, dst: int) -> float:
        cs = cpu_scale
        if rank_cpu_scale is not None:
            cs *= rank_cpu_scale.get(graph.node_rank[dst], 1.0)
        return (
            e.cpu * cs
            + e.overhead * overhead_scale
            + e.latency * latency_scale
            + e.bandwidth * bandwidth_scale
            + e.idle * idle_scale
        )

    return graph.makespan(weight)


def _swap_collective(e: Edge, new: "NetworkModel", lossy: bool) -> float:
    """Re-priced collective release edge under ``new``."""
    try:
        # ``stretch`` is 1.0 (exact) on everything but a degraded Alltoall.
        base = e.stretch * new.collective_time(e.kind, e.n, int(e.nbytes))
    except ValueError:
        # A deserialised graph may carry a kind the table does not
        # price: keep the recorded wire cost, re-price the overhead.
        base = e.latency + e.bandwidth
    cost = base + new.cpu_time_for_bytes(e.obytes)
    if lossy:
        # Keep the recorded RTO draws; resend wire re-priced to the new
        # link speed.
        cost += e.idle + e.ebytes / new.bandwidth
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
    lossy = new.cpu_overhead_per_byte > 0.0

    def weight(e: Edge, dst: int) -> float:
        if e.kind == "local":
            cost = e.cpu * cpu_scale + e.ebytes / new.bandwidth
            cost += new.cpu_time_for_bytes(e.obytes)
            if lossy:
                cost += e.idle
            return cost
        if e.kind == "message":
            nbytes = int(e.nbytes)
            lat = e.factor * (new.send_time(nbytes) - nbytes / new.bandwidth)
            cost = lat + e.ebytes / new.bandwidth
            cost += new.cpu_time_for_bytes(e.obytes)
            if lossy:
                cost += e.idle
            return cost
        if e.kind == "sync":
            return 0.0
        return _swap_collective(e, new, lossy)

    return graph.makespan(weight)


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
    """
    path = critical_path(graph)
    res = path.by_resource()
    makespan = path.makespan
    pct = {
        k: (100.0 * v / makespan if makespan > 0 else 0.0)
        for k, v in res.items()
    }
    counter: dict[str, float] = {
        "zero_latency": whatif(graph, latency_scale=0.0),
        "infinite_bandwidth": whatif(graph, bandwidth_scale=0.0),
        "zero_overhead": whatif(graph, overhead_scale=0.0),
        "zero_idle": whatif(graph, idle_scale=0.0),
    }
    if straggler_scale:
        counter["remove_straggler"] = whatif(
            graph, rank_cpu_scale=straggler_scale
        )
    if swap_nets:
        for name, net in swap_nets.items():
            counter[f"swap:{name}"] = swap_network(graph, net)
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


# ---------------------------------------------------------------------------
# Campaign search (``repro.campaign.search.search_catalog``'s pricing loop)
# ---------------------------------------------------------------------------


def search_makespans(
    entries: list[dict[str, Any]], candidates: tuple[dict[str, Any], ...]
) -> list[float]:
    """Predicted campaign makespan per candidate, cheapest first: one
    ``swap_network`` pass per (entry, candidate), summed in entry order."""
    out = []
    for cand in sorted(candidates, key=lambda c: c["price_per_proc"]):
        new_net = NETWORKS[cand["network"]]
        total = 0.0
        for entry in entries:
            ref = MACHINES[entry["config"]["machine"]].cpu.app_mflops
            scale = ref / MACHINES[cand["machine"]].cpu.app_mflops
            total += swap_network(entry["graph"], new_net, cpu_scale=scale)
        out.append(total)
    return out
