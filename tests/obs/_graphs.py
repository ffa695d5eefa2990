"""Hand-built event graphs and the whole-graph queries no run makes.

The recorder appends edge rows in target order and runs ask
:func:`repro.obs.critpath.analyze` (and ``swap_network``); the unit
tests build graphs edge by edge, in any order, and ask for the
makespan, the path or one counterfactual alone.  :func:`schema1` reads
a schema-2 artifact with nothing but ``base64`` and ``np.frombuffer``,
into the row dict the frozen oracle (``_critpath_oracle``) reads and
writes.
"""

import base64
from operator import itemgetter

import numpy as np

from repro.obs.critpath import (
    CriticalPath,
    Edge,
    EventGraph,
    _depths,
    _makespans,
    _sweep,
    _walk,
    _whatif_weights,
)


def add_edge(graph: EventGraph, dst: int, edge: Edge) -> Edge:
    """Add ``edge`` into node ``dst``; an edge into an earlier node than
    the last row's re-sorts the rows (stably) and recomputes the depths."""
    src = edge.src
    if not 0 <= src < len(graph.node_t):
        raise ValueError(f"edge source {src} does not exist")
    if src >= dst:
        raise ValueError(f"edge {src} -> {dst} violates topological node order")
    if dst >= len(graph.node_t):
        raise ValueError(f"edge target {dst} does not exist")
    rows = graph.edges
    rows.append((dst, *edge))
    if len(rows) > 1 and dst < rows[-2][0]:
        rows.sort(key=itemgetter(0))
        graph.node_depth = _depths(len(graph), [r[0] for r in rows], [r[1] for r in rows])
    else:
        depth = graph.node_depth
        depth[dst] = max(depth[dst], depth[src] + 1)
    graph._changed()
    return edge


def makespan(graph: EventGraph) -> float:
    """Virtual makespan implied by the edges, from the earliest anchor."""
    c = graph._columns()
    return _makespans(_sweep(c, c.total[None, :]), [c])[0][0]


def critical_path(graph: EventGraph) -> CriticalPath:
    """Longest virtual-time path from any start anchor to the last finish."""
    c = graph._columns()
    return _walk(graph, c, _sweep(c, c.total[None, :])[0])


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


def column(table: dict, name: str, dtype: str) -> np.ndarray:
    """Numeric column ``name`` of a schema-2 node or edge table."""
    return np.frombuffer(base64.b64decode(table[name]), dtype)


def set_column(table: dict, name: str, values: np.ndarray, dtype: str) -> None:
    """Write ``values`` as numeric column ``name`` of a schema-2 table."""
    table[name] = base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode()


def schema1(data: dict) -> dict:
    """A schema-2 artifact as the schema-1 dict (node and edge rows,
    counts int, weights float) that ``_critpath_oracle`` reads and writes."""
    def strings(col):
        return [col["vocab"][i] for i in column(col, "codes", "<i4").tolist()]

    nodes, edges = data["nodes"], data["edges"]
    f = column(edges, "floats", "<f8").reshape(10, -1).tolist()
    node_rows = zip(
        column(nodes, "rank", "<i8").tolist(), strings(nodes["kind"]),
        strings(nodes["label"]), strings(nodes["stage"]), column(nodes, "t", "<f8").tolist(),
    )
    edge_rows = zip(
        column(edges, "dst", "<i8").tolist(), column(edges, "src", "<i8").tolist(), *f[:5],
        strings(edges["kind"]), *f[5:8], column(edges, "n", "<i8").tolist(), *f[8:],
    )
    return {
        "schema": 1,
        "nprocs": data["nprocs"],
        "network": data["network"],
        "nodes": [list(r) for r in node_rows],
        "edges": [list(r) for r in edge_rows],
    }
