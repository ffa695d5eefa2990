"""Hostile schema-2 graph artifacts end in ``ValueError``, never another
exception, and ``campaign search`` turns them into exit 2 naming the file.

One recorded artifact (messages, a lossy Alltoall, an allreduce: every
edge kind) is mutated the ways a torn write, a hand edit or a stray
tool could leave it: a key dropped or retyped, bad base64, a column
cut by one byte or one item or grown by one, a code outside its
vocabulary, an edge pointing backwards or at a missing node.  Each
mutation is one the reader must refuse; the error names the column, or
the row for an edge.
"""

import base64
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import campaign
from repro.machines.catalog import NETWORKS
from repro.obs.critpath import CritPathRecorder, EventGraph
from repro.parallel.faults import FaultPlan
from repro.parallel.simmpi import VirtualCluster
from repro.util.cli import EXIT_USAGE

from ._graphs import column, schema1, set_column

#: Numeric columns and their dtypes, per table.
NUMBERS = {
    "nodes": {"rank": "<i8", "t": "<f8"},
    "edges": {"dst": "<i8", "src": "<i8", "n": "<i8", "floats": "<f8"},
}
STRINGS = {"nodes": ("kind", "label", "stage"), "edges": ("kind",)}
#: A value of every JSON type, to retype a key with.
VALUES = (None, True, 3, 1.5, "AAAA", [], {})


def _program(comm):
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    comm.compute(1e-4)
    comm.send(right, np.ones(24), tag=1)
    comm.recv(left, tag=1, timeout=5.0, retries=2)
    comm.alltoall([np.ones(8 + d) for d in range(comm.size)])
    return comm.allreduce(1.0)


@lru_cache(maxsize=None)
def recorded() -> str:
    """The artifact bytes of one recorded run."""
    rec = CritPathRecorder()
    VirtualCluster(
        4, NETWORKS["RoadRunner, eth-internode"],
        faults=FaultPlan(seed=3, loss_rate=0.2),
        critpath=rec,
    ).run(_program)
    return json.dumps(rec.graph.to_dict(), sort_keys=True)


def _retype(value):
    """Every JSON value of another type (``None`` too, unless it is)."""
    return st.sampled_from([v for v in VALUES if type(v) is not type(value)])


@st.composite
def damaged(draw, artifact: str):
    """(``artifact`` damaged once, words the error must contain)."""
    data = json.loads(artifact)
    table = draw(st.sampled_from(["nodes", "edges"]))
    cols = data[table]
    what = table[:-1]
    nnodes = len(column(data["nodes"], "t", "<f8"))
    how = draw(st.sampled_from([
        "drop-header", "retype-header", "drop-column", "retype-column", "bad-base64",
        "cut-byte", "cut-item", "grow-item", "drop-vocab", "retype-vocab", "bad-code",
        "backward-edge", "dangling-edge",
    ]))
    if how == "drop-header":
        del data[draw(st.sampled_from(["schema", "nprocs", "network", "nodes", "edges"]))]
        return data, "event"
    if how == "retype-header":
        key = draw(st.sampled_from(["schema", "nprocs", "network", "nodes", "edges"]))
        value = draw(_retype(data[key]).filter(lambda v: key != "network" or v is not None))
        data[key] = value
        return data, "event"
    if how in ("backward-edge", "dangling-edge"):  # not forward between existing nodes
        dst = column(data["edges"], "dst", "<i8")
        row = draw(st.integers(0, len(dst) - 1))
        if how == "backward-edge":
            src = column(data["edges"], "src", "<i8").copy()
            src[row] = dst[row] + draw(st.integers(0, 3))
            set_column(data["edges"], "src", src, "<i8")
        else:
            target = dst.copy()
            target[row] = nnodes + draw(st.integers(0, 3))
            set_column(data["edges"], "dst", target, "<i8")
        return data, f"edge row {row}"
    vocab_damage = how in ("drop-vocab", "retype-vocab", "bad-code")
    names = list(STRINGS[table]) if vocab_damage else sorted(NUMBERS[table]) + list(STRINGS[table])
    name = draw(st.sampled_from(names))
    words = f"{what} column {name!r}"
    strings = name in STRINGS[table]
    if how == "drop-column":
        del cols[name]
        return data, words
    if how == "retype-column":
        cols[name] = draw(_retype(cols[name]))
        return data, words
    if vocab_damage:
        vocab = cols[name]["vocab"]
        i = draw(st.integers(0, len(vocab) - 1))
        if how == "drop-vocab":  # every entry is used, so the last code dangles
            del vocab[i]
        elif how == "retype-vocab":
            ok = (str, type(None)) if name == "stage" else (str,)
            vocab[i] = draw(st.sampled_from([v for v in VALUES if not isinstance(v, ok)]))
        else:
            codes = column(cols[name], "codes", "<i4").copy()
            codes[draw(st.integers(0, len(codes) - 1))] = draw(
                st.sampled_from([-1, len(vocab), 2**31 - 1, -(2**31)])
            )
            set_column(cols[name], "codes", codes, "<i4")
        return data, words
    holder, key = (cols[name], "codes") if strings else (cols, name)
    text = holder[key]
    raw = base64.b64decode(text)
    size = 4 if strings else 8
    if how == "bad-base64":
        i = draw(st.integers(0, len(text) - 1))
        holder[key] = draw(st.sampled_from([
            text[:i] + draw(st.sampled_from("!*.-_ é")) + text[i + 1:],
            text[:-1],  # no longer whole quanta
        ]))
        return data, words
    if how == "cut-byte":
        holder[key] = base64.b64encode(raw[:-1]).decode()
        return data, words
    # A column cut by one item or grown by one.
    holder[key] = base64.b64encode(raw[:-size] if how == "cut-item" else raw + raw[:size]).decode()
    return data, what


def test_a_recorded_artifact_reads_back():
    graph = EventGraph.from_dict(json.loads(recorded()))
    graph.validate()
    assert json.dumps(graph.to_dict(), sort_keys=True) == recorded()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_damaged_artifact_is_a_value_error(draw):
    data, words = draw.draw(damaged(recorded()))
    with pytest.raises(ValueError) as err:
        EventGraph.from_dict(data)
    assert words in str(err.value)


def test_schema_1_is_no_longer_read():
    with pytest.raises(ValueError, match="unknown event-graph schema 1$"):
        EventGraph.from_dict(schema1(json.loads(recorded())))


# ------------------------------------------------------------ through search


@pytest.fixture(scope="module")
def search(tmp_path_factory):
    """A one-job campaign: (search argv, its graph artifact)."""
    tmp = tmp_path_factory.mktemp("search")
    matrix = tmp / "matrix.json"
    matrix.write_text(json.dumps({
        "nprocs": 3, "machines": ["RoadRunner"],
        "networks": ["RoadRunner, eth-internode"], "fault_plans": ["loss"],
        "workloads": [{"workload": "alltoall", "compute_s": 1e-4, "ndoubles": [8, 40]}],
    }))
    ledger, art = str(tmp / "RUNLOG.jsonl"), tmp / "graphs"
    assert campaign.main(
        ["run", "--ledger", ledger, "--matrix", str(matrix), "--artifacts", str(art)]
    ) == 0
    (graph,) = art.glob("graph-*.json")
    return ["search", "--ledger", ledger, "--artifacts", str(art), "--target", "inf"], graph


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.data())
def test_search_over_a_damaged_artifact_exits_two_naming_it(search, capsys, data):
    argv, graph = search
    good = graph.read_text()
    mutated, words = data.draw(damaged(good))
    try:
        graph.write_text(json.dumps(mutated))
        capsys.readouterr()
        assert campaign.main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: corrupt graph artifact")
        assert graph.name in err and words in err
    finally:
        graph.write_text(good)


def test_search_over_a_schema_1_artifact_exits_two(search, capsys):
    argv, graph = search
    good = graph.read_text()
    try:
        graph.write_text(json.dumps(schema1(json.loads(good))))
        capsys.readouterr()
        assert campaign.main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert graph.name in err and "unknown event-graph schema 1" in err
    finally:
        graph.write_text(good)
