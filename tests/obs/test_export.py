import json

import pytest

from repro.obs.export import (
    idle_by_rank,
    load_chrome_trace,
    stage_breakdown,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.tracer import Trace


def _sample_trace() -> Trace:
    trace = Trace()
    t0 = trace.rank_tracer(0)
    t1 = trace.rank_tracer(1)
    t0.emit_span(
        "2:nonlinear", "stage", 0.0, 3.0,
        {"cpu": 2.0, "wall": 3.0, "flops": 100.0, "bytes": 400.0},
    )
    t0.emit_span("alltoall", "comm", 1.0, 2.0, {"seq": 0})
    t1.emit_span("wait: alltoall", "idle", 0.5, 1.5, {})
    t1.emit_span(
        "2:nonlinear", "stage", 0.0, 2.5, {"cpu": 2.5, "wall": 2.5}
    )
    t1.events.append(
        type(t1.events[0])("pcg", "pcg", 2.0, 0.0, 1, {"iterations": 5}, "i")
    )
    return trace


def test_to_chrome_trace_structure():
    doc = to_chrome_trace(_sample_trace(), {0: ["send -> 1 tag=0 (8B)"]})
    assert doc["displayTimeUnit"] == "ms"
    evs = doc["traceEvents"]
    meta = [e for e in evs if e["ph"] == "M"]
    names = {e["name"] for e in meta}
    assert {"process_name", "thread_name", "thread_sort_index"} <= names
    thread0 = next(
        e for e in meta if e["name"] == "thread_name" and e["tid"] == 0
    )
    assert thread0["args"]["name"] == "rank 0"
    assert thread0["args"]["recent_comm_events"] == ["send -> 1 tag=0 (8B)"]
    spans = [e for e in evs if e["ph"] == "X"]
    assert all("dur" in e for e in spans)
    stage0 = next(e for e in spans if e["tid"] == 0 and e["cat"] == "stage")
    assert stage0["ts"] == pytest.approx(0.0)
    assert stage0["dur"] == pytest.approx(3.0e6)  # seconds -> us
    instants = [e for e in evs if e["ph"] == "i"]
    assert instants and all(e["s"] == "t" for e in instants)


def test_round_trip(tmp_path):
    trace = _sample_trace()
    path = write_chrome_trace(trace, tmp_path / "trace.json")
    json.loads(path.read_text())  # valid JSON
    events = load_chrome_trace(path)
    # Metadata dropped; spans + instant survive with seconds restored.
    assert len(events) == len(trace.events())
    by_cat = {}
    for e in events:
        by_cat.setdefault(e.cat, []).append(e)
    assert set(by_cat) == {"stage", "comm", "idle", "pcg"}
    stage = [e for e in by_cat["stage"] if e.rank == 0][0]
    assert stage.dur == pytest.approx(3.0)
    assert stage.args["cpu"] == pytest.approx(2.0)
    (inst,) = by_cat["pcg"]
    assert inst.ph == "i" and inst.args["iterations"] == 5


def test_stage_breakdown_from_events(tmp_path):
    path = write_chrome_trace(_sample_trace(), tmp_path / "t.json")
    events = load_chrome_trace(path)
    merged = stage_breakdown(events)
    rec = merged.records["2:nonlinear"]
    assert rec.cpu == pytest.approx(4.5)
    assert rec.wall == pytest.approx(5.5)
    rank0 = stage_breakdown(events, rank=0)
    assert rank0.records["2:nonlinear"].cpu == pytest.approx(2.0)
    # Falls back to span duration when args are absent.
    bare = Trace()
    bare.rank_tracer(0).emit_span("s", "stage", 0.0, 2.0)
    t = stage_breakdown(bare.events())
    assert t.records["s"].cpu == pytest.approx(2.0)
    assert t.records["s"].wall == pytest.approx(2.0)


def test_idle_by_rank(tmp_path):
    path = write_chrome_trace(_sample_trace(), tmp_path / "t.json")
    idle = idle_by_rank(load_chrome_trace(path))
    assert idle == {1: pytest.approx(1.0)}
