"""Run-ledger: round-trip, fingerprint stability, drift detection."""

import json
import subprocess
import sys

import pytest

from repro.obs.runlog import (
    RunLedger,
    append_bench_record,
    config_fingerprint,
    flatten_report,
    is_timing_key,
    iter_timing_drift,
    split_flat,
)

CFG = {"mesh": "bluff", "order": 8, "nz": 32, "nprocs": 8, "smoke": False}


# ------------------------------------------------------------- fingerprints


def test_fingerprint_key_order_insensitive():
    a = {"x": 1, "y": {"a": 2.5, "b": [1, 2]}}
    b = {"y": {"b": [1, 2], "a": 2.5}, "x": 1}
    assert config_fingerprint(a) == config_fingerprint(b)
    assert len(config_fingerprint(a)) == 16


def test_fingerprint_sensitive_to_values():
    assert config_fingerprint({"n": 1}) != config_fingerprint({"n": 2})
    assert config_fingerprint({"n": 1}) != config_fingerprint({"m": 1})


def test_fingerprint_stable_across_processes():
    """The ledger key must not depend on hash randomisation (PYTHONHASHSEED
    varies per process) — records from different runs must group."""
    here = config_fingerprint(CFG)
    code = (
        "import sys, json; sys.path.insert(0, 'src'); "
        "from repro.obs.runlog import config_fingerprint; "
        f"print(config_fingerprint(json.loads({json.dumps(CFG)!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == here


# ------------------------------------------------------------- flatten/split


def test_flatten_report_dotted_keys():
    flat = flatten_report({"a": {"b": 1}, "c": [2, {"d": 3}], "e": None})
    assert flat == {"a.b": 1, "c.0": 2, "c.1.d": 3, "e": None}


def test_split_flat_timing_convention():
    values, timings = split_flat(
        {
            "stage2": {"fused_s": 0.5, "speedup": 2.0, "alltoalls": 4.0},
            "wall_virtual": 1.25,
            "identical": True,
        }
    )
    assert timings == {"stage2.fused_s": 0.5, "stage2.speedup": 2.0}
    assert values == {
        "stage2.alltoalls": 4.0,
        "wall_virtual": 1.25,
        "identical": True,
    }
    assert is_timing_key("x.elapsed") and not is_timing_key("bytes_total")


# ------------------------------------------------------------- ledger I/O


def test_append_and_read_roundtrip(tmp_path):
    lg = RunLedger(tmp_path / "ledger.jsonl")
    rec = lg.append(
        "scaling_bench",
        CFG,
        report={"wall_virtual": 2.0, "elapsed_s": 0.1},
        critpath={"makespan": 2.0},
        metrics={"comm.sends": 12.0},
    )
    assert rec["schema"] == 1
    assert rec["fingerprint"] == config_fingerprint(CFG)
    got = lg.records()
    assert len(got) == 1
    assert got[0]["values"] == {"wall_virtual": 2.0}
    assert got[0]["timings"] == {"elapsed_s": 0.1}
    assert got[0]["critpath"] == {"makespan": 2.0}
    assert got[0]["config"] == CFG

    # Filters.
    assert lg.records(bench="scaling_bench") == got
    assert lg.records(bench="other") == []
    assert lg.records(fingerprint=rec["fingerprint"]) == got
    assert lg.records(fingerprint="0" * 16) == []


def test_grouping_by_fingerprint(tmp_path):
    lg = RunLedger(tmp_path / "ledger.jsonl")
    other = dict(CFG, nprocs=16)
    lg.append("b", CFG, report={"v": 1})
    lg.append("b", other, report={"v": 2})
    lg.append("b", CFG, report={"v": 3})
    groups = lg.grouped_by_bench()
    fp, fp_other = config_fingerprint(CFG), config_fingerprint(other)
    assert list(groups) == [("b", fp), ("b", fp_other)]
    assert [r["values"]["v"] for r in groups[("b", fp)]] == [1, 3]
    # The latest record of a fingerprint wins, keys in first-seen order.
    latest = lg.latest("b")
    assert list(latest) == [fp, fp_other]
    assert [r["values"]["v"] for r in latest.values()] == [3, 2]
    assert lg.latest("other-bench") == {}


def test_corrupt_line_raises(tmp_path):
    path = tmp_path / "ledger.jsonl"
    lg = RunLedger(path)
    lg.append("b", CFG, report={})
    with path.open("a") as fh:
        fh.write("{not json\n")
    with pytest.raises(ValueError, match="corrupt ledger line"):
        lg.records()


def test_missing_ledger_is_empty(tmp_path):
    lg = RunLedger(tmp_path / "nope.jsonl")
    assert lg.records() == []
    assert lg.latest() == {}


def test_git_rev_resolved_once_per_process(tmp_path, monkeypatch):
    from repro.obs import runlog

    spawned = []
    real_run = runlog.subprocess.run
    monkeypatch.setattr(
        runlog.subprocess, "run",
        lambda *a, **kw: spawned.append(kw["cwd"]) or real_run(*a, **kw),
    )
    runlog._git_rev.cache_clear()
    lg = RunLedger(tmp_path / "lg.jsonl")
    revs = {lg.append("b", dict(CFG, n=i), values={})["git_rev"] for i in range(5)}
    assert len(spawned) == 1 and len(revs) == 1
    # Outside any git tree the field is still written, as null (a new
    # directory is a new lookup, not the cached answer).
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    monkeypatch.chdir(tmp_path)
    assert [lg.append("b", CFG, values={})["git_rev"] for _ in range(2)] == [None, None]
    assert spawned[1:] == [str(tmp_path)]
    assert lg.records()[-1]["git_rev"] is None


def test_append_bench_record_convention(tmp_path):
    results = {
        "config": CFG,
        "critpath": {"makespan": 1.0},
        "sweep": {"wall_virtual": 2.0, "elapsed_s": 0.25},
    }
    rec = append_bench_record(tmp_path / "lg.jsonl", "scaling_bench", results)
    assert rec["critpath"] == {"makespan": 1.0}
    # config/critpath are NOT duplicated into the flattened report.
    assert rec["values"] == {"sweep.wall_virtual": 2.0}
    assert rec["timings"] == {"sweep.elapsed_s": 0.25}


# ------------------------------------------------------------- status / resume


def test_status_recorded_and_completion_index(tmp_path):
    lg = RunLedger(tmp_path / "lg.jsonl")
    other = dict(CFG, nprocs=16)
    lg.append("campaign", CFG, values={"v": 1})
    lg.append("campaign", other, values={}, status="failed", error="boom")
    fp_ok = config_fingerprint(CFG)
    fp_bad = config_fingerprint(other)
    assert lg.statuses(bench="campaign") == {fp_ok: "ok", fp_bad: "failed"}
    assert lg.completed(bench="campaign") == {fp_ok}
    rec = lg.records(fingerprint=fp_bad)[-1]
    assert rec["status"] == "failed" and rec["error"] == "boom"
    # A successful re-run flips the latest status: the job completes.
    lg.append("campaign", other, values={"v": 2})
    assert lg.completed(bench="campaign") == {fp_ok, fp_bad}


def test_status_validated(tmp_path):
    lg = RunLedger(tmp_path / "lg.jsonl")
    with pytest.raises(ValueError, match="status"):
        lg.append("b", CFG, values={}, status="maybe")


def test_missing_status_reads_as_ok(tmp_path):
    # Pre-campaign ledgers have no status field.
    path = tmp_path / "old.jsonl"
    rec = {"schema": 1, "bench": "b", "fingerprint": "abc", "values": {}}
    path.write_text(json.dumps(rec) + "\n")
    lg = RunLedger(path)
    assert lg.statuses() == {"abc": "ok"}
    assert lg.completed() == {"abc"}


# ------------------------------------------------------------- concurrency

_WRITER = """
import sys
sys.path.insert(0, "src")
from repro.obs.runlog import RunLedger

path, writer, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
lg = RunLedger(path)
for i in range(count):
    # Distinctive payload wide enough that an interleaved line could
    # not accidentally parse as valid JSON.
    lg.append(
        "stress",
        {"writer": writer, "i": i},
        values={"payload": "x" * 512, "writer": writer, "i": i},
    )
"""


def test_concurrent_multiprocess_appends_do_not_interleave(tmp_path):
    """Satellite bugfix: O_APPEND + single os.write keeps every line whole.

    Several *processes* hammer one ledger concurrently; every line must
    parse and every (writer, i) record must arrive exactly once.  The
    old buffered open("a") + fh.write path could flush a record in
    several chunks, interleaving lines under exactly this load.
    """
    path = tmp_path / "stress.jsonl"
    nwriters, count = 4, 25
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER, str(path), str(w), str(count)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for w in range(nwriters)
    ]
    for p in procs:
        _out, err = p.communicate(timeout=120)
        assert p.returncode == 0, err.decode()
    # Reading tolerates nothing: any interleaved/corrupt line raises.
    records = RunLedger(path).records(bench="stress")
    assert len(records) == nwriters * count
    seen = {(r["values"]["writer"], r["values"]["i"]) for r in records}
    assert seen == {(w, i) for w in range(nwriters) for i in range(count)}


def test_concurrent_thread_appends_do_not_interleave(tmp_path):
    """Campaign workers share one in-process ledger object."""
    import threading

    lg = RunLedger(tmp_path / "threads.jsonl")

    def writer(w):
        for i in range(50):
            lg.append("t", {"w": w, "i": i}, values={"pad": "y" * 256})

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(lg.records(bench="t")) == 8 * 50


# ------------------------------------------------------------- drift findings


def _hist(timing_runs, value_runs=None):
    hist = []
    for i, t in enumerate(timing_runs):
        vals = value_runs[i] if value_runs else {"wall_virtual": 2.0}
        hist.append({"timings": {"elapsed_s": t}, "values": vals})
    return hist


def test_drift_needs_history():
    assert iter_timing_drift(_hist([1.0])) == []


def test_timing_regression_vs_median():
    findings = iter_timing_drift(_hist([1.0, 1.1, 0.95, 2.1]))
    assert len(findings) == 1
    f = findings[0]
    assert f["severity"] == "regression" and f["kind"] == "timing"
    assert f["reference"] == pytest.approx(1.0)  # median of first three
    assert f["ratio"] == pytest.approx(2.1)


def test_timing_improvement_and_tolerance():
    assert iter_timing_drift(_hist([1.0, 1.2, 1.1])) == []
    findings = iter_timing_drift(_hist([1.0, 1.0, 0.4]))
    assert findings[0]["severity"] == "improvement"


def test_single_noisy_run_does_not_poison_reference():
    # One 10x outlier in the middle of history: median ignores it.
    assert iter_timing_drift(_hist([1.0, 10.0, 1.05, 1.1])) == []


def test_value_drift_is_hard_finding():
    hist = _hist(
        [1.0, 1.0],
        value_runs=[{"wall_virtual": 2.0}, {"wall_virtual": 2.5}],
    )
    findings = iter_timing_drift(hist)
    assert len(findings) == 1
    assert findings[0]["severity"] == "drift"
    assert findings[0]["key"] == "wall_virtual"
    # Severity order: drift sorts before timing findings; the two-run
    # history has a single-sample reference, so its timing finding is
    # downgraded to suspect-regression (nref=1 cannot gate).
    hist[-1]["timings"]["elapsed_s"] = 99.0
    findings = iter_timing_drift(hist)
    assert [f["severity"] for f in findings] == ["drift", "suspect-regression"]


def test_single_reference_sample_downgrades_severity():
    # Two-run histories compare but cannot tell a regression from a
    # noisy first run: severity carries the suspect- prefix both ways.
    up = iter_timing_drift(_hist([1.0, 3.0]))
    assert [f["severity"] for f in up] == ["suspect-regression"]
    assert up[0]["nref"] == 1
    down = iter_timing_drift(_hist([1.0, 0.3]))
    assert [f["severity"] for f in down] == ["suspect-improvement"]
    # A third run restores full severity.
    full = iter_timing_drift(_hist([1.0, 1.05, 3.0]))
    assert [f["severity"] for f in full] == ["regression"]
    assert full[0]["nref"] == 2
