"""Unit tests for the BENCH_*.json regression checker (tier-2)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from check_regression import compare, is_timing_key, main  # noqa: E402

BASELINE = {
    "config": {"elements": 24, "order": 5, "smoke": True},
    "ops": {
        "backward": {
            "batched_s": 1.0e-3,
            "per_element_s": 4.0e-3,
            "speedup": 4.0,
            "flops": 1000.0,
            "bytes": 8000.0,
        }
    },
    "charges_identical": True,
    "total_speedup": 4.0,
}


def test_timing_key_classification():
    assert is_timing_key("batched_s")
    assert is_timing_key("step_reference_s")
    assert is_timing_key("total_speedup")
    assert is_timing_key("speedup")
    assert not is_timing_key("flops")
    assert not is_timing_key("bytes")
    assert not is_timing_key("elements")
    assert not is_timing_key("charges_identical")


def test_identical_reports_pass():
    warnings, failures = compare(BASELINE, BASELINE)
    assert warnings == [] and failures == []


def test_timing_drift_warns_only():
    fresh = json.loads(json.dumps(BASELINE))
    fresh["ops"]["backward"]["batched_s"] *= 10.0
    warnings, failures = compare(fresh, BASELINE)
    assert failures == []
    assert any("batched_s" in w for w in warnings)
    # Within tolerance: silent.
    fresh["ops"]["backward"]["batched_s"] = 1.2e-3
    warnings, failures = compare(fresh, BASELINE, timing_rtol=0.5)
    assert warnings == [] and failures == []


def test_charge_drift_hard_fails():
    fresh = json.loads(json.dumps(BASELINE))
    fresh["ops"]["backward"]["flops"] += 1.0
    _warnings, failures = compare(fresh, BASELINE)
    assert any("flops" in f for f in failures)


def test_config_and_flag_drift_hard_fail():
    fresh = json.loads(json.dumps(BASELINE))
    fresh["config"]["elements"] = 25
    fresh["charges_identical"] = False
    _warnings, failures = compare(fresh, BASELINE)
    assert any("elements" in f for f in failures)
    assert any("charges_identical" in f for f in failures)


def test_missing_and_new_metrics():
    fresh = json.loads(json.dumps(BASELINE))
    del fresh["ops"]["backward"]["flops"]
    fresh["ops"]["backward"]["new_metric"] = 1.0
    warnings, failures = compare(fresh, BASELINE)
    assert any("missing" in f for f in failures)
    assert any("new metric" in w for w in warnings)


def test_main_exit_codes(tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(BASELINE))
    fresh = json.loads(json.dumps(BASELINE))
    fresh["ops"]["backward"]["speedup"] = 1.0  # timing: warn only
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(fresh))
    assert main([str(ok), str(base)]) == 0
    assert "WARNING" in capsys.readouterr().out
    fresh["ops"]["backward"]["bytes"] = 1.0  # accounting: hard fail
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(fresh))
    assert main([str(bad), str(base)]) == 1
    assert "FAILURE" in capsys.readouterr().out


def test_committed_smoke_baselines_exist():
    base_dir = Path(__file__).parent / "baselines"
    for name in ("BENCH_resilience_smoke.json", "BENCH_scaling_smoke.json"):
        doc = json.loads((base_dir / name).read_text())
        assert doc["config"]["smoke"] is True


LIST_BASELINE = {
    "sweep": [
        {"nprocs": 16, "elapsed_s": 0.1, "bytes_sent": 1000.0},
        {"nprocs": 64, "elapsed_s": 0.4, "bytes_sent": 4000.0},
    ]
}


def test_lists_recurse_timing_vs_accounting():
    # Host timing inside a list entry: warn only.
    fresh = json.loads(json.dumps(LIST_BASELINE))
    fresh["sweep"][1]["elapsed_s"] = 40.0
    warnings, failures = compare(fresh, LIST_BASELINE)
    assert failures == []
    assert any("sweep[1].elapsed_s" in w for w in warnings)
    # Accounting drift inside a list entry: hard failure.
    fresh = json.loads(json.dumps(LIST_BASELINE))
    fresh["sweep"][0]["bytes_sent"] += 8.0
    _warnings, failures = compare(fresh, LIST_BASELINE)
    assert any("sweep[0].bytes_sent" in f for f in failures)


def test_list_shape_changes_hard_fail():
    fresh = json.loads(json.dumps(LIST_BASELINE))
    fresh["sweep"].append({"nprocs": 256, "elapsed_s": 1.0, "bytes_sent": 1.0})
    _warnings, failures = compare(fresh, LIST_BASELINE)
    assert any("length changed 2 -> 3" in f for f in failures)
    _warnings, failures = compare({"sweep": "oops"}, LIST_BASELINE)
    assert any("expected list" in f for f in failures)


def test_committed_scaling_baseline_is_hard_gated():
    """Every non-``_s`` number in BENCH_scaling_smoke.json is a virtual
    clock, a byte/message ledger, or a scheduler counter — the gate must
    treat all of them as deterministic."""
    base_dir = Path(__file__).parent / "baselines"
    doc = json.loads((base_dir / "BENCH_scaling_smoke.json").read_text())
    assert doc["config"]["smoke"] is True
    mutated = json.loads(json.dumps(doc))
    mutated["alltoall"][0]["scheduler"]["scheduler.switches"] += 1.0
    _warnings, failures = compare(mutated, doc)
    assert any("scheduler.switches" in f for f in failures)
    mutated = json.loads(json.dumps(doc))
    mutated["alltoall"][0]["elapsed_s"] *= 100.0
    warnings, failures = compare(mutated, doc)
    assert failures == [] and any("elapsed_s" in w for w in warnings)
