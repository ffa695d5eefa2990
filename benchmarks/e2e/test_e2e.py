"""Tests of the e2e benchmark harness itself.

Not tier-1: run explicitly with ``PYTHONPATH=src pytest benchmarks/e2e``
(about a minute; the smoke pass starts ~30 short child processes).
"""

import fnmatch
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run as harness  # noqa: E402
from tracing import LayerTracer, Span, layer_self_times  # noqa: E402

SPEC = harness.load_spec()


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


# -- self-time arithmetic -------------------------------------------------------


def test_self_times_nested_and_threaded():
    """A step on thread 1 calls assembly, which calls linalg; a comm call
    blocks for 6 s of wall but burns 0.5 s; thread 2 computes 2 s inside
    the same window, and then runs a call that is only one sixth inside.
    Self time is CPU minus same-thread children, over every thread; a
    straddler counts by its share; the uncovered wall goes to ``parallel``."""
    spans = [
        Span(0, -1, "unit", "driver", 1, 0.0, 10.0, 0.0, 4.0),
        Span(1, 0, "step", "ns", 1, 0.5, 9.5, 0.1, 3.9),
        Span(2, 1, "backward", "assembly", 1, 1.0, 3.0, 0.5, 2.5),
        Span(3, 2, "solve", "linalg", 1, 1.5, 2.5, 1.0, 2.0),
        Span(4, 1, "alltoall", "parallel", 1, 3.0, 9.0, 2.5, 3.0),
        Span(5, -1, "step", "ns", 2, 3.5, 8.5, 0.0, 2.0),
        Span(6, -1, "late", "ns", 2, 9.9, 10.5, 2.0, 2.6),
    ]
    got = layer_self_times(spans, [(0.0, 10.0)], roots=[0])
    late = 0.6 * (0.1 / 0.6)
    assert got["linalg"] == pytest.approx(1.0)
    assert got["assembly"] == pytest.approx(1.0)  # 2.0 - linalg's 1.0
    assert got["ns"] == pytest.approx((3.8 - 2.0 - 0.5) + 2.0 + late)
    assert got["driver"] == pytest.approx(0.2)  # the root's own CPU
    assert got["_straddling"] == pytest.approx(late)
    attributed = 1.0 + 1.0 + 3.3 + 0.5 + 0.2 + late
    assert got["_remainder"] == pytest.approx(10.0 - attributed)
    assert got["parallel"] == pytest.approx(0.5 + 10.0 - attributed)
    layers = [k for k in got if not k.startswith("_")]
    assert sum(got[k] for k in layers) == pytest.approx(got["_wall"])


def test_self_times_add_over_windows_and_split_a_span_between_them():
    spans = [
        Span(0, -1, "a", "ns", 1, 0.0, 1.0, 0.0, 0.8),
        Span(1, -1, "b", "linalg", 1, 1.5, 3.5, 0.8, 2.8),  # half in each window
        Span(2, -1, "gap", "mesh", 1, 2.2, 2.4, 3.0, 3.2),  # between the windows
    ]
    got = layer_self_times(spans, [(2.5, 4.0), (0.0, 2.0)])
    assert got["_wall"] == pytest.approx(3.5)
    assert got["ns"] == pytest.approx(0.8)
    assert got["linalg"] == pytest.approx(2.0 * (0.5 + 1.0) / 2.0)
    assert got["mesh"] == 0.0
    assert got["_straddling"] == pytest.approx(1.5)


def test_self_times_single_thread_remainder_is_drivers():
    spans = [Span(0, -1, "step", "ns", 1, 1.0, 2.0, 0.0, 0.9)]
    got = layer_self_times(spans, [(0.0, 4.0)])
    assert got["ns"] == pytest.approx(0.9)
    assert got["driver"] == pytest.approx(3.1)
    assert got["parallel"] == 0.0


def test_overcommitted_cpu_shows_as_negative_remainder():
    spans = [
        Span(0, -1, "a", "ns", 1, 0.0, 1.0, 0.0, 1.0),
        Span(1, -1, "b", "ns", 2, 0.0, 1.0, 0.0, 1.0),
    ]
    got = layer_self_times(spans, [(0.0, 1.0)])
    assert got["_remainder"] == pytest.approx(-1.0)
    assert got["parallel"] == 0.0  # never folded in when negative


# -- wrappers -------------------------------------------------------------------


def test_wrappers_record_and_are_fully_removed():
    pytest.importorskip("repro")
    import repro.solvers.helmholtz as helmholtz
    from repro.assembly.space import FunctionSpace
    from repro.linalg import cg
    from repro.linalg.banded import BandedSPDSolver
    from repro.mesh.generators import rectangle_quads

    originals = (
        FunctionSpace.backward, FunctionSpace.__init__, cg.pcg, helmholtz.pcg,
        BandedSPDSolver.__dict__["from_banded"],
    )
    tracer = LayerTracer()
    assert tracer.install() > 0
    assert tracer.install() == 0  # second call finds nothing new
    try:
        assert FunctionSpace.backward is not originals[0]
        assert helmholtz.pcg is not originals[3]  # the imported name too
        space = FunctionSpace(rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0), 3)
        space.backward(space.forward(space.xq))
    finally:
        tracer.uninstall()
    assert (
        FunctionSpace.backward, FunctionSpace.__init__, cg.pcg, helmholtz.pcg,
        BandedSPDSolver.__dict__["from_banded"],
    ) == originals
    names = [s.name for s in tracer.spans]
    assert "assembly.space.FunctionSpace.backward" in names
    init = next(s for s in tracer.spans if s.name.endswith("FunctionSpace.__init__"))
    inner = [s for s in tracer.spans if s.parent == init.id]
    assert inner and {s.layer for s in inner} <= {"spectral", "mesh", "assembly"}


# -- the smoke pass -------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two untraced smoke passes and one traced, via the one command."""
    out = tmp_path_factory.mktemp("e2e")
    files = {}
    for tag, extra in (("a", []), ("b", []), ("traced", ["--trace", "1"])):
        path = out / f"{tag}.json"
        proc = _run("--smoke", "--seconds", "0.6", "--out", str(path), *extra)
        assert proc.returncode == 0, proc.stderr
        files[tag] = json.loads(path.read_text())
    return files


def test_smoke_emits_every_metric_with_its_unit(smoke):
    names = [w["name"] for w in SPEC["workloads"]]
    for tag, key in (("a", "end_to_end"), ("traced", "per_layer")):
        for name in names:
            body = smoke[tag]["workloads"][name]
            # failed == 0 also says: every per-layer name this workload
            # must report was there and not 0, and none was unknown.
            assert body["failed"] == 0 and body["attempted"] > 0
            for m in SPEC[key]:
                got = body["metrics"][m["name"]]
                assert got["unit"] == m["unit"]
                assert got["n"] == 1 and isinstance(got["median"], float)
    for name in names:  # end-to-end metrics are never 0
        for m in smoke["a"]["workloads"][name]["metrics"].values():
            assert m["median"] > 0
    # The issue's names for the rates ride along, unbounded.
    assert smoke["a"]["workloads"]["serial_bluff"]["metrics"]["steps_per_s"]["unit"] == "info"
    assert smoke["a"]["workloads"]["campaign_sweep"]["metrics"]["jobs_per_s"]["median"] > 0


def test_every_per_layer_name_is_expected_of_some_workload():
    names = {m["name"] for m in SPEC["per_layer"]}
    expected = {w: harness.expected_names(w, SPEC) for w in harness.ALL}
    assert set(harness.ALL) == {w["name"] for w in SPEC["workloads"]}
    # A name no workload has to report could read 0 everywhere unnoticed;
    # the one exception is an error that is 0 when all is well.
    assert names - set().union(*expected.values()) == {"trace.sum_error_max"}
    for workloads, patterns in harness.EXPECT:
        for pattern in patterns.split():
            assert fnmatch.filter(names, pattern), pattern
    # The separation the workloads were chosen for.
    for name in ("fourier.unit_self_ms", "parallel.unit_self_ms", "campaign.unit_self_ms"):
        assert name not in expected["serial_bluff"] | expected["ale_cg"]
    assert "linalg.banded_solve_us" not in expected["ale_cg"]


def test_smoke_layer_separation(smoke):
    layers = {n: b["metrics"] for n, b in smoke["traced"]["workloads"].items()}
    for name in ("serial_bluff", "ale_cg"):
        assert layers[name]["fourier.unit_self_ms"]["median"] == 0.0
        assert layers[name]["campaign.unit_self_ms"]["median"] == 0.0
        assert layers[name]["ns.unit_self_ms"]["median"] > 0.0
    assert layers["ale_cg"]["linalg.banded_solve_us"]["median"] == 0.0
    assert layers["nektar_f_weak"]["fourier.unit_self_ms"]["median"] > 0.0
    assert layers["campaign_sweep"]["campaign.unit_self_ms"]["median"] > 0.0
    for name, m in layers.items():
        assert m["trace.sum_error_max"]["median"] <= 0.02, name
        assert m["trace.tracing_overhead_ratio"]["median"] > 0.0, name


def test_exact_values_repeat_across_smoke_runs(smoke):
    for name, body in smoke["a"]["workloads"].items():
        assert body["exact"], name
        assert body["exact"] == smoke["b"]["workloads"][name]["exact"], name


def test_pipeline_form_prints_one_result_object():
    proc = _run("--workload", "simmpi_scale", "--seed", "7", "--seconds", "0.6",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


# -- one run, from canned children --------------------------------------------------


def _child(**over) -> dict:
    """What ``spawn_child`` returns for a child that measured two 0.1 s
    units while the host ran everything at half its quiet speed."""
    child = {
        "parts": {"unit": [0.10, 0.12]}, "unit_s": [0.10, 0.12], "unit_scale": 1.0,
        "clock": {k: [2 * quiet] for k, quiet in harness.CLOCK_QUIET_S.items()},
        "rates": {"steps_per_s": (1.0, "unit")}, "quota": 10,
        "setup_wall_s": 1.52, "peak_rss_mb": 80.0,
        "attempted": 3, "failures": [], "golden_any": {"ndof": 7}, "golden_seed": {},
        "repeatable": {}, "layer": {}, "traced": {},
    }
    return {**child, **over}


def test_unit_is_calibrated_and_a_crashed_child_is_a_failure(monkeypatch):
    queue = [_child(), {"crashed": "child exited with code -9 and no result"}, _child()]
    monkeypatch.setattr(harness, "spawn_child", lambda *a, **k: queue.pop(0))
    res = harness.run_workload("serial_bluff", 12345, 3.0, False, True, SPEC)
    # 0.11 s of wall on a host running 2x slower than quiet is 0.055 s.
    assert res["_info"]["host_slowdown"] == pytest.approx(2.0)
    assert res["_info"]["unit_raw_s"] == pytest.approx(0.11)
    assert res["metrics"]["units_per_s"]["value"] == pytest.approx(1 / 0.055)
    assert res["_info"]["steps_per_s"] == pytest.approx(1 / 0.055)
    assert res["metrics"]["setup_s"]["value"] == pytest.approx(0.76)
    assert res["_info"]["setup_raw_s"] == pytest.approx(1.52)
    assert res["_info"]["wall_s"] == pytest.approx(0.76 + 10 * 0.055)
    assert res["correct"] is False and res["failed"] == 1
    assert res["attempted"] == 1 + 1 + 2 * 3  # the crash, ndof compared, the children's
    monkeypatch.setattr(harness, "spawn_child", lambda *a, **k: {"crashed": "gone"})
    assert harness.run_workload("serial_bluff", 12345, 3.0, False, True, SPEC) is None


def test_missing_and_unknown_per_layer_names_fail_the_run(monkeypatch, capsys):
    queue = [_child(layer={"bogus.metric": 1.0, "flops_charged": 5.0}), _child()]
    monkeypatch.setattr(harness, "spawn_child", lambda *a, **k: queue.pop(0))
    res = harness.run_workload("serial_bluff", 12345, 3.0, True, True, SPEC)
    err = capsys.readouterr().err
    assert res["correct"] is False
    assert "reports bogus.metric, which BENCHMARK.json does not name" in err
    assert "assembly.unit_self_ms is missing or 0" in err
    assert "flops_charged is missing" not in err and "steps_per_s is missing" not in err
    assert "fourier.unit_self_ms" not in err  # not this workload's business: reads 0
    assert res["metrics"]["fourier.unit_self_ms"]["value"] == 0.0


# -- the ledger hook ------------------------------------------------------------------


def test_ledger_trends_a_halved_rate_as_a_regression(tmp_path):
    pytest.importorskip("repro")
    from repro.obs.runlog import RunLedger, iter_timing_drift

    def results(rate: float) -> dict:
        metrics = {"setup_s": {"median": 1.5}, "units_per_s": {"median": rate},
                   "peak_rss_mb": {"median": 80.0}}
        return {"config": {"bench": "e2e", "seed": 1},
                "workloads": {"serial_bluff": {"exact": {"ndof": 7}, "metrics": metrics}}}

    for last, verdict in ((20.0, "regression"), (80.0, "improvement")):
        path = tmp_path / f"{verdict}.jsonl"
        for rate in (40.0, 40.0, 40.0, last):
            harness.append_to_ledger(str(path), results(rate))
        found = iter_timing_drift(RunLedger(path).records())
        assert [(f["key"], f["severity"]) for f in found] == [("serial_bluff.unit_s", verdict)]


# -- golden values --------------------------------------------------------------


def test_golden_mismatch_is_a_named_failure():
    golden = harness.load_golden()["workloads"]["simmpi_scale"]
    seed = harness.GOLDEN_SEEDS[0]
    child = {
        "golden_any": dict(golden["any"]),
        "golden_seed": dict(golden[str(seed)]),
        "repeatable": {},
    }
    assert harness.check_children("simmpi_scale", seed, [child], smoke=False)[1] == []
    child["golden_any"]["ring.64.switches"] += 1
    _, failures = harness.check_children("simmpi_scale", seed, [child], smoke=False)
    assert len(failures) == 1 and "ring.64.switches" in failures[0]
    # A seed nobody recorded is held to the seed-independent values only.
    child["golden_seed"] = {"anything": 1}
    _, failures = harness.check_children("simmpi_scale", 12345, [child], smoke=False)
    assert len(failures) == 1


def test_tolerant_keys_use_their_tolerance():
    assert not harness._differs(1.0, 1.0 + 1e-12, 1e-9)
    assert harness._differs(1.0, 1.0 + 1e-12, 0.0)
    assert harness._differs([1.0, 2.0], [1.0, 2.1], 1e-9)


# -- compare.py -----------------------------------------------------------------


def _result(rate: list[float], failed: int = 0) -> dict:
    def metric(values, unit):
        q1, med, q3 = harness.quartiles(values)
        return {"unit": unit, "median": med, "q1": q1, "q3": q3,
                "n": len(values), "values": values}

    return {
        "workloads": {
            "serial_bluff": {
                "attempted": 100, "failed": failed,
                "metrics": {
                    "units_per_s": metric(rate, "1/s"),
                    "setup_s": metric([2.0 + 0.01 * i for i in range(len(rate))], "s"),
                },
            }
        }
    }


def test_compare_passes_aa_and_flags_a_planted_slowdown():
    base = [40.0, 40.2, 39.9, 40.1, 40.3, 39.8, 40.0, 40.1, 39.9, 40.2]
    rows, bad = compare.compare(_result(base), _result(base[::-1]), SPEC)
    assert bad == 0 and all("regressed" not in r for r in rows)
    rows, bad = compare.compare(_result(base), _result([v / 2 for v in base]), SPEC)
    assert bad == 1 and any("units_per_s" in r and "regressed" in r for r in rows)
    # Twice as fast is not a regression.
    assert compare.compare(_result(base), _result([v * 2 for v in base]), SPEC)[1] == 0


def test_compare_calls_wide_spread_unresolved_and_new_failures_regressed():
    noisy = [40.0, 31.0, 47.0, 36.0, 44.0, 30.0, 48.0, 39.0, 41.0, 35.0]
    rows, bad = compare.compare(_result(noisy), _result(noisy[::-1]), SPEC)
    assert bad == 1 and any("unresolved" in r for r in rows)
    steady = [40.0] * 5 + [40.1] * 5
    rows, bad = compare.compare(_result(steady), _result(steady, failed=3), SPEC)
    assert bad == 1 and any("fail_share" in r and "regressed" in r for r in rows)


def test_compare_exit_codes(tmp_path):
    a = tmp_path / "a.json"
    a.write_text(json.dumps(_result([40.0, 40.1, 40.2, 40.3])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(tmp_path / "missing.json")]) == 2
    assert compare.main([str(a)]) == 2
