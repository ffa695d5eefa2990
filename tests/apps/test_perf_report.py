"""perf_report CLI: trajectories over the run ledger, drift findings.

The acceptance scenario: a configuration with a 3-run history plus a
fourth run whose host timing doubled must be flagged as a regression
in the report and in the returned findings.  The report never gates:
deterministic values are gated by ``tests/goldens.json``, host time by
``benchmarks/e2e``.
"""

import pytest

from repro.apps import perf_report
from repro.obs.runlog import RunLedger, config_fingerprint

CFG = {"mesh": "bluff", "order": 8, "nprocs": 16, "smoke": True}


@pytest.fixture()
def regressed_ledger(tmp_path):
    """3 steady runs + a 4th whose elapsed_s doubled (values steady)."""
    path = tmp_path / "RUNLOG.jsonl"
    lg = RunLedger(path)
    for elapsed in (1.0, 1.05, 0.98, 2.0):
        lg.append(
            "scaling_bench",
            CFG,
            report={"wall_virtual": 3.25, "elapsed_s": elapsed},
        )
    return lg


def test_regression_flagged_against_three_run_history(regressed_ledger):
    text, findings = perf_report.render_perf_report(regressed_ledger)
    assert len(findings) == 1
    f = findings[0]
    assert f["severity"] == "regression"
    assert f["key"] == "elapsed_s"
    assert f["ratio"] == pytest.approx(2.0)
    assert f["fingerprint"] == config_fingerprint(CFG)
    assert "[regression] elapsed_s" in text
    assert "1 timing regression(s)" in text


def test_trajectory_table_shows_every_run(regressed_ledger):
    text, _ = perf_report.render_perf_report(regressed_ledger)
    assert f"scaling_bench @ {config_fingerprint(CFG)} (4 run(s))" in text
    # Every run is one row, keyed 0..3, with the headline timing column.
    for i in range(4):
        assert f"| {i} |" in text
    assert "elapsed_s" in text


def test_steady_history_reports_no_findings(tmp_path):
    lg = RunLedger(tmp_path / "lg.jsonl")
    for elapsed in (1.0, 1.1, 0.95):
        lg.append("fourier_bench", CFG, report={"elapsed_s": elapsed})
    text, findings = perf_report.render_perf_report(lg)
    assert findings == []
    assert "steady: no drift against history" in text


def test_deterministic_drift_reported(tmp_path):
    lg = RunLedger(tmp_path / "lg.jsonl")
    lg.append("solve_bench", CFG, report={"wall_virtual": 2.0})
    lg.append("solve_bench", CFG, report={"wall_virtual": 2.5})
    text, findings = perf_report.render_perf_report(lg)
    assert [f["severity"] for f in findings] == ["drift"]
    assert "deterministic key changed" in text
    assert "1 deterministic drift(s)" in text


def test_filters_by_bench_and_fingerprint(regressed_ledger, tmp_path):
    other_cfg = dict(CFG, nprocs=32)
    regressed_ledger.append("other_bench", other_cfg, report={"v": 1})
    text, findings = perf_report.render_perf_report(
        regressed_ledger, bench="scaling_bench"
    )
    assert "other_bench" not in text and len(findings) == 1
    text, _ = perf_report.render_perf_report(
        regressed_ledger, fingerprint=config_fingerprint(other_cfg)
    )
    assert "other_bench" in text and "scaling_bench" not in text


def test_main_reports_regression_and_exits_zero(
    regressed_ledger, capsys, tmp_path
):
    out = tmp_path / "perf_report.txt"
    rc = perf_report.main(
        ["--ledger", str(regressed_ledger.path), "--out", str(out)]
    )
    assert rc == 0  # a finding is a line in the report, not a gate
    captured = capsys.readouterr().out
    assert "[regression] elapsed_s" in captured
    assert out.read_text().strip() in captured


def test_main_missing_ledger_is_usage_error(tmp_path, capsys):
    # Distinct from a gate failure: the report never ran.
    rc = perf_report.main(["--ledger", str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "run ledger not found" in capsys.readouterr().err


def test_main_empty_ledger_is_clean(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    rc = perf_report.main(["--ledger", str(path)])
    assert rc == 0
    assert "no matching records" in capsys.readouterr().out


def test_main_corrupt_ledger_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"schema": 1, "bench": "x"\n')
    rc = perf_report.main(["--ledger", str(path)])
    assert rc == 2
    assert "corrupt ledger line" in capsys.readouterr().err


def test_median_reference_excludes_latest_run(tmp_path):
    # History [1.0, 3.0, 5.0]: the reference must be median(1.0, 3.0)
    # = 2.0, never median(1.0, 3.0, 5.0) = 3.0 — the run under test
    # must not dampen its own comparison.
    lg = RunLedger(tmp_path / "lg.jsonl")
    for elapsed in (1.0, 3.0, 5.0):
        lg.append("scaling_bench", CFG, report={"elapsed_s": elapsed})
    _text, findings = perf_report.render_perf_report(lg)
    assert len(findings) == 1
    f = findings[0]
    assert f["reference"] == pytest.approx(2.0)
    assert f["ratio"] == pytest.approx(2.5)
    assert f["nref"] == 2
    assert f["severity"] == "regression"


def test_two_run_history_downgraded_to_suspect(tmp_path):
    # nref=1: a single reference sample compares at low confidence.
    lg = RunLedger(tmp_path / "lg.jsonl")
    for elapsed in (1.0, 2.0):
        lg.append("scaling_bench", CFG, report={"elapsed_s": elapsed})
    text, findings = perf_report.render_perf_report(lg)
    assert [f["severity"] for f in findings] == ["suspect-regression"]
    assert findings[0]["nref"] == 1
    assert "1 low-confidence (nref=1) finding(s)" in text
    assert "0 timing regression(s)" in text


def test_shared_fingerprint_histories_not_pooled(tmp_path):
    # Two benches writing the same config must keep separate
    # trajectories: bench A's steady history must not absorb bench B's
    # regression (the latent pooling bug the campaign engine exposed).
    lg = RunLedger(tmp_path / "lg.jsonl")
    for elapsed in (1.0, 1.0, 1.0):
        lg.append("bench_a", CFG, report={"elapsed_s": elapsed})
    for elapsed in (1.0, 1.0, 4.0):
        lg.append("bench_b", CFG, report={"elapsed_s": elapsed})
    text, findings = perf_report.render_perf_report(lg)
    assert len(findings) == 1
    assert findings[0]["severity"] == "regression"
    assert f"bench_a @ {config_fingerprint(CFG)} (3 run(s))" in text
    assert f"bench_b @ {config_fingerprint(CFG)} (3 run(s))" in text
