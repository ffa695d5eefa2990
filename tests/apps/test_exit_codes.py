"""Repo-wide CLI exit-code convention (repro.util.cli).

Every bench/report entry point distinguishes three outcomes: 0 clean,
1 gate failure, 2 usage error (never ran).  CI tells "the gate fired"
apart from "you invoked me wrong" purely by exit code, so the codes
are pinned here across the different CLI families.
"""

from repro.apps import trace_report
from repro.campaign.client import run_cli
from repro.util.cli import EXIT_GATE, EXIT_OK, EXIT_USAGE, usage_error

# ------------------------------------------------------------------ run_cli


def test_run_cli_clean_main_is_zero():
    assert run_cli(lambda argv: {"ok": True}, []) == EXIT_OK


def test_run_cli_gate_failure_is_one(capsys):
    def main(argv):
        assert False, "wall_virtual drifted"

    assert run_cli(main, []) == EXIT_GATE
    assert "gate failure: wall_virtual drifted" in capsys.readouterr().err


def test_run_cli_unreadable_input_is_two(capsys):
    def main(argv):
        raise OSError("No such file or directory: 'BENCH.json'")

    assert run_cli(main, []) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_usage_error_helper(capsys):
    assert usage_error("boom") == EXIT_USAGE
    assert capsys.readouterr().err == "error: boom\n"


# ----------------------------------------------------------- trace_report


def test_trace_report_missing_trace_is_two(tmp_path, capsys):
    rc = trace_report.cli(["--trace", str(tmp_path / "nope.json")])
    assert rc == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_trace_report_corrupt_trace_is_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{corrupt")
    assert trace_report.cli(["--trace", str(bad)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
