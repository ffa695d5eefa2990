"""Repo-wide CLI exit-code convention (repro.util.cli).

Every bench/report entry point distinguishes three outcomes: 0 clean,
1 gate failure, 2 usage error (never ran).  CI tells "the gate fired"
apart from "you invoked me wrong" purely by exit code, so the codes
are pinned here across the different CLI families.
"""

import json

from repro.apps import campaign, trace_report
from repro.campaign.client import run_cli
from repro.util.cli import EXIT_GATE, EXIT_OK, EXIT_USAGE, usage_error
from tests.obs._graphs import column, set_column

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


# ---------------------------------------------------------- campaign search


def _recorded_graph(tmp_path):
    """A one-job campaign with its graph artifact: (search argv, artifact)."""
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({
        "nprocs": 2, "machines": ["RoadRunner"],
        "networks": ["RoadRunner, eth-internode"], "fault_plans": ["none"],
        "workloads": [{"workload": "ring", "rounds": 2, "ndoubles": 8}],
    }))
    ledger, art = str(tmp_path / "RUNLOG.jsonl"), tmp_path / "graphs"
    run = ["run", "--ledger", ledger, "--matrix", str(matrix), "--artifacts", str(art)]
    assert campaign.main(run) == EXIT_OK
    (graph,) = art.glob("graph-*.json")
    return ["search", "--ledger", ledger, "--artifacts", str(art), "--target", "inf"], graph


def test_campaign_search_truncated_graph_is_two(tmp_path, capsys):
    argv, graph = _recorded_graph(tmp_path)
    graph.write_text(graph.read_text()[:200])
    capsys.readouterr()
    assert campaign.main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: corrupt graph artifact") and graph.name in err


def test_campaign_search_short_edge_row_is_two(tmp_path, capsys):
    """A damaged edge row is exit 2, naming the file and the row: row 3's
    source is moved onto its target, so the edge no longer points forward."""
    argv, graph = _recorded_graph(tmp_path)
    data = json.loads(graph.read_text())
    src = column(data["edges"], "src", "<i8").copy()
    src[3] = column(data["edges"], "dst", "<i8")[3]
    set_column(data["edges"], "src", src, "<i8")
    graph.write_text(json.dumps(data))
    capsys.readouterr()
    assert campaign.main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert graph.name in err and "edge row 3" in err
