"""CLI coverage for ``python -m repro.analysis``.

Exercises the argument paths directly through ``main()``: file args,
``--format json``, ``--select``, and every exit code (0 clean,
1 findings, 2 usage errors — including waivers and ``--select`` tokens
naming unknown rules).
"""

import json

import pytest

from repro.analysis.__main__ import main

VIOLATION = "import numpy as np\n\n\ndef kernel(a, x):\n    return np.dot(a, x)\n"
CLEAN = "def add(a, b):\n    return a + b\n"


@pytest.fixture
def bad_file(tmp_path):
    pkg = tmp_path / "src" / "repro" / "spectral"
    pkg.mkdir(parents=True)
    f = pkg / "injected.py"
    f.write_text(VIOLATION)
    return f


@pytest.fixture
def clean_file(tmp_path):
    pkg = tmp_path / "src" / "repro" / "spectral"
    pkg.mkdir(parents=True)
    f = pkg / "fine.py"
    f.write_text(CLEAN)
    return f


def test_clean_file_exits_zero(clean_file, capsys):
    assert main([str(clean_file)]) == 0
    assert capsys.readouterr().out == ""


def test_violation_exits_one_with_text_diag(bad_file, capsys):
    assert main([str(bad_file)]) == 1
    captured = capsys.readouterr()
    assert "injected.py:5:" in captured.out
    assert "REPRO001" in captured.out
    assert "problem(s) found" in captured.err


def test_missing_path_exits_two(capsys):
    assert main(["/no/such/path.py"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_format_json(bad_file, capsys):
    assert main([str(bad_file), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    d = payload[0]
    assert d["code"] == "REPRO001"
    assert d["rule"] == "accounting"
    assert d["line"] == 5
    assert d["path"].endswith("injected.py")


def test_list_rules_includes_new_catalog(tmp_path, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for n in range(7):
        assert f"REPRO00{n}" in out
    # REPRO010-013 are runtime verifier codes only, not static rules.
    for code in ("REPRO010", "REPRO011", "REPRO012", "REPRO013"):
        assert code not in out

    pkg = tmp_path / "src" / "repro" / "ns"
    pkg.mkdir(parents=True)
    f = pkg / "waived.py"
    f.write_text("x = 1\n")
    assert main([str(f), "--select", "tag-pairing"]) == 2
    assert "unknown rule" in capsys.readouterr().err
    f.write_text("x = 1  # repro: waive[REPRO010] peer uses dynamic tags\n")
    assert main([str(f)]) == 1
    out = capsys.readouterr().out
    assert "REPRO000" in out
    assert "unknown rule(s): ['REPRO010']" in out


def test_select_restricts_and_forces_scope(tmp_path, capsys):
    f = tmp_path / "fake_test.py"
    f.write_text(
        "import numpy as np\n\n\ndef noise(n):\n    return np.random.randn(n)\n"
    )
    # Outside the repro tree nothing fires by default...
    assert main([str(f)]) == 0
    # ...but the seed audit forces REPRO004 everywhere.
    assert main([str(f), "--select", "REPRO004"]) == 1
    assert "REPRO004" in capsys.readouterr().out
    # And --select filters out other rules' findings.
    assert main([str(f), "--select", "wall-clock"]) == 0


def test_select_unknown_rule_exits_two(clean_file, capsys):
    assert main([str(clean_file), "--select", "REPRO999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_unknown_waiver_rule_exits_nonzero(tmp_path, capsys):
    pkg = tmp_path / "src" / "repro" / "ns"
    pkg.mkdir(parents=True)
    f = pkg / "waived.py"
    f.write_text("x = 1  # repro: waive[no-such-rule] because\n")
    assert main([str(f)]) == 1
    assert "REPRO000" in capsys.readouterr().out


def test_stale_waiver_exits_nonzero(tmp_path, capsys):
    pkg = tmp_path / "src" / "repro" / "ns"
    pkg.mkdir(parents=True)
    f = pkg / "waived.py"
    f.write_text("x = 1  # repro: waive[raw-numpy] nothing here to waive\n")
    assert main([str(f)]) == 1
    out = capsys.readouterr().out
    assert "stale waiver" in out
    assert "REPRO000" in out

