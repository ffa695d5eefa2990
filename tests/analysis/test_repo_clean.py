"""Tier-1 registration of the invariant linter.

The whole ``src/`` tree must lint clean — this is the pytest-collected
form of ``python -m repro.analysis src/``, so any future uncharged
kernel, wall-clock call in rank code, or raw hot-path matmul fails the
ordinary test run with its file/line diagnostic in the assertion
message.  Injection tests then prove the check actually bites.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import lint_paths

SRC = Path(repro.__file__).resolve().parents[1]  # .../src


def test_source_tree_lints_clean():
    diags = lint_paths([SRC / "repro"])
    assert diags == [], "\n" + "\n".join(d.format() for d in diags)


def test_cli_exits_zero_on_clean_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(SRC / "repro")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_reports_and_fails_on_violation(tmp_path):
    bad = tmp_path / "src" / "repro" / "spectral"
    bad.mkdir(parents=True)
    f = bad / "injected.py"
    f.write_text(
        "import numpy as np\n\n\ndef kernel(a, x):\n    return np.dot(a, x)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(f)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "injected.py:5:" in proc.stdout
    assert "REPRO001" in proc.stdout


def test_cli_list_rules():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    for code in ("REPRO001", "REPRO002", "REPRO003"):
        assert code in proc.stdout


def test_injected_uncharged_kernel_fails_lint(tmp_path):
    """Acceptance: an uncharged kernel in an accounting package is caught
    with a file/line diagnostic."""
    tree = tmp_path / "repro" / "assembly"
    tree.mkdir(parents=True)
    f = tree / "evil.py"
    f.write_text(
        "import numpy as np\n\n\ndef assemble(phi, w):\n    return phi @ (w * phi.T)\n"
    )
    diags = lint_paths([tmp_path])
    assert [d.code for d in diags] == ["REPRO001"]
    assert diags[0].line == 5
    assert diags[0].path.endswith("evil.py")


def test_injected_wall_clock_in_rank_fn_fails_lint(tmp_path):
    """Acceptance: time.time() inside a rank function is caught."""
    tree = tmp_path / "repro" / "apps"
    tree.mkdir(parents=True)
    f = tree / "evil.py"
    f.write_text(
        "import time\n\n\ndef rank_main(comm):\n    return time.time()\n"
    )
    diags = lint_paths([tmp_path])
    assert [d.code for d in diags] == ["REPRO002"]
    assert diags[0].line == 5


# Every package the benchmarks/e2e workloads import at their roots.
WORKLOAD_ROOTS = (
    "repro.apps",
    "repro.apps.serial_bluff",
    "repro.ns.nektar_f",
    "repro.ns.ale",
    "repro.apps.scaling_bench",
    "repro.campaign",
    "repro.campaign.search",
)


@pytest.mark.parametrize(
    "roots,banned",
    [
        # The runtime codes live at their raise sites, so running a
        # workload never imports the linter.
        (WORKLOAD_ROOTS, ("repro.analysis",)),
        # The campaign search prices catalog machines from the catalog
        # itself, not through the paper drivers and the solvers.
        (("repro.campaign", "repro.campaign.search"), ("repro.apps", "repro.ns")),
    ],
    ids=["static-suite", "campaign-without-apps-and-ns"],
)
def test_workload_roots_do_not_load(roots, banned):
    code = (
        "import importlib, sys\n"
        f"for root in {roots!r}:\n"
        "    importlib.import_module(root)\n"
        f"banned = {banned!r}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if any(m == b or m.startswith(b + '.') for b in banned)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
