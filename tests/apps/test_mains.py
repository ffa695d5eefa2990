"""Smoke tests: every CLI entry point runs and prints its artifact."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def test_serial_bluff_main(capsys):
    from repro.apps import serial_bluff

    out = serial_bluff.main([])
    assert "Table 1" in out
    assert "Pentium II" in out


def test_nektar_f_main(capsys):
    from repro.apps import nektar_f_bench

    out = nektar_f_bench.main(["--breakdown", "--procs", "4"])
    assert "Table 2" in out
    assert "Figures 13-14" in out


def test_ale_main(capsys):
    from repro.apps import ale_bench

    out = ale_bench.main(["--breakdown", "16"])
    assert "Table 3" in out
    assert "Figures 15-16" in out


def test_cost_main(capsys):
    from repro.apps import cost_of_ownership

    out = cost_of_ownership.main(["--procs", "4"])
    assert "cost-effectiveness" in out


@pytest.mark.parametrize("figure", ["7", "8"])
def test_kernel_report_main(capsys, figure):
    from repro.apps import kernel_report

    out = kernel_report.main(["--figure", figure])
    assert "Figure" in out


def test_repro_module_menu(capsys):
    from repro.__main__ import main

    assert main([]) == 0
    captured = capsys.readouterr()
    assert "Fact or Fiction" in captured.out


@pytest.mark.parametrize(
    "app",
    [
        "ale_bench",
        "cost_of_ownership",
        "kernel_report",
        "matrix_structure",
        "nektar_f_bench",
        "serial_bluff",
    ],
)
def test_app_runs_as_main_without_a_double_import(app):
    """``python -m repro.apps.<app>`` must find the module not yet
    imported by its package: runpy warns (here: fails) otherwise."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", f"repro.apps.{app}", "--help"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
