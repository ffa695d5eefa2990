"""Bench smoke reports pinned exactly in ``tests/goldens.json``.

The scaling (with its ``critpath`` subtree), resilience and campaign
harnesses print nothing but virtual clocks, byte/message ledgers,
scheduler counters and critical-path attribution next to a few host
``*_s`` timings.  Everything but the timings is a deterministic
property of the pricing model and the cooperative schedule, so it is
compared with ``rel=0.0``: a drift fails here, in tier-1, on every
interpreter CI runs.  The harnesses' own ``AssertionError`` gates
(monotone curves, counterfactual ordering, bitwise crash recovery) run
inside ``run_bench``; the reports are taken from the ``main`` entry
points, so the shared write-JSON / append-ledger epilogue is on the
path too.
"""

import dataclasses
import importlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.apps import campaign as campaign_cli
from repro.apps import resilience_bench, scaling_bench
from repro.obs.runlog import RunLedger, is_timing_key
from tests import golden


def deterministic(report):
    """``report`` without its host-timing keys."""
    if isinstance(report, dict):
        return {
            k: deterministic(v)
            for k, v in report.items()
            if not is_timing_key(k)
        }
    if isinstance(report, list):
        return [deterministic(v) for v in report]
    return report


def bench_smoke(bench) -> dict:
    """``bench.main --smoke``: what it returns is what it wrote to
    ``--out`` and logged to ``--ledger``."""
    with tempfile.TemporaryDirectory() as tmp:
        out, ledger = Path(tmp, "BENCH.json"), Path(tmp, "RUNLOG.jsonl")
        results = bench.main(
            ["--smoke", "--out", str(out), "--ledger", str(ledger)]
        )
        assert json.loads(out.read_text()) == golden.jsonable(results)
        (record,) = RunLedger(ledger).records()
        assert record["config"] == results["config"]
    return deterministic(results)


def campaign_smoke() -> dict:
    """The 24-job smoke matrix killed after 9 records, then resumed:
    the report must not remember the interruption."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["run", "--smoke", "--ledger", f"{tmp}/RUNLOG.jsonl"]
        argv += ["--artifacts", f"{tmp}/graphs"]
        campaign_cli.main(argv + ["--stop-after", "9"])
        out = Path(tmp, "BENCH_campaign.json")
        assert campaign_cli.main(argv + ["--out", str(out)]) == 0
        return deterministic(json.loads(out.read_text()))


GOLDEN_SECTIONS = {
    "smoke.scaling": lambda: bench_smoke(scaling_bench),
    "smoke.resilience": lambda: bench_smoke(resilience_bench),
    "smoke.campaign": campaign_smoke,
}


@pytest.mark.parametrize("section", sorted(GOLDEN_SECTIONS))
def test_smoke_report_golden(section):
    golden.check(section, GOLDEN_SECTIONS[section](), rel=0.0)


def test_the_pin_bites(monkeypatch):
    slower = dataclasses.replace(scaling_bench.NETWORK, latency_us=11)
    monkeypatch.setattr(scaling_bench, "NETWORK", slower)
    with pytest.raises(AssertionError, match=r"alltoall\[0\]\.wall_virtual"):
        golden.check("smoke.scaling", bench_smoke(scaling_bench), rel=0.0)


def test_every_golden_section_has_one_owner():
    """A deleted test cannot leave a dead pin, and ``python -m
    tests.golden`` cannot forget a new section."""
    owned = [
        section
        for name in golden.MODULES
        for section in importlib.import_module(name).GOLDEN_SECTIONS
    ]
    assert len(owned) == len(set(owned))
    assert set(owned) == set(golden.load())
