import pytest

from repro.apps.pricing import STAGE_KINDS, price_stages, total_time
from repro.apps.serial_bluff import (
    TABLE1_PAPER,
    figure12,
    measure_reduced,
    paper_stage_flops,
    table1,
)
from repro.machines.catalog import CPUS
from repro.ns.stages import STAGES


@pytest.fixture(scope="module")
def measured():
    return measure_reduced()


def test_measure_reduced_structure(measured):
    assert set(measured["stage_flops"]) == set(STAGES)
    assert all(f > 0 for f in measured["stage_flops"].values())
    assert measured["bandwidth"] > 0
    assert measured["ndof"] > 100


def test_pricing_validation():
    cpu = CPUS["pentium-ii-450"]
    secs = price_stages(cpu, {s: 1e6 for s in STAGES})
    assert set(secs) == set(STAGES)
    assert all(v > 0 for v in secs.values())
    with pytest.raises(ValueError):
        price_stages(cpu, {"5:pressure-solve": -1.0})
    assert total_time(secs) == pytest.approx(sum(secs.values()))


def test_stage_kinds_cover_all_stages():
    assert set(STAGE_KINDS) == set(STAGES)


def test_paper_stage_flops_larger_than_reduced(monkeypatch, measured):
    from repro.apps import serial_bluff

    monkeypatch.setattr(serial_bluff, "_CACHE", {})
    monkeypatch.setattr(serial_bluff, "measure_reduced", lambda: measured)
    paper = paper_stage_flops()
    for s in STAGES:
        assert paper[s] > measured["stage_flops"][s]


def test_paper_stage_flops_builds_each_cached_input_once(monkeypatch, measured):
    """The reduced run and the paper-size statistics are each built once
    per process: nothing cached is rebuilt."""
    from repro.apps import serial_bluff

    calls = {"stats": 0, "measure": 0}
    real_stats = serial_bluff._paper_dofmap_stats

    def stats(*args, **kw):
        calls["stats"] += 1
        return real_stats(*args, **kw)

    def measure(*args, **kw):
        calls["measure"] += 1
        return measured

    monkeypatch.setattr(serial_bluff, "_CACHE", {})
    monkeypatch.setattr(serial_bluff, "_paper_dofmap_stats", stats)
    monkeypatch.setattr(serial_bluff, "measure_reduced", measure)
    first = paper_stage_flops()
    assert paper_stage_flops() == first
    assert paper_stage_flops() == first
    assert calls == {"stats": 1, "measure": 1}


def test_table1_reproduces_paper_ordering():
    rows = {name: model for name, model, _ in table1()}
    # Normalised to the PII anchor.
    assert rows["Pentium II, 450MHz"] == pytest.approx(0.81)
    # The headline claim: only P2SC beats the PC; T3E is comparable.
    assert rows["P2SC, 160MHz"] < rows["Pentium II, 450MHz"]
    assert rows["Alpha 21164A, 450MHz (T3E)"] == pytest.approx(
        rows["Pentium II, 450MHz"], rel=0.2
    )
    for slow in (
        "Power2, 66MHz (Thin2)",
        "PowerPC 604e, 332MHz (Silver)",
        "UltraSPARC, 300MHz (AP3000)",
        "R10000, 195MHz (Onyx2)",
    ):
        assert rows[slow] > rows["Pentium II, 450MHz"]


def test_table1_within_factor_of_paper():
    for name, model, paper in table1():
        assert model == pytest.approx(paper, rel=0.45), name


def test_figure12_structure():
    fig = figure12()
    assert len(fig) == 2
    for machine, pct in fig.items():
        assert set(pct) == set(STAGES)
        assert sum(pct.values()) == pytest.approx(100.0)
        # The paper's headline: the two solves dominate the timestep,
        # with RHS setup next.
        solves = pct["5:pressure-solve"] + pct["7:viscous-solve"]
        rhs = pct["4:pressure-rhs"] + pct["6:viscous-rhs"]
        assert solves > 35.0
        assert rhs > 10.0
        assert solves > rhs
    _ = TABLE1_PAPER
