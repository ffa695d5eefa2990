import time

import pytest

from repro.util.timing import StageTimer, cpu_clock, wall_clock


def test_clocks_monotonic():
    c0, w0 = cpu_clock(), wall_clock()
    x = sum(i * i for i in range(10000))
    assert x > 0
    assert cpu_clock() >= c0
    assert wall_clock() >= w0


def test_stage_timer_accumulates():
    t = StageTimer()
    with t.stage("a"):
        time.sleep(0.005)
    with t.stage("a"):
        time.sleep(0.005)
    with t.stage("b"):
        pass
    assert t.records["a"].calls == 2
    assert t.records["a"].wall >= 0.008
    assert t.records["b"].calls == 1


def test_stage_timer_direct_add_and_percentages():
    t = StageTimer()
    t.add("x", cpu=3.0)
    t.add("y", cpu=1.0, wall=2.0)
    pct_cpu = t.percentages("cpu")
    assert pct_cpu["x"] == pytest.approx(75.0)
    assert pct_cpu["y"] == pytest.approx(25.0)
    pct_wall = t.percentages("wall")
    assert pct_wall["x"] == pytest.approx(60.0)
    assert pct_wall["y"] == pytest.approx(40.0)


def test_stage_timer_percentages_empty():
    t = StageTimer()
    assert t.percentages() == {}
    t.add("z", cpu=0.0)
    assert t.percentages() == {"z": 0.0}


def test_stage_timer_reset():
    t = StageTimer()
    t.add("s", cpu=1.0)
    t.reset()
    assert t.records == {}
    assert t.total() == 0.0


def test_stage_timer_percentages_wall_zero_total():
    t = StageTimer()
    t.add("x", cpu=1.0, wall=0.0)
    t.add("y", cpu=3.0, wall=0.0)
    # cpu percentages are well-defined, wall total is zero -> all 0.0.
    assert t.percentages("cpu")["y"] == pytest.approx(75.0)
    assert t.percentages(kind="wall") == {"x": 0.0, "y": 0.0}


def test_stage_timer_breakdown():
    t = StageTimer()
    t.add("2:nonlinear", cpu=2.0, wall=5.0)
    t.add("5:solve", cpu=3.0, wall=3.0)
    bd = t.breakdown()
    assert bd["2:nonlinear"] == {
        "cpu": 2.0,
        "wall": 5.0,
        "idle": 3.0,
        "calls": 1.0,
    }
    assert bd["5:solve"]["idle"] == 0.0
    # cpu > wall (host-timer jitter) clamps idle at zero.
    t2 = StageTimer()
    t2.add("s", cpu=2.0, wall=1.0)
    assert t2.breakdown()["s"]["idle"] == 0.0
    assert StageTimer().breakdown() == {}
