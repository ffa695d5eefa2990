import numpy as np
import pytest

from repro.benchkernels.alltoall import figure8_series, message_sizes
from repro.benchkernels.netpipe import bandwidth_series, latency_series
from repro.machines.catalog import NETWORKS, PINGPONG_FIGURE_NETWORKS

from ._simulated_oracle import simulated_alltoall, simulated_pingpong


def test_latency_series_covers_all_networks():
    s = latency_series()
    assert set(s) == set(PINGPONG_FIGURE_NETWORKS)
    for name, (x, y) in s.items():
        assert np.all(np.diff(y) >= 0)  # latency grows with size


def test_bandwidth_series_saturates():
    s = bandwidth_series()
    for name, (x, y) in s.items():
        assert y[-1] == pytest.approx(NETWORKS[name].bandwidth / 1e6, rel=0.1)


def test_figure7_claims_in_series():
    lat = latency_series()
    # RoadRunner ethernet internode is the worst latency line.
    eth0 = lat["RoadRunner, eth-internode"][1][0]
    for name, (x, y) in lat.items():
        if name != "RoadRunner, eth-internode":
            assert y[0] < eth0


def test_simulated_pingpong_matches_model():
    for name in ("T3E", "Muses, LAM", "RoadRunner, myr-internode"):
        nbytes = 65536
        measured = simulated_pingpong(name, nbytes, reps=6)
        expect = NETWORKS[name].send_time(nbytes)
        assert measured == pytest.approx(expect, rel=0.2)


def test_figure8_series_shapes():
    s4 = figure8_series(4)
    s8 = figure8_series(8)
    assert "Muses, LAM" in s4
    assert "Muses, LAM" not in s8  # only 4 nodes exist
    with pytest.raises(ValueError):
        figure8_series(1)
    # T3E dominates at large message sizes.
    big_idx = -1
    t3e = s8["T3E"][1][big_idx]
    for name, (x, y) in s8.items():
        if name != "T3E":
            assert t3e > 2 * y[big_idx]


def test_figure8_ethernet_degrades_with_p():
    s4 = figure8_series(4)
    s8 = figure8_series(8)
    eth4 = s4["RoadRunner, eth-internode"][1][-1]
    eth8 = s8["RoadRunner, eth-internode"][1][-1]
    assert eth8 < eth4
    myr4 = s4["RoadRunner, myr-internode"][1][-1]
    myr8 = s8["RoadRunner, myr-internode"][1][-1]
    assert myr8 > 0.8 * myr4


def test_simulated_alltoall_matches_model():
    r = simulated_alltoall("T3E", 4, 32768, reps=3)
    expect = NETWORKS["T3E"].alltoall_time(4, 32768)
    assert r["mean_seconds"] == pytest.approx(expect, rel=0.1)
    assert r["avg_bandwidth_mb"] > 0


def test_message_sizes_span_paper_range():
    m = message_sizes()
    assert m[0] == 1
    assert m[-1] >= 6.3e6
