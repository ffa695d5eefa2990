import numpy as np
import pytest

from repro.benchkernels.blas_bench import (
    FIGURES,
    figure_series,
    host_measure,
    model_curve,
    sweep_sizes,
    x_axis,
)


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_sweep_sizes_sane(figure):
    n = sweep_sizes(figure)
    assert n.size > 5
    assert np.all(n >= 2)
    assert np.all(np.diff(n) > 0)


def test_sweep_sizes_unknown_figure():
    with pytest.raises(ValueError):
        sweep_sizes(9)


def test_x_axis_bytes_except_fig6():
    n = np.array([4, 8])
    np.testing.assert_array_equal(x_axis(1, n), [32, 64])
    np.testing.assert_array_equal(x_axis(6, n), [4, 8])


@pytest.mark.parametrize("figure", sorted(FIGURES))
def test_model_curves_positive(figure):
    # Every machine of both panels (Muses is in each).
    for panel in ("left", "right"):
        for x, y in figure_series(figure, panel).values():
            assert x.shape == y.shape
            assert np.all(y > 0)


def test_figure_series_panels():
    left = figure_series(1, "left")
    right = figure_series(1, "right")
    assert "Muses" in left and "Muses" in right
    assert "T3E" in right and "T3E" not in left
    with pytest.raises(ValueError):
        figure_series(1, "middle")


def test_fig1_dcopy_cache_cliff_in_series():
    x, y = model_curve("Muses", 1)
    in_l1 = y[x <= 8192].max()
    in_mem = y[x >= 4 * 1024 * 1024].min() if np.any(x >= 4 * 1024 * 1024) else y[-1]
    assert in_l1 > 2.5 * in_mem


def test_fig6_small_dgemm_rises_with_n():
    x, y = model_curve("Muses", 6)
    assert y[-1] > 2 * y[0]


def test_host_measure_runs():
    r = host_measure("daxpy", 1000, min_time=0.002)
    assert r["reps"] >= 1
    assert r["mflops"] > 0
    r2 = host_measure("dgemm", 16, min_time=0.002)
    assert r2["mflops"] > 0
    r3 = host_measure("dcopy", 512, min_time=0.002)
    assert r3["mb_per_s"] > 0
    assert r3["mflops"] == 0.0


def test_host_measure_unknown_routine():
    with pytest.raises(ValueError):
        host_measure("zcopy", 10)
