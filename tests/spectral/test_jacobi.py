import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral.jacobi import (
    gauss_jacobi,
    gauss_lobatto_jacobi,
    jacobi,
    jacobi_derivative,
)

params = st.sampled_from([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (0.5, 0.5)])


def test_low_order_explicit_forms():
    x = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(jacobi(0, 0.0, 0.0, x), np.ones_like(x))
    np.testing.assert_allclose(jacobi(1, 0.0, 0.0, x), x)  # Legendre P1
    np.testing.assert_allclose(jacobi(2, 0.0, 0.0, x), 0.5 * (3 * x**2 - 1))
    # P_1^{1,1}(x) = 2x
    np.testing.assert_allclose(jacobi(1, 1.0, 1.0, x), 2 * x)


def test_value_at_one_is_binomial():
    # P_n^{a,b}(1) = C(n+a, n)
    from math import comb

    for n in range(6):
        assert jacobi(n, 2.0, 1.0, np.array([1.0]))[0] == pytest.approx(
            comb(n + 2, n)
        )


@given(st.integers(0, 12), st.integers(0, 12), params)
@settings(max_examples=60, deadline=None)
def test_orthogonality_under_gauss_jacobi(m, n, ab):
    alpha, beta = ab
    nq = max(m, n) + 1
    x, w = gauss_jacobi(nq, alpha, beta)
    pm, pn = jacobi(m, alpha, beta, x), jacobi(n, alpha, beta, x)
    inner = float(np.sum(w * pm * pn))
    if m != n:
        assert inner == pytest.approx(0.0, abs=1e-9)
    else:
        assert inner > 0.0


@given(st.integers(1, 10), params)
@settings(max_examples=40, deadline=None)
def test_derivative_matches_finite_difference(n, ab):
    alpha, beta = ab
    x = np.linspace(-0.9, 0.9, 11)
    h = 1e-6
    fd = (jacobi(n, alpha, beta, x + h) - jacobi(n, alpha, beta, x - h)) / (2 * h)
    np.testing.assert_allclose(
        jacobi_derivative(n, alpha, beta, x), fd, rtol=1e-5, atol=1e-5
    )


def test_derivative_order_zero_and_overflow():
    x = np.linspace(-1, 1, 5)
    np.testing.assert_allclose(
        jacobi_derivative(3, 0.0, 0.0, x, k=0), jacobi(3, 0.0, 0.0, x)
    )
    np.testing.assert_array_equal(jacobi_derivative(2, 0.0, 0.0, x, k=3), 0.0)


def test_second_derivative():
    # P_3 Legendre = (5x^3 - 3x)/2, P_3'' = 15x
    x = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(
        jacobi_derivative(3, 0.0, 0.0, x, k=2), 15 * x, rtol=1e-12
    )


def test_invalid_arguments():
    with pytest.raises(ValueError):
        jacobi(-1, 0.0, 0.0, np.array([0.0]))
    with pytest.raises(ValueError):
        jacobi(2, -1.0, 0.0, np.array([0.0]))
    with pytest.raises(ValueError):
        jacobi_derivative(2, 0.0, 0.0, np.array([0.0]), k=-1)
    with pytest.raises(ValueError):
        gauss_jacobi(0)
    with pytest.raises(ValueError):
        gauss_lobatto_jacobi(1)


@given(st.integers(1, 12))
@settings(max_examples=24, deadline=None)
def test_gauss_exactness(n):
    # Exact for degree 2n-1 monomials against unit weight.
    x, w = gauss_jacobi(n)
    for d in range(2 * n):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert float(np.sum(w * x**d)) == pytest.approx(exact, abs=1e-12)


@given(st.integers(2, 12))
@settings(max_examples=22, deadline=None)
def test_lobatto_exactness_and_endpoints(n):
    x, w = gauss_lobatto_jacobi(n, 0.0, 0.0)
    assert x[0] == pytest.approx(-1.0)
    assert x[-1] == pytest.approx(1.0)
    assert np.all(np.diff(x) > 0)
    for d in range(2 * n - 2):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert float(np.sum(w * x**d)) == pytest.approx(exact, abs=1e-10)


def test_lobatto_jacobi_10_weighted_exactness():
    # Weight (1 - x): integral of x^d (1-x) over [-1,1].
    n = 6
    x, w = gauss_lobatto_jacobi(n, 1.0, 0.0)
    for d in range(2 * n - 3):
        even = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        odd = 2.0 / (d + 2) if (d + 1) % 2 == 0 else 0.0
        assert float(np.sum(w * x**d)) == pytest.approx(even - odd, abs=1e-10)


def test_gll_weights_positive_and_symmetric():
    x, w = gauss_lobatto_jacobi(8, 0.0, 0.0)
    assert np.all(w > 0)
    np.testing.assert_allclose(w, w[::-1], rtol=1e-12)
    np.testing.assert_allclose(x, -x[::-1], rtol=1e-12)


def test_gauss_jacobi_rules_are_shared_and_read_only():
    from repro.spectral.jacobi import _gauss_jacobi

    _gauss_jacobi.cache_clear()
    x, w = gauss_jacobi(5)
    # Every spelling of (5, 0, 0) is the one entry, so the one pair of arrays.
    for again in (gauss_jacobi(5, 0, 0), gauss_jacobi(5.0, 0.0, beta=0), gauss_jacobi(n=5)):
        assert again[0] is x and again[1] is w
    assert _gauss_jacobi.cache_info().currsize == 1
    # The rule is every caller's: nobody may write to it.
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    # A rule tabulated again from scratch has the same bits.
    _gauss_jacobi.cache_clear()
    fresh = gauss_jacobi(5)
    assert fresh[0] is not x
    np.testing.assert_array_equal(fresh[0], x)
    np.testing.assert_array_equal(fresh[1], w)
    with pytest.raises(ValueError):
        gauss_jacobi(0)  # not cached as a value: raises every time
    with pytest.raises(ValueError):
        gauss_jacobi(0)
