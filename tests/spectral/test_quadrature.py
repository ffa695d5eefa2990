import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spectral.quadrature import quad_rule, tri_rule


def test_quad_rule_area():
    r = quad_rule(3)
    assert r.integrate(np.ones(r.nq)) == pytest.approx(4.0)


def test_tri_rule_area():
    r = tri_rule(3)
    assert r.integrate(np.ones(r.nq)) == pytest.approx(2.0)


def test_points_flattening_convention():
    r = quad_rule(3)
    A, B = r.points
    # a index fastest: first 3 entries share b.
    assert np.allclose(B[:3], B[0])
    assert not np.allclose(A[:3], A[0])
    assert A.size == B.size == r.nq == 9


@given(st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=36, deadline=None)
def test_quad_rule_monomial_exactness(p, q):
    r = quad_rule(6)
    A, B = r.points
    val = r.integrate(A**p * B**q)
    ia = 2.0 / (p + 1) if p % 2 == 0 else 0.0
    ib = 2.0 / (q + 1) if q % 2 == 0 else 0.0
    assert val == pytest.approx(ia * ib, abs=1e-12)


def tri_monomial_exact(p, q):
    """int over reference triangle of xi1^p xi2^q, by 1-D reduction."""
    # int_{-1}^{1} xi2^q [int_{-1}^{-xi2} xi1^p dxi1] dxi2
    #   = int xi2^q ((-xi2)^{p+1} - (-1)^{p+1})/(p+1) dxi2
    total = 0.0
    # expand ((-x)^{p+1}) term: int x^q (-x)^{p+1} dx
    e = p + 1 + q
    t1 = ((-1) ** (p + 1)) * (2.0 / (e + 1) if e % 2 == 0 else 0.0)
    t2 = -((-1) ** (p + 1)) * (2.0 / (q + 1) if q % 2 == 0 else 0.0)
    total = (t1 + t2) / (p + 1)
    return total


@given(st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_tri_rule_monomial_exactness(p, q):
    r = tri_rule(8)
    A, B = r.points
    # Map collapsed (a, b) -> reference (xi1, xi2).
    xi1 = 0.5 * (1.0 + A) * (1.0 - B) - 1.0
    xi2 = B
    val = r.integrate(xi1**p * xi2**q)
    assert val == pytest.approx(tri_monomial_exact(p, q), abs=1e-12)


def test_tri_rule_points_avoid_collapsed_vertex():
    r = tri_rule(5)
    _, B = r.points
    assert np.all(B < 1.0)
    assert np.all(B > -1.0)


def test_weights_positive():
    for r in (quad_rule(4), tri_rule(4)):
        assert np.all(r.weights > 0)


@pytest.mark.parametrize("rule_fn", [quad_rule, tri_rule])
def test_tensor_tables_are_tabulated_once_and_read_only(rule_fn):
    r = rule_fn(4)
    assert r.points is r.points and r.weights is r.weights
    for arr in (*r.points, r.weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    again = rule_fn(4)
    for a, b in zip((*r.points, r.weights), (*again.points, again.weights)):
        np.testing.assert_array_equal(a, b)
    # The formulas the tables replaced.
    pa, pb = r.rule_a.points, r.rule_b.points
    np.testing.assert_array_equal(r.points[0], np.tile(pa, pb.size))
    np.testing.assert_array_equal(r.points[1], np.repeat(pb, pa.size))
    np.testing.assert_array_equal(
        r.weights, r.scale * np.outer(r.rule_b.weights, r.rule_a.weights).ravel()
    )
