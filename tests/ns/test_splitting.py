import pytest

from repro.ns.splitting import SplittingHistory, stiffly_stable


def test_table_order2_matches_paper():
    s = stiffly_stable(2)
    assert s.gamma0 == pytest.approx(1.5)
    assert s.alpha == (2.0, -0.5)
    assert s.beta == (2.0, -1.0)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_consistency_conditions(order):
    s = stiffly_stable(order)
    assert sum(s.alpha) == pytest.approx(s.gamma0)
    assert sum(s.beta) == pytest.approx(1.0)
    assert len(s.alpha) == len(s.beta) == order


@pytest.mark.parametrize("order", [1, 2, 3])
def test_bdf_order_conditions(order):
    # Exactness for polynomials: gamma0 * t^k - sum alpha_q (t - q dt)^k
    # must equal k * dt * t^{k-1} * sum(beta...) consistency up to `order`.
    # Equivalent standard check: sum_q alpha_q q^k = gamma0*0^k - k*(-1)^k...
    # Use the direct form: the BDF derivative of t^k at t=0 with nodes
    # -1..-order must equal k * 0^{k-1}.
    s = stiffly_stable(order)
    for k in range(order + 1):
        # d/dt t^k at t = 0 using u^{n+1} at 0 and u^{n-q} at -(q+1):
        lhs = s.gamma0 * (0.0**k if k else 1.0) - sum(
            a * (-(q + 1.0)) ** k for q, a in enumerate(s.alpha)
        )
        expect = 1.0 if k == 1 else 0.0
        assert lhs == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_extrapolation_order_conditions(order):
    # beta extrapolates values at -(q+1) to 0 exactly for degree < order.
    s = stiffly_stable(order)
    for k in range(order):
        val = sum(b * (-(q + 1.0)) ** k for q, b in enumerate(s.beta))
        expect = 0.0**k if k else 1.0
        assert val == pytest.approx(expect, abs=1e-12)


def test_invalid_order():
    with pytest.raises(ValueError):
        stiffly_stable(0)
    with pytest.raises(ValueError):
        stiffly_stable(4)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_history_ramps_up_and_extrapolates_linear_data_exactly(order):
    # The start-up ramp runs orders 1, 2, ..., J and then stays at J;
    # at most J entries are kept, newest first.  On data linear in the
    # step index the beta sums extrapolate exactly once J >= 2, and the
    # alpha sums reproduce gamma0 * u for constant data.
    h = SplittingHistory(order)
    for n in range(order + 2):
        s = h.scheme()
        assert s == stiffly_stable(min(n + 1, order))
        u, nl, w = (1.0, 2.0), (0.0, 0.0), (float(n),)
        uh = h.extrapolate(u, nl, dt=0.1)
        assert uh == pytest.approx((s.gamma0, 2.0 * s.gamma0))
        (w_e,) = h.vorticity(w)
        if s.order >= 2:
            assert w_e == pytest.approx(n + 1.0)
        h.push(u, nl, w)
        assert len(h) == min(n + 1, order)
        assert h.entries[0] == (u, nl, w)
    h.clear()
    assert len(h) == 0 and h.scheme().order == 1
