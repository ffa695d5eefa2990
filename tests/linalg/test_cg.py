import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg.cg import pcg, pcg_block
from repro.linalg.counters import OpCounter


def random_spd(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


@given(st.integers(2, 25), st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_pcg_solves_random_spd(n, seed):
    a = random_spd(n, seed)
    b = np.random.default_rng(seed + 1).standard_normal(n)
    res = pcg(lambda v: a @ v, b, np.diag(a), tol=1e-12)
    assert res.converged
    np.testing.assert_allclose(a @ res.x, b, rtol=1e-7, atol=1e-7)


def test_pcg_zero_rhs():
    a = random_spd(5, 3)
    res = pcg(lambda v: a @ v, np.zeros(5), np.diag(a))
    assert res.converged
    assert res.iterations == 0
    np.testing.assert_array_equal(res.x, np.zeros(5))


def test_pcg_identity_converges_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    res = pcg(lambda v: v.copy(), b, np.ones(3), tol=1e-14)
    assert res.converged
    assert res.iterations <= 2
    np.testing.assert_allclose(res.x, b)


def test_pcg_maxiter_reports_nonconvergence():
    a = random_spd(30, 7)
    b = np.ones(30)
    res = pcg(lambda v: a @ v, b, np.diag(a), tol=1e-14, maxiter=1)
    assert not res.converged
    assert res.iterations == 1


def test_pcg_rejects_nonpositive_diag():
    with pytest.raises(ValueError):
        pcg(lambda v: v, np.ones(3), np.array([1.0, 0.0, 1.0]))


def test_pcg_rejects_indefinite_operator():
    a = -np.eye(4)
    with pytest.raises(np.linalg.LinAlgError):
        pcg(lambda v: a @ v, np.ones(4), np.ones(4))


@pytest.mark.parametrize("poison", ["rhs", "operator"])
def test_pcg_rejects_nan_within_one_iteration(poison):
    # `pap <= 0.0` is False for NaN: a NaN right-hand side or operator
    # used to run all 10 n + 100 iterations before reporting "residual nan".
    a = random_spd(50, 9)
    b = np.ones(50)
    if poison == "rhs":
        b[7] = np.nan
    matvecs = []

    def apply(v):
        matvecs.append(1)
        out = a @ v
        if poison == "operator":
            out[3] = np.nan
        return out

    with OpCounter() as c:
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            pcg(apply, b, np.diag(a))
    assert len(matvecs) == 1
    # Set-up (dvmul, ddot, two dnrm2) and the one p.Ap ddot of the raise.
    assert c.calls == 5
    assert c.by_label["ddot"][2] == 2


def test_pcg_indefinite_message_names_pap():
    with pytest.raises(np.linalg.LinAlgError, match=r"not positive definite \(p\^T A p = -4\.0\)"):
        pcg(lambda v: -v, np.ones(4), np.ones(4))


def test_pcg_jacobi_preconditioner_helps_on_scaled_system():
    # Badly scaled diagonal system: Jacobi preconditioning solves in O(1) iters.
    d = np.logspace(0, 8, 40)
    b = np.ones(40)
    res = pcg(lambda v: d * v, b, d, tol=1e-12)
    assert res.converged
    assert res.iterations <= 5
    np.testing.assert_allclose(d * res.x, b, rtol=1e-8)


def test_pcg_block_is_one_pcg_per_row():
    a = random_spd(8, 5)
    b = np.random.default_rng(6).standard_normal((3, 8))
    b[1] = 0.0
    results = pcg_block(lambda v: a @ v, b, np.diag(a), tol=1e-12)
    for row, res in zip(b, results):
        solo = pcg(lambda v: a @ v, row, np.diag(a), tol=1e-12)
        np.testing.assert_array_equal(res.x, solo.x)
        assert (res.iterations, res.residual) == (solo.iterations, solo.residual)
    assert results[1].iterations == 0
    with pytest.raises(ValueError, match="RHS block"):
        pcg_block(lambda v: a @ v, b[0], np.diag(a))


@given(
    hnp.arrays(
        np.float64,
        st.integers(0, 40),
        elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    )
)
@example(np.zeros(5))
@example(np.full(7, 5e-324))  # subnormals: r.r underflows to zero
@example(np.full(3, 1e300))  # r.r overflows to inf
@example(np.array([1e154, 3e-160, -0.0]))
@settings(max_examples=200, deadline=None)
def test_residual_norm_is_linalg_norm_bit_for_bit(r):
    """pcg's residual norm, math.sqrt(r.dot(r)), is what np.linalg.norm
    evaluates for a 1-D float64 array, so iterates and counts do not
    move by a bit."""
    with np.errstate(over="ignore"):
        got, want = np.float64(math.sqrt(r.dot(r))), np.float64(np.linalg.norm(r))
    assert got.tobytes() == want.tobytes()
