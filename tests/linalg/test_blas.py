import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg import blas
from repro.linalg.counters import OpCounter

vec = hnp.arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def test_dcopy_copies_and_counts():
    x = np.arange(5.0)
    y = np.zeros(5)
    with OpCounter() as c:
        blas.dcopy(x, y)
    assert np.array_equal(y, x)
    assert c.flops == 0.0
    assert c.bytes == 16 * 5


def test_dcopy_shape_mismatch():
    with pytest.raises(ValueError):
        blas.dcopy(np.zeros(3), np.zeros(4))


@given(vec, st.floats(-10, 10, allow_nan=False))
@settings(max_examples=50)
def test_daxpy_matches_reference(x, alpha):
    y = np.ones_like(x)
    expect = alpha * x + np.ones_like(x)
    blas.daxpy(alpha, x, y)
    np.testing.assert_allclose(y, expect, rtol=1e-13, atol=1e-9)


@given(vec)
@settings(max_examples=50)
def test_ddot_matches_numpy(x):
    y = x[::-1].copy()
    assert blas.ddot(x, y) == pytest.approx(float(np.dot(x, y)), rel=1e-12, abs=1e-6)


def test_ddot_flop_count():
    with OpCounter() as c:
        blas.ddot(np.ones(100), np.ones(100))
    assert c.flops == 200


def test_dscal_in_place():
    x = np.arange(1.0, 5.0)
    out = blas.dscal(2.0, x)
    assert out is x
    np.testing.assert_array_equal(x, [2.0, 4.0, 6.0, 8.0])


def test_dnrm2():
    assert blas.dnrm2(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_dgemv_plain_and_transposed():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    x = np.array([1.0, -1.0])
    y = np.zeros(3)
    blas.dgemv(1.0, a, x, 0.0, y)
    np.testing.assert_allclose(y, a @ x)
    xt = np.array([1.0, 0.0, -1.0])
    yt = np.ones(2)
    blas.dgemv(2.0, a, xt, 3.0, yt, trans=True)
    np.testing.assert_allclose(yt, 2.0 * (a.T @ xt) + 3.0)


def test_dgemv_dimension_mismatch():
    with pytest.raises(ValueError):
        blas.dgemv(1.0, np.zeros((3, 2)), np.zeros(3), 0.0, np.zeros(3))


def test_dgemm_all_transpose_combinations():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 5))
    for ta in (False, True):
        for tb in (False, True):
            aa = a.T if ta else a
            bb = b.T if tb else b
            c = rng.standard_normal((4, 5))
            expect = 0.5 * (a @ b) + 2.0 * c
            blas.dgemm(0.5, aa, bb, 2.0, c, transa=ta, transb=tb)
            np.testing.assert_allclose(c, expect, rtol=1e-12)


def test_dgemm_beta_zero_ignores_garbage():
    a = np.eye(3)
    b = np.arange(9.0).reshape(3, 3)
    c = np.full((3, 3), np.nan)
    blas.dgemm(1.0, a, b, 0.0, c)
    np.testing.assert_allclose(c, b)


def test_dgemm_flop_count():
    with OpCounter() as c:
        blas.dgemm(1.0, np.ones((2, 3)), np.ones((3, 4)), 0.0, np.zeros((2, 4)))
    assert c.flops == 2 * 2 * 3 * 4


def test_vector_kernels():
    x = np.array([1.0, 2.0, 3.0])
    y = np.array([4.0, 5.0, 6.0])
    z = np.empty(3)
    blas.dvmul(x, y, z)
    np.testing.assert_array_equal(z, [4.0, 10.0, 18.0])


def test_analytic_counts_match_kernels():
    n = 37
    with OpCounter() as c:
        blas.daxpy(1.0, np.ones(n), np.ones(n))
    assert c.flops == blas.flop_count("daxpy", n)
    assert c.bytes == blas.byte_count("daxpy", n)
    with OpCounter() as c:
        blas.dgemm(1.0, np.ones((n, n)), np.ones((n, n)), 0.0, np.zeros((n, n)))
    assert c.flops == blas.flop_count("dgemm", n)


def test_unknown_routine_rejected():
    with pytest.raises(ValueError):
        blas.flop_count("zgemm", 4)
    with pytest.raises(ValueError):
        blas.byte_count("zgemm", 4)


def test_counters_nest():
    outer = OpCounter()
    with outer:
        blas.ddot(np.ones(10), np.ones(10))
        with OpCounter() as inner:
            blas.ddot(np.ones(10), np.ones(10))
        assert inner.flops == 20
    assert outer.flops == 40
    assert outer.by_label["ddot"][2] == 2


def test_counter_inactive_is_noop():
    # No active counter: kernels still work.
    assert blas.ddot(np.ones(4), np.ones(4)) == pytest.approx(4.0)


# -- batched kernels -----------------------------------------------------------


def test_ddot_batched_matches_ddot():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 4, 7))
    y = rng.standard_normal((3, 4, 7))
    with OpCounter() as cb:
        out = blas.ddot_batched(x, y)
    assert out.shape == (3, 4)
    with OpCounter() as cp:
        ref = np.array([[blas.ddot(x[i, j], y[i, j]) for j in range(4)] for i in range(3)])
    np.testing.assert_allclose(out, ref, atol=1e-12)
    assert (cb.flops, cb.bytes) == (cp.flops, cp.bytes)
    with pytest.raises(ValueError):
        blas.ddot_batched(x, y[:, :2])


@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("shared", [False, True])
def test_dgemv_batched_matches_dgemv(trans, shared):
    rng = np.random.default_rng(1)
    nb, m, n = 5, 4, 6
    a_stack = rng.standard_normal((nb, m, n))
    a = a_stack[0] if shared else a_stack
    x = rng.standard_normal((nb, m if trans else n))
    y = rng.standard_normal((nb, n if trans else m))
    for alpha, beta in ((1.0, 0.0), (2.0, 0.5), (-1.0, 1.0)):
        yb = y.copy()
        with OpCounter() as cb:
            blas.dgemv_batched(alpha, a, x, beta, yb, trans=trans)
        yp = y.copy()
        with OpCounter() as cp:
            for i in range(nb):
                ai = a if shared else a[i]
                blas.dgemv(alpha, ai, x[i], beta, yp[i], trans=trans)
        np.testing.assert_allclose(yb, yp, atol=1e-12)
        assert (cb.flops, cb.bytes) == (cp.flops, cp.bytes)
        for lab, (fp, bp, _) in cp.by_label.items():
            fb, bb, _ = cb.by_label[lab]
            assert (fb, bb) == (fp, bp)


def test_dgemv_batched_validation():
    a = np.zeros((3, 4, 5))
    with pytest.raises(ValueError, match="float64"):
        blas.dgemv_batched(1.0, a, np.zeros((3, 5)), 0.0, np.zeros((3, 4), np.float32))
    with pytest.raises(ValueError, match="dimension mismatch"):
        blas.dgemv_batched(1.0, a, np.zeros((3, 6)), 0.0, np.zeros((3, 4)))
    with pytest.raises(ValueError, match="batch-shape mismatch"):
        blas.dgemv_batched(1.0, a, np.zeros((2, 5)), 0.0, np.zeros((2, 4)))
    with pytest.raises(ValueError, match=">= 2-D"):
        blas.dgemv_batched(1.0, np.zeros(4), np.zeros((3, 5)), 0.0, np.zeros((3, 4)))


@pytest.mark.parametrize("transa", [False, True])
@pytest.mark.parametrize("transb", [False, True])
def test_dgemm_batched_matches_dgemm(transa, transb):
    rng = np.random.default_rng(2)
    nb, m, n, k = 4, 3, 5, 6
    a = rng.standard_normal((nb, k, m) if transa else (nb, m, k))
    b = rng.standard_normal((nb, n, k) if transb else (nb, k, n))
    c = rng.standard_normal((nb, m, n))
    for alpha, beta in ((1.0, 0.0), (0.5, 0.0), (2.0, -1.0)):
        cb_ = c.copy()
        with OpCounter() as cnt_b:
            blas.dgemm_batched(alpha, a, b, beta, cb_, transa=transa, transb=transb)
        cp_ = c.copy()
        with OpCounter() as cnt_p:
            for i in range(nb):
                blas.dgemm(alpha, a[i], b[i], beta, cp_[i], transa=transa, transb=transb)
        np.testing.assert_allclose(cb_, cp_, atol=1e-12)
        assert (cnt_b.flops, cnt_b.bytes) == (cnt_p.flops, cnt_p.bytes)


def test_dgemm_batched_shared_operands_and_validation():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 4))        # shared
    b = rng.standard_normal((5, 4, 2))     # stacked
    c = np.zeros((5, 3, 2))
    with OpCounter() as cnt:
        blas.dgemm_batched(1.0, a, b, 0.0, c)
    ref = np.stack([a @ b[i] for i in range(5)])
    np.testing.assert_allclose(c, ref, atol=1e-12)
    assert cnt.flops == 5 * 2 * 3 * 2 * 4
    with pytest.raises(ValueError, match="dimension mismatch"):
        blas.dgemm_batched(1.0, a, b, 0.0, np.zeros((5, 3, 3)))
    with pytest.raises(ValueError, match="batch-shape mismatch"):
        blas.dgemm_batched(1.0, a, b[:4], 0.0, c)
    with pytest.raises(ValueError, match="float64"):
        blas.dgemm_batched(1.0, a, b, 0.0, np.zeros((5, 3, 2), np.float32))
    with pytest.raises(ValueError, match=">= 2-D"):
        blas.dgemm_batched(1.0, a, b, 0.0, np.zeros(3))
