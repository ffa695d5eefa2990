import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.linalg import blas
from repro.linalg.counters import OpCounter, set_kernel_sampler

from ._vector_kernels import daxpy, dcopy, dgemv


vec = hnp.arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def test_dcopy_copies_and_counts():
    x = np.arange(5.0)
    y = np.zeros(5)
    with OpCounter() as c:
        dcopy(x, y)
    assert np.array_equal(y, x)
    assert c.flops == 0.0
    assert c.bytes == 16 * 5


def test_dcopy_shape_mismatch():
    with pytest.raises(ValueError):
        dcopy(np.zeros(3), np.zeros(4))


@given(vec, st.floats(-10, 10, allow_nan=False))
@settings(max_examples=50)
def test_daxpy_matches_reference(x, alpha):
    y = np.ones_like(x)
    expect = alpha * x + np.ones_like(x)
    daxpy(alpha, x, y)
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


def test_dnrm2():
    assert blas.dnrm2(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_dgemv_plain_and_transposed():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    x = np.array([1.0, -1.0])
    y = np.zeros(3)
    dgemv(1.0, a, x, 0.0, y)
    np.testing.assert_allclose(y, a @ x)
    xt = np.array([1.0, 0.0, -1.0])
    yt = np.ones(2)
    dgemv(2.0, a, xt, 3.0, yt, trans=True)
    np.testing.assert_allclose(yt, 2.0 * (a.T @ xt) + 3.0)


def test_dgemv_dimension_mismatch():
    with pytest.raises(ValueError):
        dgemv(1.0, np.zeros((3, 2)), np.zeros(3), 0.0, np.zeros(3))


def test_dgemm_all_transpose_combinations():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 5))
    for tb in (False, True):
        bb = b.T if tb else b
        c = rng.standard_normal((4, 5))
        expect = 0.5 * (a @ b) + 2.0 * c
        blas.dgemm(0.5, a, bb, 2.0, c, transb=tb)
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
        daxpy(1.0, np.ones(n), np.ones(n))
    assert c.flops == blas.flop_count("daxpy", n)
    assert c.bytes == blas.byte_count("daxpy", n)
    with OpCounter() as c:
        blas.dgemm(1.0, np.ones((n, n)), np.ones((n, n)), 0.0, np.zeros((n, n)))
    assert c.flops == blas.flop_count("dgemm", n)
    # vector_tape (the CG iteration's charges) is what the kernels charge.
    x, y = np.ones(n), np.ones(n)
    calls = {
        "dcopy": lambda: dcopy(x, y.copy()),
        "daxpy": lambda: daxpy(0.5, x, y.copy()),
        "ddot": lambda: blas.ddot(x, y),
        "dnrm2": lambda: blas.dnrm2(x),
        "dvmul": lambda: blas.dvmul(x, y, np.empty(n)),
    }
    seq = []
    set_kernel_sampler(lambda f, b, label: seq.append((f, b, label)))
    try:
        for call in calls.values():
            call()
    finally:
        set_kernel_sampler(None)
    assert tuple(seq) == blas.vector_tape(tuple(calls), n)


@pytest.mark.parametrize("n", [1, 7, 64])
def test_cost_table_is_what_each_figure_routine_charges(n):
    # The CPU model prices Figures 1-6 from flop_count / byte_count; they
    # must be the charges of one counted call on size-n (square) operands.
    from repro.machines.cpu import ROUTINES

    x, y = np.ones(n), np.ones(n)
    a, b, c = np.ones((n, n)), np.ones((n, n)), np.zeros((n, n))
    calls = {
        "dcopy": lambda: dcopy(x, y),
        "daxpy": lambda: daxpy(0.5, x, y),
        "ddot": lambda: blas.ddot(x, y),
        "dgemv": lambda: dgemv(1.0, a, x, 0.0, y),
        "dgemm": lambda: blas.dgemm(1.0, a, b, 0.0, c),
    }
    assert tuple(calls) == ROUTINES
    for routine, call in calls.items():
        with OpCounter() as counter:
            call()
        assert (counter.flops, counter.bytes) == (
            blas.flop_count(routine, n),
            blas.byte_count(routine, n),
        ), routine


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
                dgemv(alpha, ai, x[i], beta, yp[i], trans=trans)
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


@pytest.mark.parametrize("a_strided", [False, True])
@pytest.mark.parametrize("transb", [False, True])
def test_dgemm_batched_matches_dgemm(a_strided, transb):
    rng = np.random.default_rng(2)
    nb, m, n, k = 4, 3, 5, 6
    # A strided A stack (a transposed view) takes the contiguous-copy path.
    if a_strided:
        a = rng.standard_normal((nb, k, m)).swapaxes(-1, -2)
    else:
        a = rng.standard_normal((nb, m, k))
    b = rng.standard_normal((nb, n, k) if transb else (nb, k, n))
    c = rng.standard_normal((nb, m, n))
    for alpha, beta in ((1.0, 0.0), (0.5, 0.0), (2.0, -1.0)):
        cb_ = c.copy()
        with OpCounter() as cnt_b:
            blas.dgemm_batched(alpha, a, b, beta, cb_, transb=transb)
        cp_ = c.copy()
        with OpCounter() as cnt_p:
            for i in range(nb):
                blas.dgemm(alpha, a[i], b[i], beta, cp_[i], transb=transb)
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
