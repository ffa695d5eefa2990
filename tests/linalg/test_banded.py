import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.banded import BandedSPDSolver
from repro.linalg.counters import OpCounter


def bandwidth(a: np.ndarray, tol: float = 0.0) -> int:
    """Half-bandwidth of a symmetric matrix: max |i-j| with |a_ij| > tol."""
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("bandwidth: matrix must be square")
    rows, cols = np.nonzero(np.abs(a) > tol)
    if rows.size == 0:
        return 0
    return int(np.max(np.abs(rows - cols)))


def to_banded(a: np.ndarray, kd: int) -> np.ndarray:
    """Pack the upper triangle of symmetric ``a`` into LAPACK banded storage.

    Returns the (kd+1, n) array expected by ``scipy.linalg.cholesky_banded``
    (upper form: ab[kd + i - j, j] = a[i, j] for max(0, j-kd) <= i <= j).
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    ab = np.zeros((kd + 1, n))
    for j in range(n):
        i0 = max(0, j - kd)
        ab[kd - (j - i0) : kd + 1, j] = a[i0 : j + 1, j]
    return ab


def spd_banded(n: int, kd: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - kd), j + 1):
            a[i, j] = a[j, i] = rng.uniform(-1, 1)
    # Diagonal dominance guarantees SPD.
    a += np.eye(n) * (2.0 * kd + 2.0)
    return a


def test_bandwidth_basic():
    a = np.diag(np.ones(5))
    assert bandwidth(a) == 0
    a[0, 2] = a[2, 0] = 1.0
    assert bandwidth(a) == 2
    assert bandwidth(np.zeros((4, 4))) == 0


def test_bandwidth_requires_square():
    with pytest.raises(ValueError):
        bandwidth(np.zeros((2, 3)))


def test_to_banded_roundtrip_layout():
    a = spd_banded(6, 2)
    ab = to_banded(a, 2)
    assert ab.shape == (3, 6)
    # LAPACK upper storage: ab[kd + i - j, j] == a[i, j]
    for j in range(6):
        for i in range(max(0, j - 2), j + 1):
            assert ab[2 + i - j, j] == a[i, j]


@given(st.integers(2, 20), st.integers(0, 4), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_banded_solver_matches_dense(n, kd, seed):
    kd = min(kd, n - 1)
    a = spd_banded(n, kd, seed)
    rng = np.random.default_rng(seed + 1)
    b = rng.standard_normal(n)
    solver = BandedSPDSolver.from_dense(a)
    x = solver.solve(b)
    np.testing.assert_allclose(a @ x, b, rtol=1e-9, atol=1e-9)


def test_banded_solver_detects_bandwidth():
    a = spd_banded(10, 3)
    solver = BandedSPDSolver.from_dense(a)
    assert solver.kd == 3


def test_banded_solver_multiple_rhs():
    a = spd_banded(8, 2)
    b = np.random.default_rng(2).standard_normal((8, 3))
    solver = BandedSPDSolver.from_dense(a)
    x = solver.solve(b)
    np.testing.assert_allclose(a @ x, b, rtol=1e-9, atol=1e-9)


def test_from_banded_storage():
    a = spd_banded(7, 2)
    solver = BandedSPDSolver.from_banded(to_banded(a, 2))
    b = np.ones(7)
    np.testing.assert_allclose(a @ solver.solve(b), b, rtol=1e-9)


def test_solve_before_factorise_rejected():
    s = BandedSPDSolver(n=3, kd=1)
    with pytest.raises(RuntimeError):
        s.solve(np.ones(3))


@pytest.mark.parametrize("nrhs", [1, 2, 6, 12])
def test_solve_many_is_its_columns(nrhs):
    """A row-stacked solve at a paper-size band (kd >= 128, n >= 256) is
    nrhs single solves to the bit, under one charge of the same total."""
    n, kd = 300, 130
    rng = np.random.default_rng(nrhs)
    ab = rng.uniform(-1.0, 1.0, (kd + 1, n))
    ab[kd] = 2.0 * kd + 2.0  # diagonal dominance: SPD
    solver = BandedSPDSolver.from_banded(ab)
    b = rng.standard_normal((nrhs, n))
    with OpCounter() as cm:
        x = solver.solve_many(b)
    with OpCounter() as cc:
        cols = np.stack([solver.solve(b[i]) for i in range(nrhs)])
    assert x.shape == (nrhs, n)
    assert np.array_equal(x, cols)
    assert cm.by_label["dpbtrs"][:2] == cc.by_label["dpbtrs"][:2]
    assert cm.calls == 1


def test_solve_charges_ops():
    a = spd_banded(20, 4)
    solver = BandedSPDSolver.from_dense(a)
    with OpCounter() as c:
        solver.solve(np.ones(20))
    assert c.flops == pytest.approx(4.0 * 20 * 4)
    assert c.by_label and "dpbtrs" in c.by_label
