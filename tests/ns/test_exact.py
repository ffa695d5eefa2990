import numpy as np
import pytest

from .._exact import Kovasznay, TaylorVortex



def fd_grad(f, x, y, h=1e-6):
    return (f(x + h, y) - f(x - h, y)) / (2 * h), (f(x, y + h) - f(x, y - h)) / (
        2 * h
    )


def test_kovasznay_divergence_free():
    kv = Kovasznay(40.0)
    x = np.linspace(-0.4, 0.9, 7)
    y = np.linspace(-0.4, 0.9, 7)
    dudx, _ = fd_grad(kv.u, x, y)
    _, dvdy = fd_grad(kv.v, x, y)
    np.testing.assert_allclose(dudx + dvdy, 0.0, atol=1e-6)


def test_kovasznay_satisfies_momentum():
    kv = Kovasznay(40.0)
    h = 1e-5
    x = np.linspace(-0.3, 0.8, 5)
    y = np.linspace(-0.2, 0.7, 5)
    u, v = kv.u(x, y), kv.v(x, y)
    dudx, dudy = fd_grad(kv.u, x, y, h)
    dpdx, _ = fd_grad(kv.p, x, y, h)
    lap_u = (
        kv.u(x + h, y) + kv.u(x - h, y) + kv.u(x, y + h) + kv.u(x, y - h) - 4 * u
    ) / h**2
    resid = u * dudx + v * dudy + dpdx - kv.nu * lap_u
    np.testing.assert_allclose(resid, 0.0, atol=1e-4)


def test_taylor_divergence_free_and_decay():
    tv = TaylorVortex(nu=0.1)
    x = np.linspace(0, 2, 6)
    y = np.linspace(0, 2, 6)
    dudx, _ = fd_grad(lambda a, b: tv.u(a, b, 0.3), x, y)
    _, dvdy = fd_grad(lambda a, b: tv.v(a, b, 0.3), x, y)
    np.testing.assert_allclose(dudx + dvdy, 0.0, atol=1e-6)
    # Exponential decay of the velocity field.
    assert tv.u(x, y, 1.0) == pytest.approx(tv.u(x, y, 0.0) * np.exp(-0.2), rel=1e-9)


def test_taylor_satisfies_momentum():
    tv = TaylorVortex(nu=0.07, k=1.0)
    h, t = 1e-5, 0.4
    x = np.linspace(0.1, 1.9, 5)
    y = np.linspace(0.2, 1.8, 5)
    u, v = tv.u(x, y, t), tv.v(x, y, t)
    dudt = (tv.u(x, y, t + h) - tv.u(x, y, t - h)) / (2 * h)
    dudx, dudy = fd_grad(lambda a, b: tv.u(a, b, t), x, y, h)
    dpdx, _ = fd_grad(lambda a, b: tv.p(a, b, t), x, y, h)
    lap_u = (
        tv.u(x + h, y, t)
        + tv.u(x - h, y, t)
        + tv.u(x, y + h, t)
        + tv.u(x, y - h, t)
        - 4 * u
    ) / h**2
    resid = dudt + u * dudx + v * dudy + dpdx - tv.nu * lap_u
    np.testing.assert_allclose(resid, 0.0, atol=1e-4)
