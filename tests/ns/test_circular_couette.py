"""Circular (Taylor-)Couette flow: an exact steady NS solution on
curved geometry — the strongest combined test of curved elements,
boundary projection and the splitting scheme."""

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.ns.nektar2d import NavierStokes2D

from .._meshes import annulus_mesh

R0, R1, OMEGA = 0.5, 1.0, 1.0
# u_theta = A r + B / r with u_theta(R0) = OMEGA R0, u_theta(R1) = 0.
A = -OMEGA * R0**2 / (R1**2 - R0**2)
B = OMEGA * R0**2 * R1**2 / (R1**2 - R0**2)


def u_theta(r):
    return A * r + B / r


def exact_u(x, y):
    r = np.hypot(x, y)
    return -u_theta(r) * y / r


def exact_v(x, y):
    r = np.hypot(x, y)
    return u_theta(r) * x / r


@pytest.fixture(scope="module")
def couette():
    mesh = annulus_mesh(8, 1, R0, R1, curved=True)
    space = FunctionSpace(mesh, 6)
    bcs = {
        "inner": (
            lambda x, y, t: float(exact_u(x, y)),
            lambda x, y, t: float(exact_v(x, y)),
        ),
        "outer": (lambda x, y, t: 0.0, lambda x, y, t: 0.0),
    }
    ns = NavierStokes2D(space, nu=0.1, dt=5e-3, velocity_bcs=bcs)
    ns.set_initial(
        lambda x, y, t: exact_u(x, y), lambda x, y, t: exact_v(x, y)
    )
    ns.run(20)
    return ns, space


def test_stays_on_exact_solution(couette):
    ns, space = couette
    xq, yq = space.coords()
    u, v = ns.velocity()
    err_u = space.norm_l2(u - exact_u(xq, yq))
    err_v = space.norm_l2(v - exact_v(xq, yq))
    scale = space.norm_l2(exact_u(xq, yq) + 0 * xq) + 1e-30
    assert err_u / scale < 5e-3
    assert err_v / scale < 5e-3


def test_torque_on_inner_cylinder(couette):
    """The viscous torque per unit length on the inner cylinder is
    4 pi nu B (classic Couette result); check the wall traction
    machinery reproduces it on the curved wall: the live traction, one
    kind group at a time, and the frozen per-side loop."""
    from repro.assembly.boundary import build_edge_quadrature
    from repro.linalg import blas
    from repro.ns.forces import traction

    from ..mesh._metric_oracle import old_edge_quadrature
    from ._forces_oracle import traction as traction_per_side

    ns, space = couette
    sides = space.mesh.boundary_sides("inner")
    torque = 0.0
    for eq in old_edge_quadrature(space, sides):
        tx_p, ty_p, tx_v, ty_v = traction_per_side(
            space, eq, ns.u_hat, ns.v_hat, ns.p_hat, ns.nu
        )
        tx, ty = tx_p + tx_v, ty_p + ty_v
        torque += eq.integrate(eq.x * ty - eq.y * tx)
    expect = -4.0 * np.pi * ns.nu * B
    assert torque == pytest.approx(expect, rel=0.02)
    stacked = 0.0
    for g in build_edge_quadrature(space, sides):
        tx_p, ty_p, tx_v, ty_v = traction(space, g, ns.u_hat, ns.v_hat, ns.p_hat, ns.nu)
        tx, ty = tx_p + tx_v, ty_p + ty_v
        stacked += blas.ddot_batched(g.jw, g.x * ty - g.y * tx).sum()
    assert stacked == pytest.approx(torque, rel=1e-12)


def test_divergence_free(couette):
    ns, space = couette
    assert ns.divergence_norm() < 1e-2
