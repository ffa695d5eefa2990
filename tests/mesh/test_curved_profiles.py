"""Curved walls for arbitrary body profiles (wing included)."""

import numpy as np
import pytest

from repro.assembly.boundary import build_edge_quadrature
from repro.assembly.space import FunctionSpace
from repro.mesh.generators import body_fitted_mesh, circle_profile, wing_mesh


def test_generic_curved_wall_matches_circle():
    mesh = body_fitted_mesh(circle_profile(), m=3, nr=1, curved=True)
    space = FunctionSpace(mesh, 5)
    area = space.integrate(np.ones((space.nelem, space.nq)))
    assert area == pytest.approx(400.0 - np.pi * 0.25, rel=1e-8)
    quads = build_edge_quadrature(space, mesh.boundary_sides("wall"))
    # Wall quadrature points lie exactly on the circle.
    for eq in quads:
        np.testing.assert_allclose(np.hypot(eq.x, eq.y), 0.5, atol=1e-12)


def test_curved_wing_mesh_valid():
    mesh = wing_mesh(m=6, nr=1, curved=True)
    assert len(mesh.curves) == len(mesh.boundary_tags["wall"])
    space = FunctionSpace(mesh, 4)  # raises on inverted elements
    quads = build_edge_quadrature(space, mesh.boundary_sides("wall"))
    total = sum(eq.jw.sum() for eq in quads)
    # The NACA 4420 perimeter is a bit over twice the chord.
    assert 2.0 < total < 2.6
    # Curved wall points deviate from the straight-sided polygon.
    straight = wing_mesh(m=6, nr=1, curved=False)
    sp_s = FunctionSpace(straight, 4)
    a_c = space.integrate(np.ones((space.nelem, space.nq)))
    a_s = sp_s.integrate(np.ones((sp_s.nelem, sp_s.nq)))
    assert a_c != pytest.approx(a_s, abs=1e-6)


def test_curved_wall_helmholtz_solve_runs():
    mesh = wing_mesh(m=6, nr=1, curved=True)
    space = FunctionSpace(mesh, 3)
    from repro.solvers.helmholtz import HelmholtzDirect

    solver = HelmholtzDirect(space, 1.0, ("inflow", "wall"))
    u_hat = solver.solve(lambda x, y: 1.0)
    assert np.isfinite(space.backward(u_hat)).all()
