"""The timestep's boundary work: no per-step geometry walk, and BC
steadiness probed on the whole boundary.

On a fixed mesh a step may not call ``make_element_map`` or
``gauss_jacobi`` at all, and ``np.linalg.solve`` once per Dirichlet
projection (the stacked edge-mass solve of ``DirichletPlan``), never
once per boundary side.
"""

import sys

import numpy as np
import pytest

from repro.assembly.global_system import project_dirichlet
from repro.assembly.space import FunctionSpace
from repro.machines.network import NetworkModel
from repro.mesh.curved import make_element_map
from repro.mesh.generators import bluff_body_mesh, rectangle_quads
from repro.ns.nektar2d import NavierStokes2D
from repro.ns.nektar_f import NekTarF
from repro.parallel.simmpi import VirtualCluster
from repro.spectral.jacobi import gauss_jacobi

NET = NetworkModel("t", latency_us=5, bandwidth=1e9)


@pytest.fixture
def geometry_calls(monkeypatch):
    """Counts calls to the three functions a boundary walk needs, under
    every name a loaded ``repro`` module holds them by."""
    calls = {"make_element_map": 0, "gauss_jacobi": 0, "np.linalg.solve": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in (make_element_map, gauss_jacobi):
        wrapped = counting(fn.__name__, fn)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("repro"):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, wrapped)
    monkeypatch.setattr(np.linalg, "solve", counting("np.linalg.solve", np.linalg.solve))
    return calls


def test_serial_step_walks_no_geometry(geometry_calls):
    mesh = bluff_body_mesh(m=2, nr=1, curved=True)
    one = lambda x, y, t: 1.0 + 0.1 * np.sin(t) * y  # noqa: E731
    zero = lambda x, y, t: 0.0  # noqa: E731
    ns = NavierStokes2D(
        FunctionSpace(mesh, 4), nu=0.01, dt=5e-3,
        velocity_bcs={"inflow": (one, zero), "wall": (zero, zero)},
        pressure_dirichlet=("outflow",),
    )
    ns.set_initial(one, zero)
    assert len(mesh.boundary_sides("inflow") + mesh.boundary_sides("wall")) > 4
    ns.run(2)  # start-up: lower-order viscous solvers are built here
    assert min(geometry_calls.values()) > 0  # the counters do count
    geometry_calls.update(dict.fromkeys(geometry_calls, 0))
    ns.run(3)
    # Two projections (u and v boundary values) per step.
    assert geometry_calls == {"make_element_map": 0, "gauss_jacobi": 0, "np.linalg.solve": 6}


def test_nektar_f_step_walks_no_geometry(geometry_calls):
    mesh = rectangle_quads(2, 2, 0.0, 1.0, 0.0, 1.0)
    amp_u = lambda m, x, y, t: (1.0 + np.sin(t) * y) if m == 0 else 0.1j * x  # noqa: E731
    zero = lambda m, x, y, t: 0.0  # noqa: E731

    def rank_fn(comm):
        nf = NekTarF(
            comm, FunctionSpace(mesh, 3), nz=4, nu=0.05, dt=2e-3,
            velocity_bcs={"left": (amp_u, zero, zero), "top": (zero, zero, zero)},
            pressure_dirichlet=("right",),
        )
        nf.set_initial(amp_u, zero, zero)
        nf.run(2)
        before = dict(geometry_calls)
        nf.run(3)
        return nf.nlocal, before, dict(geometry_calls)

    ((nlocal, before, after),) = VirtualCluster(1, NET).run(rank_fn)
    assert min(before.values()) > 0
    # Only the unsteady u amplitude is projected again: once per mode and step.
    before["np.linalg.solve"] += 3 * nlocal
    assert after == before


def test_bc_unsteady_away_from_the_first_sides_is_not_frozen():
    """An amplitude that is time-dependent only on part of a tag must be
    re-projected every step.  (The steadiness probe used to look at the
    end points of each tag's first two sides only, took this BC for
    steady and froze it at its first projection.)"""
    mesh = rectangle_quads(1, 4, 0.0, 1.0, 0.0, 1.0)
    left = mesh.boundary_sides("left")
    ys = [
        [mesh.vertices[v][1] for v in mesh.elements[ei].edge_vertices(le)]
        for ei, le in left
    ]
    y0 = max(max(y) for y in ys[:2])  # the first two sides lie below y0 ...
    assert any(max(y) > y0 for y in ys[2:])  # ... and some side above

    def amp_u(m, x, y, t):
        return np.sin(40.0 * t) * max(0.0, y - y0) if m == 0 else 0.0

    zero = lambda m, x, y, t: 0.0  # noqa: E731

    def rank_fn(comm):
        space = FunctionSpace(mesh, 4)
        nf = NekTarF(
            comm, space, nz=4, nu=0.05, dt=5e-3,
            velocity_bcs={"left": (amp_u, zero, zero)},
            pressure_dirichlet=("right",),
        )
        nf.set_initial(zero, zero, zero)
        nf.run(3)
        dofs, want = project_dirichlet(
            space, ("left",), lambda x, y: amp_u(0, x, y, nf.t)
        )
        return nf.u_hat[0][dofs], want

    got, want = VirtualCluster(1, NET).run(rank_fn)[0]
    assert np.max(np.abs(want)) > 0.05
    np.testing.assert_allclose(got, want, atol=1e-12)
