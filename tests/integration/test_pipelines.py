"""End-to-end integration tests tying multiple subsystems together."""

import numpy as np

from repro.assembly.space import FunctionSpace
from repro.machines.catalog import CPUS, NETWORKS
from repro.mesh.generators import bluff_body_mesh, rectangle_quads
from repro.ns.nektar2d import NavierStokes2D
from repro.ns.nektar_f import NekTarF
from repro.parallel.simmpi import VirtualCluster


def test_bluff_body_physics_sanity():
    """Mesh generator -> space -> NS solver: wake physics holds."""
    mesh = bluff_body_mesh(m=3, nr=1)
    space = FunctionSpace(mesh, 4)
    one = lambda x, y, t: 1.0  # noqa: E731
    zero = lambda x, y, t: 0.0  # noqa: E731
    ns = NavierStokes2D(
        space,
        nu=0.02,
        dt=2e-2,
        velocity_bcs={"inflow": (one, zero), "wall": (zero, zero)},
        pressure_dirichlet=("outflow",),
    )
    ns.set_initial(one, zero)
    ns.run(15)
    u, v = ns.velocity()
    xq, yq = space.coords()
    # No-slip: velocity in the boundary layer (delta ~ sqrt(nu t) ~ 0.08)
    # is far below the free stream.  (Quadrature points are interior to
    # the elements, so the closest samples sit slightly off the wall.)
    near_wall = np.hypot(xq, yq) < 0.56
    assert near_wall.any()
    assert np.abs(u[near_wall]).max() < 0.55
    # Wake deficit: streamwise velocity right behind the body is below
    # the free stream.
    wake = (np.abs(yq) < 0.3) & (xq > 0.6) & (xq < 2.0)
    assert u[wake].mean() < 0.75
    # Far field is still ~free stream.
    far = np.abs(yq) > 4.0
    np.testing.assert_allclose(u[far].mean(), 1.0, atol=0.05)
    # Incompressibility under control (coarse mesh, impulsive start).
    assert ns.divergence_norm() < 0.08 * np.sqrt(space.integrate(u * u))


def test_poiseuille_channel_with_body_force():
    """Force-driven channel flow stays on the exact parabolic profile."""
    H, G, nu = 1.0, 1.0, 0.2
    mesh = rectangle_quads(2, 2, 0.0, 2.0, 0.0, H)
    space = FunctionSpace(mesh, 5)
    exact = lambda y: G / (2 * nu) * y * (H - y)  # noqa: E731
    zero = lambda x, y, t: 0.0  # noqa: E731
    ns = NavierStokes2D(
        space,
        nu=nu,
        dt=5e-3,
        velocity_bcs={
            "top": (zero, zero),
            "bottom": (zero, zero),
            "left": (lambda x, y, t: float(exact(y)), zero),
        },
        pressure_dirichlet=("right",),
        force=(lambda x, y, t: G, lambda x, y, t: 0.0),
    )
    ns.set_initial(lambda x, y, t: exact(y), lambda x, y, t: 0.0)
    ns.run(40)
    u, v = ns.velocity()
    xq, yq = space.coords()
    assert space.norm_l2(u - exact(yq)) < 2e-3
    assert space.norm_l2(v) < 2e-3


def test_nektar_f_network_choice_changes_wall_not_results():
    """The same NekTar-F run on Ethernet vs Myrinet: identical numerics,
    different virtual wall clock (the whole point of the paper)."""
    mesh = rectangle_quads(2, 1, 0.0, 2 * np.pi, 0.0, np.pi)

    def rank_fn(comm):
        space = FunctionSpace(mesh, 4)
        bcs = {
            "left": (
                lambda m, x, y, t: 1.0 if m == 0 else 0.0,
                lambda m, x, y, t: 0.0,
                lambda m, x, y, t: 0.0,
            )
        }
        nf = NekTarF(
            comm, space, nz=4, nu=0.1, dt=5e-3, velocity_bcs=bcs,
            pressure_dirichlet=("right",), charge_compute=True,
        )
        nf.set_initial(
            lambda m, x, y, t: 1.0 if m == 0 else 0.0,
            lambda m, x, y, t: 0.0,
            lambda m, x, y, t: 0.0,
        )
        nf.run(2)
        return nf.u_hat.copy(), comm.wall, comm.cpu_time

    results = {}
    for name in ("RoadRunner, eth-internode", "RoadRunner, myr-internode"):
        cl = VirtualCluster(2, NETWORKS[name], cpu=CPUS["pentium-ii-450"])
        results[name] = cl.run(rank_fn)

    eth, myr = results["RoadRunner, eth-internode"], results["RoadRunner, myr-internode"]
    # Identical numerics...
    np.testing.assert_allclose(eth[0][0], myr[0][0], atol=1e-13)
    # ...but the Ethernet wall clock is slower.
    assert eth[0][1] > myr[0][1]
    # And the Ethernet CPU-vs-wall gap is wider (TCP sleeps, GM spins).
    eth_gap = eth[0][1] - eth[0][2]
    myr_gap = myr[0][1] - myr[0][2]
    assert eth_gap > myr_gap


def test_table_drivers_consistent_with_catalog():
    """The app drivers consume the same catalog objects the kernel
    figures use — ensure names stay linked."""
    from repro.apps.ale_bench import TABLE3_SYSTEMS
    from repro.apps.nektar_f_bench import TABLE2_SYSTEMS
    from repro.machines.catalog import MACHINES

    for label, (mkey, nkind) in {**TABLE2_SYSTEMS, **TABLE3_SYSTEMS}.items():
        spec = MACHINES[mkey]
        assert spec.network(nkind) is not None
