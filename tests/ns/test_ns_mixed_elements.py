"""The NS solvers on triangle and mixed tri/quad meshes (all other NS
tests run on quads; the paper's meshes are hybrid)."""

import numpy as np

from repro.assembly.space import FunctionSpace
from repro.mesh.mesh2d import Mesh2D
from repro.ns.nektar2d import NavierStokes2D

from .._exact import Kovasznay, TaylorVortex
from .._meshes import rectangle_tris


def test_kovasznay_on_triangles():
    kv = Kovasznay(40.0)
    mesh = rectangle_tris(2, 2, -0.5, 1.0, -0.5, 0.5)
    space = FunctionSpace(mesh, 7)
    bcs = {
        t: (
            lambda x, y, tt: float(kv.u(x, y)),
            lambda x, y, tt: float(kv.v(x, y)),
        )
        for t in ("left", "top", "bottom")
    }
    ns = NavierStokes2D(space, kv.nu, 2e-3, bcs, pressure_dirichlet=("right",))
    ns.set_initial(lambda x, y, t: kv.u(x, y), lambda x, y, t: kv.v(x, y))
    ns.run(10)
    xq, yq = space.coords()
    u, v = ns.velocity()
    assert space.norm_l2(u - kv.u(xq, yq)) < 1e-3
    assert space.norm_l2(v - kv.v(xq, yq)) < 1e-3


def mixed_channel():
    """[0,2]x[0,1] split into one quad and two triangles."""
    verts = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]], dtype=float
    )
    elems = [(0, 1, 2, 3), (1, 4, 2), (4, 5, 2)]
    mesh = Mesh2D(verts, elems)
    tags = {"left": [], "right": [], "top": [], "bottom": []}
    tol = 1e-12
    for ei, le in mesh.boundary_sides():
        a, b = mesh.elements[ei].edge_vertices(le)
        mid = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
        if abs(mid[1]) < tol:
            tags["bottom"].append((ei, le))
        elif abs(mid[1] - 1) < tol:
            tags["top"].append((ei, le))
        elif abs(mid[0]) < tol:
            tags["left"].append((ei, le))
        else:
            tags["right"].append((ei, le))
    return Mesh2D(verts, elems, tags)


def test_taylor_vortex_on_mixed_mesh():
    tv = TaylorVortex(nu=0.05, k=np.pi)  # one period across [0, 2]x[0, 1]
    mesh = mixed_channel()
    space = FunctionSpace(mesh, 6)
    bcs = {
        t: (
            lambda x, y, tt: float(tv.u(x, y, tt)),
            lambda x, y, tt: float(tv.v(x, y, tt)),
        )
        for t in ("left", "right", "top", "bottom")
    }
    ns = NavierStokes2D(space, 0.05, 2e-3, bcs)
    ns.set_initial(
        lambda x, y, t: tv.u(x, y, 0.0), lambda x, y, t: tv.v(x, y, 0.0)
    )
    ns.run(15)
    xq, yq = space.coords()
    u, _ = ns.velocity()
    err = space.norm_l2(u - tv.u(xq, yq, ns.t))
    assert err < 5e-3
    assert ns.divergence_norm() < 5e-2


def test_mixed_mesh_stage_instrumentation():
    mesh = mixed_channel()
    space = FunctionSpace(mesh, 4)
    one = lambda x, y, t: 1.0  # noqa: E731
    zero = lambda x, y, t: 0.0  # noqa: E731
    ns = NavierStokes2D(
        space, 0.05, 5e-3,
        velocity_bcs={"left": (one, zero), "top": (zero, zero), "bottom": (zero, zero)},
        pressure_dirichlet=("right",),
    )
    ns.set_initial(one, zero)
    ns.run(3)
    flops = ns.stage_flops()
    assert all(v > 0 for v in flops.values())
