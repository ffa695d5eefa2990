import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.linalg.counters import OpCounter
from repro.mesh.generators import bluff_body_mesh, rectangle_quads
from repro.ns.ale import ALENavierStokes2D
from repro.ns.forces import ForceRecorder, body_forces

from .._meshes import annulus_mesh
from ..assembly.test_boundary_plans import tagged_mixed_mesh
from . import _forces_oracle as oracle

ONE = lambda x, y, t: 1.0  # noqa: E731
ZERO = lambda x, y, t: 0.0  # noqa: E731


def make_space(order=4):
    return FunctionSpace(rectangle_quads(2, 2, 0.0, 2.0, 0.0, 1.0), order)


def project(space, fn):
    xq, yq = space.coords()
    return space.forward(fn(xq, yq))


def test_uniform_pressure_on_straight_edge():
    # p = p0, u = v = 0: traction on the bottom wall uses the
    # wall-outward normal (0, 1), so F = (0, -2 p0): pressure pushes the
    # wall downward.
    space = make_space()
    p0 = 3.0
    zeros = np.zeros(space.ndof)
    p_hat = project(space, lambda x, y: p0 * np.ones_like(x))
    f = body_forces(space, zeros, zeros, p_hat, nu=0.1, tag="bottom")
    assert f.drag == pytest.approx(0.0, abs=1e-10)
    assert f.lift == pytest.approx(-2.0 * p0, rel=1e-10)
    assert f.viscous_drag == pytest.approx(0.0, abs=1e-10)


def test_couette_shear_traction():
    # u = y, v = 0, p = 0: the faster fluid above drags the bottom wall
    # forward: t_x = nu du/dy (wall-outward normal (0, 1)); over length
    # 2: drag = +2 nu.  The top wall is dragged backward by the slower
    # fluid below it.
    space = make_space()
    nu = 0.25
    u_hat = project(space, lambda x, y: y)
    zeros = np.zeros(space.ndof)
    f = body_forces(space, u_hat, zeros, zeros, nu, tag="bottom")
    assert f.drag == pytest.approx(2.0 * nu, rel=1e-9)
    assert f.lift == pytest.approx(0.0, abs=1e-9)
    f_top = body_forces(space, u_hat, zeros, zeros, nu, tag="top")
    assert f_top.drag == pytest.approx(-2.0 * nu, rel=1e-9)


def test_uniform_pressure_closed_body_zero_force():
    # A constant pressure integrates to zero force over a closed wall.
    mesh = bluff_body_mesh(m=3, nr=1)
    space = FunctionSpace(mesh, 3)
    zeros = np.zeros(space.ndof)
    p_hat = project(space, lambda x, y: 5.0 * np.ones_like(x))
    f = body_forces(space, zeros, zeros, p_hat, nu=0.1, tag="wall")
    assert f.drag == pytest.approx(0.0, abs=1e-9)
    assert f.lift == pytest.approx(0.0, abs=1e-9)


def test_linear_pressure_closed_body_buoyancy():
    # p = y over a closed body: F = -oint p n ds = -(area) * grad p
    # direction... by the divergence theorem, oint p n ds = area * (0,1).
    mesh = bluff_body_mesh(m=3, nr=1)
    space = FunctionSpace(mesh, 3)
    zeros = np.zeros(space.ndof)
    p_hat = project(space, lambda x, y: y)
    f = body_forces(space, zeros, zeros, p_hat, nu=0.1, tag="wall")
    # Wall normals point INTO the body (outward from the fluid), so the
    # enclosed "area" carries a sign: |lift| = polygon area of the body.
    # The straight-sided wall is a 12-gon inscribed in the r = 0.5
    # circle: its exact area is 6 r^2 sin(pi/6) = 0.75 (vs pi/4 = 0.785).
    body_area = 6.0 * 0.25 * np.sin(np.pi / 6.0)
    assert abs(f.lift) == pytest.approx(body_area, rel=1e-9)
    assert f.drag == pytest.approx(0.0, abs=1e-9)


def test_force_recorder_on_real_run():
    from repro.ns.nektar2d import NavierStokes2D

    mesh = bluff_body_mesh(m=3, nr=1)
    space = FunctionSpace(mesh, 3)
    one = lambda x, y, t: 1.0  # noqa: E731
    zero = lambda x, y, t: 0.0  # noqa: E731
    ns = NavierStokes2D(
        space, nu=0.02, dt=2e-2,
        velocity_bcs={"inflow": (one, zero), "wall": (zero, zero)},
        pressure_dirichlet=("outflow",),
    )
    ns.set_initial(one, zero)
    rec = ForceRecorder(ns, "wall")
    for _ in range(6):
        ns.step()
        rec.record()
    t, drag = np.array(rec.times), np.array([f.drag for f in rec.history])
    assert t.shape == drag.shape == (6,)
    # Flow pushes the body downstream: positive drag once developed.
    assert drag[-1] > 0
    # Not enough history for a Strouhal estimate yet.
    assert rec.strouhal() is None


def synthetic_recorder(lift_amplitude: float, period: float = 0.5) -> ForceRecorder:
    rec = ForceRecorder.__new__(ForceRecorder)
    rec.times, rec.history = [], []
    for t in np.linspace(0, 3, 300):
        rec.times.append(t)
        f = type("F", (), {})()
        f.lift = lift_amplitude * np.sin(2 * np.pi * t / period)
        f.drag = 1.0
        rec.history.append(f)
    return rec


def test_strouhal_from_synthetic_signal():
    st = synthetic_recorder(1.0).strouhal(diameter=1.0, velocity=1.0)
    assert st == pytest.approx(1.0 / 0.5, rel=0.05)


def test_strouhal_ignores_a_round_off_lift():
    # A symmetric wake's lift (~1e-14 against a drag of ~1) flips sign
    # every step; that is no shedding period.
    assert synthetic_recorder(1e-14, period=0.02).strouhal() is None


#: name -> (mesh factory, order, tag): straight and curved walls, and a
#: tag whose sides are of both element kinds.
FORCE_CASES = {
    "straight-bluff": (lambda: bluff_body_mesh(m=3, nr=1), 4, "wall"),
    "curved-bluff": (lambda: bluff_body_mesh(m=2, nr=1, curved=True), 5, "wall"),
    "annulus": (lambda: annulus_mesh(6, 1), 4, "inner"),
    "mixed": (tagged_mixed_mesh, 4, "b"),
}


@pytest.mark.parametrize("case", FORCE_CASES)
def test_stacked_forces_match_the_per_side_loop(case):
    """One kind group at a time == one side at a time: the forces to
    1e-12 of the largest component, the charges label by label."""
    make, order, tag = FORCE_CASES[case]
    space = FunctionSpace(make(), order)
    rng = np.random.default_rng(3)
    u, v, p = rng.standard_normal((3, space.ndof))
    with OpCounter() as ref_ops:
        ref = oracle.body_forces(space, u, v, p, 0.03, tag)
    with OpCounter() as ops:
        got = body_forces(space, u, v, p, 0.03, tag)
    fields = ref.__dataclass_fields__
    scale = max(abs(getattr(ref, name)) for name in fields)
    for name in fields:
        assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=0.0, abs=1e-12 * scale)
    assert (ops.flops, ops.bytes) == (ref_ops.flops, ref_ops.bytes)
    assert {k: v[:2] for k, v in ops.by_label.items()} == {
        k: v[:2] for k, v in ref_ops.by_label.items()
    }


def test_an_ale_recorder_reads_the_current_space():
    """ALE builds a new space after every move: the recorder's cached
    edge quadrature follows it, so each record equals a fresh
    ``body_forces`` on the solver's current space."""
    heave = lambda x0, y0, t: (  # noqa: E731
        x0,
        y0 + 0.1 * np.sin(4.0 * t) * np.exp(-(x0**2 + y0**2)),
    )
    ns = ALENavierStokes2D(
        bluff_body_mesh(m=3, nr=1), 3, nu=0.05, dt=2e-2,
        velocity_bcs={"inflow": (ONE, ZERO), "wall": (ZERO, ZERO)},
        pressure_dirichlet=("outflow",),
        motion=heave,
    )
    ns.set_initial(ONE, ZERO)
    rec = ForceRecorder(ns, "wall")
    spaces = []
    for _ in range(4):
        ns.step()
        got = rec.record()
        assert got == body_forces(ns.space, ns.u_hat, ns.v_hat, ns.p_hat, ns.nu, "wall")
        spaces.append(ns.space)
        # A second record on the same space reuses its groups.
        quads = rec._quads
        assert rec.record() == got and rec._quads is quads
    assert len({id(space) for space in spaces}) == 4
