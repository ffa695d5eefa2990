import hashlib

import numpy as np
import pytest

from repro.assembly import matrix_free
from repro.assembly.space import FunctionSpace
from repro.io.writers import Checkpoint
from repro.mesh.generators import rectangle_quads, wing_mesh
from repro.ns.ale import ALENavierStokes2D
from repro.ns.stages import ALE_GROUPS, STAGES, group_ale

from .._exact import TaylorVortex
from ..golden import check, load


def wobble(x0, y0, t, amp=0.05):
    """Interior-only mesh wobble: boundary of [0, pi]^2 stays fixed."""
    s = np.sin(x0) * np.sin(y0)  # vanishes on the boundary
    return (x0 + amp * s * np.sin(3 * t), y0 + amp * s * np.cos(2 * t))


def make_solver(motion=None, P=5, dt=5e-3, bcs_exact=None):
    mesh = rectangle_quads(2, 2, 0.0, np.pi, 0.0, np.pi)
    tags = ("left", "right", "top", "bottom")
    if bcs_exact is None:
        one = lambda x, y, t: 1.0  # noqa: E731
        zero = lambda x, y, t: 0.0  # noqa: E731
        bcs = {t: (one, zero) for t in tags}
    else:
        bcs = {t: bcs_exact for t in tags}
    return ALENavierStokes2D(
        mesh, P, nu=0.05, dt=dt, velocity_bcs=bcs,
        motion=motion,
    )


def test_invalid_parameters():
    mesh = rectangle_quads(1, 1)
    with pytest.raises(ValueError):
        ALENavierStokes2D(mesh, 3, nu=-1.0, dt=0.01, velocity_bcs={})
    with pytest.raises(ValueError):
        ALENavierStokes2D(mesh, 3, nu=0.1, dt=0.01, velocity_bcs={}, motion="solve")


def test_free_stream_preservation_on_moving_mesh():
    # Uniform flow must stay exactly uniform while the mesh wobbles.
    ns = make_solver(motion=wobble)
    ns.set_initial(lambda x, y, t: 1.0, lambda x, y, t: 0.0)
    ns.run(6)
    u, v = ns.velocity()
    np.testing.assert_allclose(u, 1.0, atol=1e-6)
    np.testing.assert_allclose(v, 0.0, atol=1e-6)
    # The mesh really moved.
    assert not np.allclose(ns.mesh.vertices, ns.vertices0)


def test_static_ale_matches_fixed_solver():
    # With no motion, the ALE solver is an ordinary (CG-based) NS solver:
    # Taylor vortex decay must hold.
    tv = TaylorVortex(nu=0.05)
    bcs = (
        lambda x, y, t: float(tv.u(x, y, t)),
        lambda x, y, t: float(tv.v(x, y, t)),
    )
    ns = make_solver(motion=None, P=7, dt=2.5e-3, bcs_exact=bcs)
    ns.set_initial(lambda x, y, t: tv.u(x, y, 0.0), lambda x, y, t: tv.v(x, y, 0.0))
    e0 = ns.kinetic_energy()
    ns.run(20)
    expect = e0 * np.exp(-4 * 0.05 * ns.t)
    assert ns.kinetic_energy() == pytest.approx(expect, rel=5e-3)


#: The same run's error with the convective velocity left at u instead of
#: u - w (no ALE correction), measured while the solver could still switch
#: the correction off.
UNCORRECTED_ERR = 0.011094186914012115


def test_ale_convection_correction_matters():
    # On a wobbling mesh, solving the Taylor vortex with the ALE
    # convective correction must beat the same run without it.
    tv = TaylorVortex(nu=0.05)
    bcs = (
        lambda x, y, t: float(tv.u(x, y, t)),
        lambda x, y, t: float(tv.v(x, y, t)),
    )
    ns = make_solver(motion=lambda x, y, t: wobble(x, y, t, amp=0.04),
                     P=6, dt=5e-3, bcs_exact=bcs)
    ns.set_initial(
        lambda x, y, t: tv.u(x, y, 0.0), lambda x, y, t: tv.v(x, y, 0.0)
    )
    ns.run(12)
    xq, yq = ns.space.coords()
    u, _ = ns.velocity()
    assert ns.space.norm_l2(u - tv.u(xq, yq, ns.t)) < 0.5 * UNCORRECTED_ERR


def test_mesh_velocity_solve_mode():
    # Body motion drives a Laplace solve for the mesh velocity; mesh
    # vertices on the wall must follow the body, outer boundary stays.
    from repro.mesh.generators import bluff_body_mesh

    mesh = bluff_body_mesh(m=3, nr=1)
    tags = {"inflow": (lambda x, y, t: 1.0, lambda x, y, t: 0.0),
            "wall": (lambda x, y, t: 0.0, lambda x, y, t: 0.1)}
    ns = ALENavierStokes2D(
        mesh, 3, nu=0.05, dt=1e-2, velocity_bcs=tags,
        pressure_dirichlet=("outflow",),
        motion="solve",
        body_velocity=(lambda x, y, t: 0.0, lambda x, y, t: 0.1),
        outer_tags=("inflow", "outflow", "side"),
    )
    ns.set_initial(lambda x, y, t: 1.0, lambda x, y, t: 0.0)
    wall_vids = set()
    for ei, le in mesh.boundary_sides("wall"):
        a, b = mesh.elements[ei].edge_vertices(le)
        wall_vids |= {a, b}
    outer_vids = set()
    for tag in ("inflow", "outflow", "side"):
        for ei, le in mesh.boundary_sides(tag):
            a, b = mesh.elements[ei].edge_vertices(le)
            outer_vids |= {a, b}
    y_before = mesh.vertices[sorted(wall_vids)][:, 1].copy()
    outer_before = mesh.vertices[sorted(outer_vids)].copy()
    ns.run(2)
    y_after = mesh.vertices[sorted(wall_vids)][:, 1]
    np.testing.assert_allclose(y_after - y_before, 0.1 * ns.t, atol=1e-6)
    np.testing.assert_allclose(
        mesh.vertices[sorted(outer_vids)], outer_before, atol=1e-9
    )
    assert ns.cg_iterations["mesh"] > 0


def test_stage_instrumentation_and_ale_groups():
    ns = make_solver(motion=wobble, P=4)
    ns.set_initial(lambda x, y, t: 1.0, lambda x, y, t: 0.0)
    ns.run(2)
    pct = ns.stage_percentages("cpu")
    assert set(pct) == set(STAGES)
    groups = group_ale(pct)
    assert set(groups) == {"a", "b", "c"}
    assert sum(groups.values()) == pytest.approx(100.0)
    # All three groups did work.  (The paper's b + c ~ 90% share is a
    # property of the production problem size; the cost-model driver in
    # repro.apps reproduces it — host timings of this toy run do not.)
    assert all(g > 0 for g in groups.values())


def test_cg_iteration_accounting():
    ns = make_solver(motion=None, P=4)
    ns.set_initial(lambda x, y, t: 1.0, lambda x, y, t: 0.0)
    ns.run(2)
    assert ns.cg_iterations["viscous"] > 0
    assert ns.cg_iterations["mesh"] == 0  # no motion solve requested


# -- the pinned trajectory ---------------------------------------------------
#
# Three steps of the ``ale_cg`` benchmark's flow (flapping NACA wing,
# motion="solve", all three PCG solvers) on a smaller mesh.  Recorded on
# the commit before the matvec/rebuild hoisting of DESIGN.md section
# 15.3, so it is the tier-1 witness that an ALE-adjacent change kept the
# arithmetic: the full-shape PCG counts are pinned only out of tier, in
# benchmarks/e2e/golden.json.

def wing_solver() -> ALENavierStokes2D:
    """The ``ale_cg`` flow on ``wing_mesh(4, 1)``, order 3, projected."""
    eps, amp, omega = 1.5e-3, 0.15, 2.0

    def one(x, y, t):
        return 1.0 + eps * np.sin(x) * np.cos(y)

    def cross(x, y, t):
        return -eps * np.cos(x) * np.sin(y)

    def zero(x, y, t):
        return 0.0

    def body_v(x, y, t):
        return amp * omega * np.cos(omega * t)

    ns = ALENavierStokes2D(
        wing_mesh(4, 1), order=3, nu=0.05, dt=1e-2,
        velocity_bcs={"inflow": (one, cross), "wall": (zero, body_v)},
        pressure_dirichlet=("outflow",), motion="solve",
        body_velocity=(zero, body_v), outer_tags=("inflow", "outflow", "side"),
    )
    ns.set_initial(one, cross)
    return ns


def ale_trajectory():
    ns = wing_solver()
    mesh = ns.mesh
    ns.run(3)
    return {
        "elements": mesh.nelements,
        "ndof": ns.space.ndof,
        "cg_iterations": dict(ns.cg_iterations),
        "kinetic_energy": ns.kinetic_energy(),
        "stage_ops": {
            name: [c.flops, c.bytes, c.calls] for name, c in ns.stage_ops.items()
        },
        "sha256": {
            name: hashlib.sha256(getattr(ns, name).tobytes()).hexdigest()
            for name in ("u_hat", "v_hat", "p_hat")
        },
    }


GOLDEN_SECTIONS = {"ale.trajectory": ale_trajectory}


def test_trajectory_golden():
    fp = ale_trajectory()
    golden = load()["ale.trajectory"]
    assert (fp["elements"], fp["ndof"]) == (golden["elements"], golden["ndof"])
    assert fp["kinetic_energy"] == pytest.approx(golden["kinetic_energy"], rel=1e-9)
    # Finite-precision CG turns a last-bit change of its input into a few
    # iterations: the e2e harness's 2 %, not equality, outside same_bits.
    for solver, n in golden["cg_iterations"].items():
        assert fp["cg_iterations"][solver] == pytest.approx(n, rel=0.02)
    # Group a (stages 1-4 and 6) runs no PCG: its charges do not depend
    # on bits.
    for name in ALE_GROUPS["a"]:
        check(f"ale.trajectory/stage_ops/{name}", fp["stage_ops"][name], rel=0.0)


@pytest.mark.same_bits
def test_trajectory_golden_same_bits():
    check("ale.trajectory", ale_trajectory(), rel=0.0)


def uncached_diagonal(space, kind, lam=0.0):
    """``FunctionSpace.operator_diagonal`` as it was before its per-(kind,
    lam) cache: every request computes the diagonal again."""
    parts = []
    for bi, b in enumerate(space.batches()):
        if space.sumfact and b.kind == "quad":
            d = matrix_free.diagonal_operator_batched(b, kind, lam)
        else:
            d = np.diagonal(space._dense_batch_mats(bi, kind, lam), axis1=-2, axis2=-1)
        parts.append(b.signs * d)
    return space._assemble(parts)


def test_a_rebuild_computes_the_shared_zero_lambda_diagonal_once(monkeypatch):
    # The pressure and mesh solvers share the Laplacian's diagonal: one
    # rebuild computes it and the viscous one, and replays the shared
    # one's charges for the second solver.
    ns = wing_solver()
    real = matrix_free.diagonal_operator_batched
    calls = []

    def counting(b, kind, lam=0.0):
        calls.append((kind, lam))
        return real(b, kind, lam)

    monkeypatch.setattr(matrix_free, "diagonal_operator_batched", counting)
    ns._rebuild_space()
    assert len(ns.space.batches()) == 1
    assert sorted(calls) == sorted([("helmholtz", ns.vel_solver.lam), ("helmholtz", 0.0)])
    monkeypatch.undo()

    # Diagonals, fields and the stage-2 ledger (where every moved
    # geometry's solvers are built) equal the uncached run's, to the bit.
    cached = wing_solver()
    cached.run(2)
    monkeypatch.setattr(FunctionSpace, "operator_diagonal", uncached_diagonal)
    fresh = wing_solver()
    fresh.run(2)
    for name in ("vel_solver", "p_solver", "mesh_solver"):
        got, want = getattr(cached, name).diag, getattr(fresh, name).diag
        assert got.tobytes() == want.tobytes(), name
    for name in ("u_hat", "v_hat", "p_hat"):
        assert getattr(cached, name).tobytes() == getattr(fresh, name).tobytes(), name
    got, want = cached.stage_ops["2:nonlinear"], fresh.stage_ops["2:nonlinear"]
    assert (got.flops, got.bytes, got.calls) == (want.flops, want.bytes, want.calls)


def test_checkpoint_restore_rebuilds_the_moved_geometry(tmp_path):
    # 3 steps, checkpoint, a fresh solver on a fresh mesh restores and
    # runs 2 more: the vertices come back and the space, solvers and
    # edge batch are rebuilt on them, so the 5-step run holds to the bit.
    def fresh():
        ns = make_solver(motion=wobble, P=4)
        ns.set_initial(lambda x, y, t: 1.0 + 0.1 * np.sin(x) * np.sin(y),
                       lambda x, y, t: 0.1 * np.cos(x) * np.sin(y))
        return ns

    full = fresh()
    full.run(5)
    ns = fresh()
    ns.run(3)
    Checkpoint.save(tmp_path, ns)
    ns2 = fresh()
    Checkpoint.load(tmp_path, ns2)
    np.testing.assert_array_equal(ns2.space.coords()[0], ns.space.coords()[0])
    ns2.run(2)
    assert ns2.step_count == 5 and ns2.t == full.t
    np.testing.assert_array_equal(ns2.mesh.vertices, full.mesh.vertices)
    for f in ("u_hat", "v_hat", "p_hat"):
        np.testing.assert_array_equal(getattr(ns2, f), getattr(full, f))
