import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.mesh.generators import rectangle_quads, rectangle_tris
from repro.solvers.helmholtz import HelmholtzCG, HelmholtzDirect, solve_poisson


def l2_error(space, u_hat, exact):
    xq, yq = space.coords()
    return space.norm_l2(space.backward(u_hat) - exact(xq, yq))


def test_poisson_polynomial_exact():
    # u = x^2 y + y^3, f = -lap u = -(2y + 6y) = -8y? lap u = 2y + 6y = 8y.
    mesh = rectangle_quads(2, 2, 0, 1, 0, 1)
    space = FunctionSpace(mesh, 4)
    u_exact = lambda x, y: x**2 * y + y**3  # noqa: E731
    f = lambda x, y: -8.0 * y  # noqa: E731  (-lap u; solver does -lap u = f)
    u_hat = solve_poisson(space, lambda x, y: 8.0 * y * -1.0, ("left", "right", "top", "bottom"), u_exact)
    # -lap u = f means f = -8y
    assert l2_error(space, u_hat, u_exact) < 1e-10
    _ = f


def test_poisson_spectral_convergence_quads():
    mesh = rectangle_quads(2, 2, 0, 1, 0, 1)
    u_exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
    f = lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
    errs = []
    for P in (2, 4, 6, 8):
        space = FunctionSpace(mesh, P)
        u_hat = solve_poisson(space, f, ("left", "right", "top", "bottom"))
        errs.append(l2_error(space, u_hat, u_exact))
    assert errs[1] < errs[0] / 10
    assert errs[2] < errs[1] / 10
    assert errs[3] < errs[2] / 5
    assert errs[3] < 1e-7


def test_poisson_spectral_convergence_tris():
    mesh = rectangle_tris(2, 2, 0, 1, 0, 1)
    u_exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
    f = lambda x, y: 2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
    errs = []
    for P in (3, 5, 7):
        space = FunctionSpace(mesh, P)
        u_hat = solve_poisson(space, f, ("left", "right", "top", "bottom"))
        errs.append(l2_error(space, u_hat, u_exact))
    assert errs[1] < errs[0] / 10
    assert errs[2] < errs[1] / 10


def test_poisson_h_convergence():
    u_exact = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)  # noqa: E731
    f = lambda x, y: 2 * np.pi**2 * u_exact(x, y)  # noqa: E731
    errs = []
    for n in (1, 2, 4):
        space = FunctionSpace(rectangle_quads(n, n, 0, 1, 0, 1), 3)
        u_hat = solve_poisson(space, f, ("left", "right", "top", "bottom"))
        errs.append(l2_error(space, u_hat, u_exact))
    # Order-3 elements: O(h^4) L2 error -> each halving gains ~16x.
    assert errs[1] < errs[0] / 8
    assert errs[2] < errs[1] / 8


def test_helmholtz_neumann_manufactured():
    # u = cos(pi x) cos(pi y) has zero normal flux on the unit square.
    lam = 3.0
    u_exact = lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y)  # noqa: E731
    f = lambda x, y: (2 * np.pi**2 + lam) * u_exact(x, y)  # noqa: E731
    space = FunctionSpace(rectangle_quads(2, 2, 0, 1, 0, 1), 7)
    solver = HelmholtzDirect(space, lam)
    u_hat = solver.solve(f)
    assert l2_error(space, u_hat, u_exact) < 1e-6


def test_inhomogeneous_dirichlet_polynomial():
    # Laplace problem: u = x^2 - y^2 is harmonic; only BCs drive it.
    u_exact = lambda x, y: x**2 - y**2  # noqa: E731
    space = FunctionSpace(rectangle_quads(2, 2, 0, 1, 0, 1), 4)
    u_hat = solve_poisson(
        space, lambda x, y: 0.0, ("left", "right", "top", "bottom"), u_exact
    )
    assert l2_error(space, u_hat, u_exact) < 1e-10


def test_cg_matches_direct():
    f = lambda x, y: np.exp(x) * np.sin(y)  # noqa: E731
    space = FunctionSpace(rectangle_quads(2, 2, 0, 1, 0, 1), 4)
    tags = ("left", "right", "top", "bottom")
    u_d = HelmholtzDirect(space, 1.0, tags).solve(f)
    cg = HelmholtzCG(space, 1.0, tags, tol=1e-12)
    u_c = cg.solve(f)
    assert cg.last_iterations > 0
    np.testing.assert_allclose(u_c, u_d, atol=1e-8)


def test_mixed_dirichlet_neumann():
    # u = x(2 - x): du/dn = 0 at x = 1... use domain [0,1]:
    # u = x(2 - x): u' = 2 - 2x = 0 at x = 1 (natural Neumann at 'right'),
    # Dirichlet at left/top/bottom. -lap u = 2.
    u_exact = lambda x, y: x * (2.0 - x)  # noqa: E731
    space = FunctionSpace(rectangle_quads(2, 2, 0, 1, 0, 1), 4)
    u_hat = solve_poisson(
        space, lambda x, y: 2.0, ("left", "top", "bottom"), u_exact
    )
    assert l2_error(space, u_hat, u_exact) < 1e-10


def test_pure_neumann_poisson_rejected():
    space = FunctionSpace(rectangle_quads(1, 1), 3)
    with pytest.raises(ValueError):
        HelmholtzDirect(space, 0.0, ())


@pytest.mark.parametrize(
    "tags,bad",
    [
        (("left",), 2.0),  # a scalar and a length-1 array would broadcast
        (("left",), np.array([2.0])),  # over all 7 dofs of the side
        (("left",), np.zeros(8)),  # one too many
        ((), np.array([2.0])),  # values with no Dirichlet part to take them
    ],
    ids=["scalar", "length-1", "over-long", "no-dirichlet-part"],
)
@pytest.mark.parametrize("solver_cls", [HelmholtzDirect, HelmholtzCG])
def test_dirichlet_values_shape_mismatch_rejected(solver_cls, tags, bad):
    space = FunctionSpace(rectangle_quads(2, 2), 3)
    solver = solver_cls(space, 1.0, tags)
    assert solver.dirichlet_dofs.size == (7 if tags else 0)
    for rhs in (np.ones(space.ndof), np.ones((2, space.ndof))):
        with pytest.raises(ValueError, match="dirichlet_values shape mismatch"):
            solver.solve_rhs(rhs, bad)


def test_cg_reports_nonconvergence():
    f = lambda x, y: 1.0  # noqa: E731
    space = FunctionSpace(rectangle_quads(3, 3), 4)
    cg = HelmholtzCG(space, 0.0, ("left",), tol=1e-14, maxiter=1)
    with pytest.raises(RuntimeError):
        cg.solve(f)


def test_solver_on_bluff_body_mesh():
    from repro.mesh.generators import bluff_body_mesh

    mesh = bluff_body_mesh(m=3, nr=1)
    space = FunctionSpace(mesh, 3)
    solver = HelmholtzDirect(space, 1.0, ("inflow", "wall"))
    u_hat = solver.solve(lambda x, y: 1.0)
    vals = space.backward(u_hat)
    assert np.isfinite(vals).all()
    # Maximum principle-ish sanity: solution bounded by f/lam away from BCs.
    assert vals.max() <= 1.0 + 1e-6
