import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.mesh.curved import BlendedQuadMap, circular_arc, make_element_map
from repro.mesh.generators import bluff_body_mesh
from repro.mesh.mapping import ElementMap

from .._meshes import annulus_mesh


def test_circular_arc_interpolates_and_stays_on_circle():
    p0 = np.array([1.0, 0.0])
    p1 = np.array([0.0, 1.0])
    arc = circular_arc(p0, p1)
    s = np.linspace(-1, 1, 11)
    x, y = arc(s)
    np.testing.assert_allclose([x[0], y[0]], p0, atol=1e-14)
    np.testing.assert_allclose([x[-1], y[-1]], p1, atol=1e-14)
    np.testing.assert_allclose(np.hypot(x, y), 1.0, atol=1e-14)


def test_circular_arc_takes_minor_arc():
    # p0 at -80 deg, p1 at +80 deg: the arc must pass through 0 deg,
    # not wrap the long way.
    a = np.deg2rad(80.0)
    arc = circular_arc((np.cos(-a), np.sin(-a)), (np.cos(a), np.sin(a)))
    x, y = arc(np.array([0.0]))
    assert x[0] == pytest.approx(1.0)
    assert abs(y[0]) < 1e-12


def test_blended_map_reduces_to_bilinear_without_curves():
    coords = np.array([[0.0, 0.0], [2.0, 0.1], [2.2, 1.9], [0.0, 1.5]])
    plain = ElementMap(coords)
    blended = BlendedQuadMap(coords, {})
    s = np.linspace(-0.9, 0.9, 7)
    for a, b in ((s, s), (s, -s)):
        np.testing.assert_allclose(blended.x(a, b), plain.x(a, b), atol=1e-14)
        np.testing.assert_allclose(
            blended.jacobian(a, b), plain.jacobian(a, b), atol=1e-12
        )


def test_blended_map_edge_follows_curve():
    # Unit square with a bulged bottom edge.
    coords = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    bump = lambda s: (s, -1.0 + 0.2 * (1 - s**2))  # noqa: E731
    m = BlendedQuadMap(coords, {0: lambda s: bump(np.asarray(s))})
    s = np.linspace(-1, 1, 9)
    x, y = m.x(s, -np.ones_like(s))
    np.testing.assert_allclose(y, -1.0 + 0.2 * (1 - s**2), atol=1e-12)
    # The opposite edge is unaffected.
    x2, y2 = m.x(s, np.ones_like(s))
    np.testing.assert_allclose(y2, 1.0, atol=1e-13)


def test_blended_map_jacobian_matches_fd():
    # The bottom edge bulged down along a circle about a point 3 below it.
    coords = np.array([[-1.0, 2.0], [1.0, 2.0], [1.0, 4.0], [-1.0, 4.0]])
    arc = circular_arc(coords[0], coords[1])
    m = BlendedQuadMap(coords, {0: arc})
    pts = np.linspace(-0.8, 0.8, 5)
    h = 1e-6
    j = m.jacobian(pts, pts**2 - 0.3)
    for col, (d1, d2) in enumerate([(h, 0.0), (0.0, h)]):
        xp = m.x(pts + d1, pts**2 - 0.3 + d2)
        xm = m.x(pts - d1, pts**2 - 0.3 - d2)
        np.testing.assert_allclose(
            j[:, 0, col], (xp[0] - xm[0]) / (2 * h), rtol=1e-5, atol=1e-6
        )
        np.testing.assert_allclose(
            j[:, 1, col], (xp[1] - xm[1]) / (2 * h), rtol=1e-5, atol=1e-6
        )


def test_curve_endpoint_validation():
    coords = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    with pytest.raises(ValueError):
        BlendedQuadMap(coords, {0: lambda s: (np.asarray(s), np.asarray(s) * 0.0)})
    with pytest.raises(ValueError):
        BlendedQuadMap(coords, {7: circular_arc(coords[0], coords[1])})


def test_curved_tri_rejected():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        BlendedQuadMap(tri, {})


def test_make_element_map_selects_curved():
    mesh = bluff_body_mesh(m=3, nr=1, curved=True)
    assert mesh.curves
    (ei, le), _ = next(iter(mesh.curves.items()))
    assert isinstance(make_element_map(mesh, ei), BlendedQuadMap)
    other = next(e for e in range(mesh.nelements) if all(k[0] != e for k in mesh.curves))
    assert not isinstance(make_element_map(mesh, other), BlendedQuadMap)


def test_annulus_area_exact_with_curves():
    exact = np.pi * (1.0**2 - 0.5**2)
    curved = annulus_mesh(8, 2, curved=True)
    straight = annulus_mesh(8, 2, curved=False)
    sp_c = FunctionSpace(curved, 5)
    sp_s = FunctionSpace(straight, 5)
    area_c = sp_c.integrate(np.ones((sp_c.nelem, sp_c.nq)))
    area_s = sp_s.integrate(np.ones((sp_s.nelem, sp_s.nq)))
    assert area_c == pytest.approx(exact, rel=1e-6)
    assert abs(area_s - exact) > 1e-2  # polygonal error is visible


def test_bluff_body_curved_area():
    exact = 40.0 * 10.0 - np.pi * 0.25
    mesh = bluff_body_mesh(m=3, nr=1, curved=True)
    space = FunctionSpace(mesh, 5)
    area = space.integrate(np.ones((space.nelem, space.nq)))
    assert area == pytest.approx(exact, rel=1e-6)


def test_laplace_on_annulus_spectral_convergence():
    # u = ln(r) is harmonic; Dirichlet on both circles.  Only a curved
    # geometry can converge spectrally here.
    from repro.solvers.helmholtz import HelmholtzDirect

    errs = []
    for P in (2, 3, 4, 6):
        mesh = annulus_mesh(8, 1, curved=True)
        space = FunctionSpace(mesh, P)
        g = lambda x, y: float(np.log(np.hypot(x, y)))  # noqa: E731
        solver = HelmholtzDirect(space, 0.0, ("inner", "outer"))
        u_hat = solver.solve_rhs(solver.rhs_for(lambda x, y: 0.0), solver.bc_plan.project(g))
        xq, yq = space.coords()
        errs.append(space.norm_l2(space.backward(u_hat) - np.log(np.hypot(xq, yq))))
    assert errs[1] < errs[0] / 3
    assert errs[2] < errs[1] / 3
    assert errs[3] < 1e-5


def test_curved_wall_boundary_quadrature():
    from repro.assembly.boundary import build_edge_quadrature

    mesh = bluff_body_mesh(m=3, nr=1, curved=True)
    space = FunctionSpace(mesh, 4)
    groups = build_edge_quadrature(space, space.mesh.boundary_sides("wall"))
    # Curved edges: total wall length is the exact circle perimeter.
    total = sum(g.jw.sum() for g in groups)
    assert total == pytest.approx(np.pi, rel=1e-8)
    # Normals are radial.
    for g in groups:
        r = np.hypot(g.x, g.y)
        np.testing.assert_allclose(r, 0.5, atol=1e-12)
        np.testing.assert_allclose(g.nx, -g.x / r, atol=1e-7)
        np.testing.assert_allclose(g.ny, -g.y / r, atol=1e-7)
