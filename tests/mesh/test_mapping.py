import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.mapping import ElementMap, GeomFactors
from repro.spectral.expansions import QuadExpansion, TriExpansion

from ..spectral._reference import forward

REF_TRI = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
REF_QUAD = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


def test_identity_maps():
    s = np.linspace(-0.9, 0.9, 5)
    tri = ElementMap(REF_TRI)
    x, y = tri.x(s, -s)
    np.testing.assert_allclose(x, s, atol=1e-14)
    np.testing.assert_allclose(y, -s, atol=1e-14)
    quad = ElementMap(REF_QUAD)
    x, y = quad.x(s, s**2 - 0.5)
    np.testing.assert_allclose(x, s, atol=1e-14)
    np.testing.assert_allclose(y, s**2 - 0.5, atol=1e-14)


def test_identity_jacobian():
    for coords in (REF_TRI, REF_QUAD):
        emap = ElementMap(coords)
        j = emap.jacobian(np.array([0.1]), np.array([-0.2]))
        np.testing.assert_allclose(j[0], np.eye(2), atol=1e-14)


def test_affine_triangle_constant_jacobian():
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
    emap = ElementMap(coords)
    s = np.linspace(-0.8, 0.5, 6)
    det = np.linalg.det(emap.jacobian(s, -0.9 * np.ones_like(s)))
    np.testing.assert_allclose(det, det[0])
    # Area = |det| * reference area (2) => det = area / 2 = 3/2.
    assert det[0] == pytest.approx(1.5)


def test_bilinear_quad_varying_jacobian():
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [3.0, 2.0], [0.0, 1.0]])
    emap = ElementMap(coords)
    det = np.linalg.det(emap.jacobian(np.array([-0.5, 0.5]), np.array([0.0, 0.0])))
    assert det[0] != pytest.approx(det[1])
    assert np.all(det > 0)


def test_invalid_coords_shape():
    with pytest.raises(ValueError):
        ElementMap(np.zeros((5, 2)))


@given(st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=8, deadline=None)
def test_geomfactors_integrate_area(P):
    tri_coords = np.array([[0.0, 0.0], [1.0, 0.1], [0.2, 1.3]])
    gf = GeomFactors.compute(TriExpansion(P), tri_coords)
    area = 0.5 * abs(
        (tri_coords[1, 0] - tri_coords[0, 0]) * (tri_coords[2, 1] - tri_coords[0, 1])
        - (tri_coords[2, 0] - tri_coords[0, 0]) * (tri_coords[1, 1] - tri_coords[0, 1])
    )
    assert gf.jw.sum() == pytest.approx(area, rel=1e-12)
    quad_coords = np.array([[0.0, 0.0], [2.0, 0.0], [2.5, 1.5], [0.0, 1.0]])
    gfq = GeomFactors.compute(QuadExpansion(P), quad_coords)
    # Shoelace area of the quad.
    x, y = quad_coords[:, 0], quad_coords[:, 1]
    area_q = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    assert gfq.jw.sum() == pytest.approx(area_q, rel=1e-12)


def test_geomfactors_kind_mismatch():
    with pytest.raises(ValueError):
        GeomFactors.compute(TriExpansion(3), REF_QUAD)


def test_geomfactors_inverted_element_rejected():
    bad = REF_TRI[::-1]  # clockwise
    with pytest.raises(ValueError):
        GeomFactors.compute(TriExpansion(3), bad)


def test_physical_gradients_linear_function():
    # u = 3x - 2y has constant gradient (3, -2) whatever the element.
    coords = np.array([[0.0, 0.0], [2.0, 0.3], [2.2, 1.9], [-0.1, 1.4]])
    exp = QuadExpansion(4)
    gf = GeomFactors.compute(exp, coords)
    emap = ElementMap(coords)
    A, B = exp.rule.points
    x, y = emap.x(A, B)
    u = 3.0 * x - 2.0 * y
    coeffs = forward(exp, u)  # reference-space projection is fine for values
    dx, dy = gf.physical_gradients(exp.dphi1, exp.dphi2)
    np.testing.assert_allclose(dx.T @ coeffs, 3.0, atol=1e-9)
    np.testing.assert_allclose(dy.T @ coeffs, -2.0, atol=1e-9)
