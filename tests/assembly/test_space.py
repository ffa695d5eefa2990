import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.mesh.generators import rectangle_quads
from repro.mesh.mesh2d import Mesh2D

from .._meshes import rectangle_tris
from ._assembled_oracle import assemble, element_geom
from ._dofmap_oracle import expansion


def mixed_mesh():
    """One quad and two triangles sharing edges (tests tri/quad conformity)."""
    verts = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]], dtype=float
    )
    elems = [(0, 1, 2, 3), (1, 4, 2), (4, 5, 2)]
    return Mesh2D(verts, elems)


def test_space_shapes():
    space = FunctionSpace(rectangle_quads(2, 2), 4)
    assert space.nelem == 4
    assert space.nq == 36  # (P+2)^2
    xq, yq = space.coords()
    assert xq.shape == (4, 36)


def test_integrate_constant_is_area():
    for mesh, area in [
        (rectangle_quads(3, 2, 0, 3, 0, 2), 6.0),
        (rectangle_tris(2, 2, 0, 1, 0, 1), 1.0),
        (mixed_mesh(), 2.0),
    ]:
        space = FunctionSpace(mesh, 3)
        assert space.integrate(np.ones((space.nelem, space.nq))) == pytest.approx(area)


def test_forward_backward_roundtrip_polynomial():
    space = FunctionSpace(mixed_mesh(), 4)
    xq, yq = space.coords()
    f = 2.0 + xq - 3.0 * yq + xq * yq + xq**2
    u_hat = space.forward(f)
    np.testing.assert_allclose(space.backward(u_hat), f, atol=1e-9)


def test_forward_continuous_result():
    # Projection of a continuous function yields one value per vertex dof.
    space = FunctionSpace(rectangle_quads(2, 2), 3)
    xq, yq = space.coords()
    u_hat = space.forward(np.sin(xq) * np.cos(yq))
    verts = space.mesh.vertices
    vals = space.eval_at_vertices(u_hat)
    # Vertex coefficients approximate nodal values of a smooth function.
    np.testing.assert_allclose(
        vals, np.sin(verts[:, 0]) * np.cos(verts[:, 1]), atol=1e-3
    )


def test_gradient_of_linear_field():
    space = FunctionSpace(mixed_mesh(), 3)
    xq, yq = space.coords()
    u_hat = space.forward(3.0 * xq - 2.0 * yq + 1.0)
    dudx, dudy = space.gradient(u_hat)
    np.testing.assert_allclose(dudx, 3.0, atol=1e-9)
    np.testing.assert_allclose(dudy, -2.0, atol=1e-9)


def test_load_vector_against_integral():
    space = FunctionSpace(rectangle_quads(2, 1), 3)
    ones = np.ones((space.nelem, space.nq))
    rhs = space.load_vector(ones)
    # sum_i (1, phi_i) over vertex modes only = integral of the vertex
    # partition of unity = area.
    assert rhs[: space.mesh.nvertices].sum() == pytest.approx(
        2.0 * 2.0, rel=1e-12
    )


def test_norm_l2():
    space = FunctionSpace(rectangle_quads(1, 1, 0, 1, 0, 1), 3)
    vals = 2.0 * np.ones((space.nelem, space.nq))
    assert space.norm_l2(vals) == pytest.approx(2.0)


def test_integrate_norm_and_vertex_values_refuse_malformed_input():
    # An extra element row used to be dropped (integrating to the area,
    # 1.0), a complex field cast with only a warning, and a coefficient
    # vector of any length read short.
    space = FunctionSpace(rectangle_quads(2, 2, 0, 1, 0, 1), 3)
    ones = np.ones((space.nelem, space.nq))
    for bad, match in (
        (np.ones((space.nelem + 1, space.nq)), "quadrature points"),
        (np.stack([ones, ones]), "one field"),
        (ones + 0j, "complex"),
    ):
        for method in ("integrate", "norm_l2"):
            with pytest.raises(ValueError, match=f"^{method}: .*{match}"):
                getattr(space, method)(bad)
    for bad, match in ((np.ones(space.ndof + 1), "ndof"), (np.ones(space.ndof) + 0j, "complex")):
        with pytest.raises(ValueError, match=f"^eval_at_vertices: .*{match}"):
            space.eval_at_vertices(bad)


def test_assemble_symmetry_with_sign_flips():
    verts = np.array([[0, 0], [1, 0], [2, 0], [0, 1], [1, 1], [2, 1]], dtype=float)
    elems = [(0, 1, 4, 3), (5, 4, 1, 2)]  # second is rotated: edge flip
    space = FunctionSpace(Mesh2D(verts, elems), 4)
    from repro.assembly.operators import elemental_laplacian

    mats = [
        elemental_laplacian(expansion(space.dofmap, e), element_geom(space, e))
        for e in range(2)
    ]
    a = assemble(space, mats).toarray()
    np.testing.assert_allclose(a, a.T, atol=1e-11)
    # Constant vector (vertex dofs 1, rest 0) in the null space.
    c = np.zeros(space.ndof)
    c[: space.mesh.nvertices] = 1.0
    np.testing.assert_allclose(a @ c, 0.0, atol=1e-10)


@pytest.mark.parametrize("lead", [(0,), (2, 0), (0, 3)])
@pytest.mark.parametrize("sumfact", [True, False])
def test_transforms_take_an_empty_leading_axis(lead, sumfact):
    # A NekTar-F rank with more ranks than Fourier modes holds no mode:
    # its transforms see a size-0 leading axis and must hand back the
    # matching empty shapes.
    space = FunctionSpace(mixed_mesh(), 3, sumfact=sumfact)
    u = np.zeros(lead + (space.ndof,))
    f = np.zeros(lead + (space.nelem, space.nq))
    fields = lead + (space.nelem, space.nq)
    assert space.backward(u).shape == fields
    assert [g.shape for g in space.gradient(u)] == [fields, fields]
    assert space.load_vector(f).shape == u.shape
    assert space.grad_load_vector(f, f).shape == u.shape
    assert space.operator_apply("helmholtz", u, 2.0).shape == u.shape
