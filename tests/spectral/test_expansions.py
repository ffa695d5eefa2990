import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.operators import elemental_laplacian
from repro.mesh.mapping import GeomFactors
from repro.spectral.expansions import QuadExpansion, TriExpansion

from ._eval_basis import eval_basis
from ._reference import backward, edge_modes, forward, integrate, mass_matrix

orders = st.integers(2, 7)


# ---- mode bookkeeping (Figure 9) -------------------------------------------


def test_figure9_mode_counts_order4():
    assert TriExpansion(4).nmodes == 15
    assert QuadExpansion(4).nmodes == 25


@given(orders)
@settings(max_examples=12, deadline=None)
def test_tri_mode_count_formula(P):
    assert TriExpansion(P).nmodes == (P + 1) * (P + 2) // 2


@given(orders)
@settings(max_examples=12, deadline=None)
def test_quad_mode_count_formula(P):
    assert QuadExpansion(P).nmodes == (P + 1) ** 2


def test_figure9_ordering_vertices_edges_interior():
    for exp in (TriExpansion(4), QuadExpansion(4)):
        kinds = [m.kind for m in exp.modes]
        nv, ne = exp.nverts, exp.nedges * 3  # order 4: 3 modes per edge
        assert kinds[:nv] == ["vertex"] * nv
        assert kinds[nv : nv + ne] == ["edge"] * ne
        assert all(k == "interior" for k in kinds[nv + ne :])


def test_interior_q_runs_fastest():
    exp = QuadExpansion(4)
    labels = [exp.modes[i].label for i in exp.interior_modes]
    assert labels[:3] == ["i1_1", "i1_2", "i1_3"]
    tri = TriExpansion(5)
    tl = [tri.modes[i].label for i in tri.interior_modes]
    assert tl == ["i1_1", "i1_2", "i1_3", "i2_1", "i2_2", "i3_1"]


def test_edge_modes_listing():
    exp = TriExpansion(4)
    for e in range(3):
        ids = edge_modes(exp, e)
        assert len(ids) == 3
        assert [exp.modes[i].k for i in ids] == [0, 1, 2]
    with pytest.raises(ValueError):
        edge_modes(exp, 3)


def test_order_one_rejected():
    with pytest.raises(ValueError):
        TriExpansion(1)


# ---- vertex modes are the linear (barycentric) functions --------------------


def test_quad_vertex_modes_bilinear():
    exp = QuadExpansion(3)
    verts = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
    tab = eval_basis(exp, verts[:, 0], verts[:, 1])
    for v, mid in enumerate(exp.vertex_modes):
        expect = np.zeros(4)
        expect[v] = 1.0
        np.testing.assert_allclose(tab[mid], expect, atol=1e-13)


def test_tri_vertex_modes_barycentric():
    exp = TriExpansion(3)
    verts = np.array([[-1, -1], [1, -1], [-1, 1]], dtype=float)
    tab = eval_basis(exp, verts[:, 0], verts[:, 1])
    for v, mid in enumerate(exp.vertex_modes):
        expect = np.zeros(3)
        expect[v] = 1.0
        np.testing.assert_allclose(tab[mid], expect, atol=1e-13)


@given(st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=8, deadline=None)
def test_vertex_partition_of_unity(P):
    for exp in (TriExpansion(P), QuadExpansion(P)):
        tot = sum(exp.phi[i] for i in exp.vertex_modes)
        np.testing.assert_allclose(tot, 1.0, atol=1e-12)


# ---- interior modes vanish on the boundary ----------------------------------


def _boundary_points(exp, n=9):
    s = np.linspace(-1, 1, n)
    if isinstance(exp, TriExpansion):
        pts = [(s, -np.ones(n)), (-s, s), (-np.ones(n), s)]
    else:
        pts = [
            (s, -np.ones(n)),
            (np.ones(n), s),
            (s, np.ones(n)),
            (-np.ones(n), s),
        ]
    return pts


@given(st.sampled_from([3, 4, 5]))
@settings(max_examples=6, deadline=None)
def test_interior_modes_vanish_on_boundary(P):
    for exp in (TriExpansion(P), QuadExpansion(P)):
        for xi1, xi2 in _boundary_points(exp):
            tab = eval_basis(exp, xi1, xi2)
            for i in exp.interior_modes:
                np.testing.assert_allclose(tab[i], 0.0, atol=1e-12)


def test_edge_modes_vanish_on_other_edges():
    for exp in (TriExpansion(4), QuadExpansion(4)):
        bpts = _boundary_points(exp)
        for e in range(exp.nedges):
            for other, (xi1, xi2) in enumerate(bpts):
                if other == e:
                    continue
                tab = eval_basis(exp, xi1[1:-1], xi2[1:-1])  # skip shared vertices
                for i in edge_modes(exp, e):
                    np.testing.assert_allclose(tab[i], 0.0, atol=1e-12)


# ---- edge traces are the shared 1-D bubbles (tri/quad conformity) ----------


def test_edge_traces_match_1d_bubbles():
    from repro.spectral.basis import bubble

    P = 4
    s = np.linspace(-1, 1, 11)
    tri, quad = TriExpansion(P), QuadExpansion(P)
    # tri edge0 (b=-1, param +a) vs quad edge0 (xi2=-1, param +xi1)
    t_tab = eval_basis(tri, s, -np.ones_like(s))
    q_tab = eval_basis(quad, s, -np.ones_like(s))
    for k in range(P - 1):
        tm = edge_modes(tri, 0)[k]
        qm = edge_modes(quad, 0)[k]
        np.testing.assert_allclose(t_tab[tm], bubble(k, s), atol=1e-12)
        np.testing.assert_allclose(q_tab[qm], bubble(k, s), atol=1e-12)
    # tri hypotenuse (edge1, param +b): xi1 = -s, xi2 = s
    h_tab = eval_basis(tri, -s, s)
    for k in range(P - 1):
        tm = edge_modes(tri, 1)[k]
        np.testing.assert_allclose(h_tab[tm], bubble(k, s), atol=1e-12)
    # tri edge2 (xi1=-1, param +b)
    l_tab = eval_basis(tri, -np.ones_like(s), s)
    for k in range(P - 1):
        tm = edge_modes(tri, 2)[k]
        np.testing.assert_allclose(l_tab[tm], bubble(k, s), atol=1e-12)


# ---- mass matrix / projection ------------------------------------------------


@given(st.sampled_from([2, 3, 4, 5, 6]))
@settings(max_examples=10, deadline=None)
def test_mass_matrix_spd(P):
    for exp in (TriExpansion(P), QuadExpansion(P)):
        m = mass_matrix(exp)
        np.testing.assert_allclose(m, m.T, atol=1e-13)
        w = np.linalg.eigvalsh(m)
        assert w.min() > 0.0


def test_mass_matrix_basis_independent():
    # det(M) > 0 and cond finite => modes linearly independent.
    for exp in (TriExpansion(5), QuadExpansion(5)):
        assert np.linalg.matrix_rank(mass_matrix(exp)) == exp.nmodes


@given(st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=16, deadline=None)
def test_projection_reproduces_polynomials(p, q):
    # Projecting a polynomial of total degree <= P must be exact.
    P = 5
    for exp in (TriExpansion(P), QuadExpansion(P)):
        if isinstance(exp, TriExpansion) and p + q > P:
            continue  # triangle spans total degree <= P only
        A, B = exp.rule.points
        if isinstance(exp, TriExpansion):
            xi1 = 0.5 * (1 + A) * (1 - B) - 1
            xi2 = B
        else:
            xi1, xi2 = A, B
        f = xi1**p * xi2**q
        coeffs = forward(exp, f)
        np.testing.assert_allclose(backward(exp, coeffs), f, atol=1e-10)


def test_projection_spectral_convergence():
    # Smooth non-polynomial target: error decays exponentially with P.
    def f(x, y):
        return np.sin(np.pi * x) * np.cos(np.pi * y / 2)

    errs = {}
    for P in (3, 5, 7, 9):
        exp = QuadExpansion(P)
        A, B = exp.rule.points
        coeffs = forward(exp, f(A, B))
        err = backward(exp, coeffs) - f(A, B)
        errs[P] = np.sqrt(integrate(exp.rule, err**2))
    assert errs[5] < errs[3] / 5
    assert errs[7] < errs[5] / 5
    assert errs[9] < errs[7] / 5
    assert errs[9] < 1e-5


def test_tri_projection_spectral_convergence():
    def f(x, y):
        return np.exp(x + y)

    errs = {}
    for P in (2, 4, 6, 8):
        exp = TriExpansion(P)
        A, B = exp.rule.points
        xi1 = 0.5 * (1 + A) * (1 - B) - 1
        coeffs = forward(exp, f(xi1, B))
        err = backward(exp, coeffs) - f(xi1, B)
        errs[P] = np.sqrt(integrate(exp.rule, err**2))
    assert errs[4] < errs[2] / 10
    assert errs[6] < errs[4] / 10
    assert errs[8] < 1e-8


# ---- stiffness (Figure 10 structure) ----------------------------------------

REFERENCE_VERTICES = {
    TriExpansion: np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]]),
    QuadExpansion: np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
}


@given(st.sampled_from([3, 4, 5]))
@settings(max_examples=6, deadline=None)
def test_reference_stiffness_symmetric_psd_constants_null(P):
    # The elemental Laplacian on the reference element itself.
    for exp in (TriExpansion(P), QuadExpansion(P)):
        gf = GeomFactors.compute(exp, REFERENCE_VERTICES[type(exp)])
        L = elemental_laplacian(exp, gf)
        np.testing.assert_allclose(L, L.T, atol=1e-11)
        w = np.linalg.eigvalsh(L)
        assert w.min() > -1e-10
        # constants: sum of vertex modes = 1 -> gradient 0.
        c = np.zeros(exp.nmodes)
        for i in exp.vertex_modes:
            c[i] = 1.0
        np.testing.assert_allclose(L @ c, 0.0, atol=1e-10)


def test_figure10_boundary_first_block_structure():
    # Boundary modes first, then interior: interior-interior block is the
    # trailing block; check banded-ish structure exists (interior block
    # bandwidth smaller than full dimension).
    exp = TriExpansion(4)
    nb = len(exp.boundary_modes)
    assert exp.boundary_modes == list(range(nb))
    assert exp.interior_modes == list(range(nb, exp.nmodes))
    assert exp.nmodes - nb == 3


# ---- derivative tabulation ----------------------------------------------------


@given(st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=8, deadline=None)
def test_tabulated_derivatives_match_fd(P):
    h = 1e-6
    for exp in (QuadExpansion(P), TriExpansion(P)):
        A, B = exp.rule.points
        if isinstance(exp, TriExpansion):
            xi1 = 0.5 * (1 + A) * (1 - B) - 1
            xi2 = B
        else:
            xi1, xi2 = A, B
        f1 = eval_basis(exp, xi1 + h, xi2)
        f0 = eval_basis(exp, xi1 - h, xi2)
        np.testing.assert_allclose(exp.dphi1, (f1 - f0) / (2 * h), rtol=2e-5, atol=2e-5)
        g1 = eval_basis(exp, xi1, xi2 + h)
        g0 = eval_basis(exp, xi1, xi2 - h)
        np.testing.assert_allclose(exp.dphi2, (g1 - g0) / (2 * h), rtol=2e-5, atol=2e-5)


def test_tri_collapse_handles_top_vertex():
    exp = TriExpansion(3)
    a, b = exp.collapse(np.array([-1.0]), np.array([1.0]))
    assert np.isfinite(a).all()
    tab = eval_basis(exp, np.array([-1.0]), np.array([1.0]))
    assert np.isfinite(tab).all()


def test_eval_at_matches_backward_on_quad_points():
    for exp in (TriExpansion(4), QuadExpansion(4)):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(exp.nmodes)
        A, B = exp.rule.points
        if isinstance(exp, TriExpansion):
            xi1 = 0.5 * (1 + A) * (1 - B) - 1
            xi2 = B
        else:
            xi1, xi2 = A, B
        np.testing.assert_allclose(
            eval_basis(exp, xi1, xi2).T @ c, backward(exp, c), atol=1e-11
        )


def test_mode_labels_figure9():
    tri = TriExpansion(4)
    assert tri.mode_labels()[:3] == ["v0", "v1", "v2"]
    assert tri.mode_labels()[3] == "e0_0"
    assert tri.mode_labels()[-1] == "i2_1"
    quad = QuadExpansion(4)
    assert quad.mode_labels()[:4] == ["v0", "v1", "v2", "v3"]
    assert quad.mode_labels()[-1] == "i3_3"
