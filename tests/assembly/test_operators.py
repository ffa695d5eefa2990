import numpy as np
import pytest

from repro.assembly.operators import elemental_laplacian, elemental_mass
from repro.mesh.mapping import GeomFactors
from repro.spectral.expansions import QuadExpansion, TriExpansion

from ._assembled_oracle import elemental_helmholtz, elemental_load

TRI = np.array([[0.0, 0.0], [1.2, 0.1], [0.3, 1.0]])
QUAD = np.array([[0.0, 0.0], [1.0, 0.0], [1.1, 1.2], [-0.1, 1.0]])


def cases(P=4):
    return [
        (TriExpansion(P), GeomFactors.compute(TriExpansion(P), TRI)),
        (QuadExpansion(P), GeomFactors.compute(QuadExpansion(P), QUAD)),
    ]


def test_mass_spd_and_measures_area():
    for exp, gf in cases():
        m = elemental_mass(exp, gf)
        np.testing.assert_allclose(m, m.T, atol=1e-12)
        assert np.linalg.eigvalsh(m).min() > 0
        # 1 = sum of vertex modes, so 1^T M 1 over vertex block = area.
        c = np.zeros(exp.nmodes)
        for i in exp.vertex_modes:
            c[i] = 1.0
        assert c @ m @ c == pytest.approx(gf.jw.sum(), rel=1e-12)


def test_laplacian_symmetric_psd_constant_nullspace():
    for exp, gf in cases():
        L = elemental_laplacian(exp, gf)
        np.testing.assert_allclose(L, L.T, atol=1e-11)
        assert np.linalg.eigvalsh(L).min() > -1e-10
        c = np.zeros(exp.nmodes)
        for i in exp.vertex_modes:
            c[i] = 1.0
        np.testing.assert_allclose(L @ c, 0.0, atol=1e-10)


def test_figure10_interior_interior_block_banded():
    # The paper notes "the banded structure of the interior-interior
    # matrix" — interior modes with q-fastest ordering couple only within
    # a narrow band for the quad tensor basis.
    P = 6
    exp = QuadExpansion(P)
    gf = GeomFactors.compute(exp, np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]))
    L = elemental_laplacian(exp, gf)
    nb = len(exp.boundary_modes)
    ii = L[nb:, nb:]
    n = ii.shape[0]
    full_bw = n - 1
    rows, cols = np.nonzero(np.abs(ii) > 1e-10 * np.abs(ii).max())
    bw = np.abs(rows - cols).max()
    assert bw < full_bw  # strictly banded, not dense


def test_helmholtz_combination():
    for exp, gf in cases():
        L = elemental_laplacian(exp, gf)
        M = elemental_mass(exp, gf)
        H = elemental_helmholtz(exp, gf, 2.5)
        np.testing.assert_allclose(H, L + 2.5 * M, rtol=1e-12)
        np.testing.assert_allclose(elemental_helmholtz(exp, gf, 0.0), L, rtol=1e-12)


def test_helmholtz_negative_lambda_rejected():
    exp, gf = cases()[0]
    with pytest.raises(ValueError):
        elemental_helmholtz(exp, gf, -1.0)


def test_load_vector_constant():
    for exp, gf in cases():
        f = elemental_load(exp, gf, np.ones(gf.jw.size))
        # sum over vertex modes of (1, phi_v) = integral of 1 = area
        total = sum(f[i] for i in exp.vertex_modes)
        # plus edge/interior contributions integrate the same function:
        # instead verify against direct quadrature mode by mode.
        for i in range(exp.nmodes):
            assert f[i] == pytest.approx(float(np.dot(gf.jw, exp.phi[i])), abs=1e-13)
        assert np.isfinite(total)


def test_load_vector_shape_check():
    exp, gf = cases()[0]
    with pytest.raises(ValueError):
        elemental_load(exp, gf, np.ones(3))
