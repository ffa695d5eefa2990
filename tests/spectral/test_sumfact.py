import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.counters import OpCounter
from repro.spectral.expansions import QuadExpansion

# The per-expansion kernels left src/ when FunctionSpace's transforms
# became one pass each; their frozen bodies are the reference the live
# transforms are held to (tests/assembly/test_transform_oracle.py), and
# the first two tests here are what holds *them* to the tabulated basis.
from ..assembly._sumfact_oracle import (
    backward_sumfact_batched,
    from_tensor_batched,
    gradient_sumfact_batched,
    to_tensor_batched,
)


@given(st.integers(2, 9), st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_backward_sumfact_matches_tabulated(order, seed):
    exp = QuadExpansion(order)
    c = np.random.default_rng(seed).standard_normal((3, exp.nmodes))
    np.testing.assert_allclose(
        backward_sumfact_batched(exp, c), c @ exp.phi, rtol=1e-12, atol=1e-12
    )


@given(st.integers(2, 8), st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_gradient_sumfact_matches_tabulated(order, seed):
    exp = QuadExpansion(order)
    c = np.random.default_rng(seed).standard_normal((3, exp.nmodes))
    d1, d2 = gradient_sumfact_batched(exp, c)
    np.testing.assert_allclose(d1, c @ exp.dphi1, rtol=1e-11, atol=1e-11)
    np.testing.assert_allclose(d2, c @ exp.dphi2, rtol=1e-11, atol=1e-11)


def test_tensor_layout_roundtrip():
    exp = QuadExpansion(5)
    tl = exp.tensor_layout()
    c = np.arange(exp.nmodes, dtype=float)
    tensor = to_tensor_batched(tl, c)
    np.testing.assert_array_equal(from_tensor_batched(tl, tensor), c)
    # The (p, q) map is a bijection onto the tensor grid.
    seen = {tuple(pq) for pq in tl.pq}
    assert len(seen) == exp.nmodes == (exp.order + 1) ** 2
    # ct_perm, the gather order of the live transforms, lists the modes
    # in C^T tensor order.
    np.testing.assert_array_equal(c[tl.ct_perm].reshape(tl.np1, tl.np1), tensor.T)


def test_sumfact_cheaper_in_flops():
    from repro.assembly.space import FunctionSpace
    from repro.mesh.generators import rectangle_quads

    mesh = rectangle_quads(1, 1)
    tabulated = FunctionSpace(mesh, 8, sumfact=False)
    factorised = FunctionSpace(mesh, 8, sumfact=True)
    c = np.ones(tabulated.ndof)
    with OpCounter() as slow:
        tabulated.backward(c)
    with OpCounter() as fast:
        factorised.backward(c)
    assert 0.0 < fast.flops < 0.55 * slow.flops


def test_space_sumfact_matches_plain():
    from repro.assembly.space import FunctionSpace
    from repro.mesh.generators import rectangle_quads

    mesh = rectangle_quads(2, 2, 0.0, 1.0, 0.5, 2.0)
    plain = FunctionSpace(mesh, 6)
    fast = FunctionSpace(mesh, 6, sumfact=True)
    rng = np.random.default_rng(7)
    u_hat = rng.standard_normal(plain.ndof)
    np.testing.assert_allclose(
        fast.backward(u_hat), plain.backward(u_hat), rtol=1e-12, atol=1e-12
    )
    fx, fy = fast.gradient(u_hat)
    px, py = plain.gradient(u_hat)
    np.testing.assert_allclose(fx, px, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(fy, py, rtol=1e-10, atol=1e-10)


def test_ns_solver_identical_with_sumfact():
    from repro.assembly.space import FunctionSpace
    from repro.mesh.generators import rectangle_quads
    from .._exact import TaylorVortex
    from repro.ns.nektar2d import NavierStokes2D

    tv = TaylorVortex(nu=0.05)
    mesh = rectangle_quads(2, 2, 0.0, np.pi, 0.0, np.pi)
    results = {}
    for sumfact in (False, True):
        space = FunctionSpace(mesh, 5, sumfact=sumfact)
        bcs = {
            t: (
                lambda x, y, tt: float(tv.u(x, y, tt)),
                lambda x, y, tt: float(tv.v(x, y, tt)),
            )
            for t in ("left", "right", "top", "bottom")
        }
        ns = NavierStokes2D(space, 0.05, 5e-3, bcs)
        ns.set_initial(
            lambda x, y, t: tv.u(x, y, 0.0), lambda x, y, t: tv.v(x, y, 0.0)
        )
        ns.run(3)
        results[sumfact] = ns.u_hat
    np.testing.assert_allclose(results[True], results[False], atol=1e-10)


def test_tri_has_no_sumfact():
    from repro.spectral.expansions import TriExpansion

    assert not hasattr(TriExpansion(3), "tensor_layout")
