"""Ablation: tabulated dgemv vs. sum-factorised operator evaluation.

NekTar evaluates tensor-product transforms by sum-factorisation; this
ablation quantifies the design choice the paper's stage-2/6 shares rest
on — two O(P^3) contractions instead of one O(P^4) tabulated
matrix-vector product per element.
"""

import numpy as np
import pytest

from repro.spectral.expansions import QuadExpansion

ORDER = 10


@pytest.fixture(scope="module")
def setup():
    exp = QuadExpansion(ORDER)
    c = np.random.default_rng(0).standard_normal(exp.nmodes)
    exp.tensor_layout()  # warm the cache
    return exp, c


def test_ablation_backward_tabulated(benchmark, setup):
    exp, c = setup
    benchmark(lambda: exp.phi.T @ c)


def test_ablation_backward_sumfact(benchmark, setup):
    exp, c = setup
    result = benchmark(exp.backward_sumfact_batched, c)
    np.testing.assert_allclose(result, exp.phi.T @ c, atol=1e-11)


def test_ablation_gradient_tabulated(benchmark, setup):
    exp, c = setup
    benchmark(lambda: (exp.dphi1.T @ c, exp.dphi2.T @ c))


def test_ablation_gradient_sumfact(benchmark, setup):
    exp, c = setup
    d1, d2 = benchmark(exp.gradient_sumfact_batched, c)
    np.testing.assert_allclose(d1, exp.dphi1.T @ c, atol=1e-10)
