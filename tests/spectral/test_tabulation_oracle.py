"""Mode tables against the per-mode evaluation they replaced.

A quad expansion's quadrature-grid tables and its local-edge tables are
outer products of its 1-D factors; the triangle's are still evaluated
one mode at a time.  Both are compared with the per-mode bodies frozen
in :mod:`._tabulation_oracle` at orders 2-8: to 1e-13 on any numpy, and
bit for bit under the ``same_bits`` marker (every entry is the same
product of the same factor values, so on the goldens' numpy build the
tables are identical, and the ALE solver's pinned PCG counts rest on
that).
"""

import numpy as np
import pytest

from repro.assembly.boundary import _reference_edges
from repro.spectral.expansions import QuadExpansion, TriExpansion

from . import _tabulation_oracle as oracle

CASES = [(cls, order) for cls in (QuadExpansion, TriExpansion) for order in range(2, 9)]
IDS = [f"{cls.__name__}-{order}" for cls, order in CASES]


def _pairs(cls, order):
    """(live, frozen) table pairs: the quadrature-grid tables, then the
    local-edge tables at the element's own edge rule and one finer."""
    exp = cls(order)
    kind = "quad" if cls is QuadExpansion else "tri"
    pairs = list(zip((exp.phi, exp.dphi1, exp.dphi2), oracle.tabulate(exp)))
    for n1d in (order + 2, order + 3):
        pairs += zip(_reference_edges(kind, order, n1d), oracle.reference_edges(exp, n1d))
    return pairs


@pytest.mark.parametrize("cls, order", CASES, ids=IDS)
def test_tables_equal_the_per_mode_evaluation(cls, order):
    for live, frozen in _pairs(cls, order):
        assert live.shape == frozen.shape and live.dtype == frozen.dtype
        scale = max(1.0, float(np.abs(frozen).max()))
        np.testing.assert_allclose(live, frozen, rtol=0, atol=1e-13 * scale)


@pytest.mark.same_bits
@pytest.mark.parametrize("cls, order", CASES, ids=IDS)
def test_tables_same_bits(cls, order):
    for live, frozen in _pairs(cls, order):
        assert np.array_equal(live, frozen)


def test_quad_tables_are_outer_products_of_the_tensor_layout():
    """Mode m's table is the tensor of rows pq[m] of the 1-D factors,
    reshaped onto the rule's xi1-fastest point order."""
    exp = QuadExpansion(5)
    tl = exp.tensor_layout()
    n = exp.nq1d
    for m, (p, q) in enumerate(tl.pq):
        np.testing.assert_array_equal(exp.phi[m].reshape(n, n), np.outer(tl.b1[q], tl.b1[p]))
        np.testing.assert_array_equal(exp.dphi1[m].reshape(n, n), np.outer(tl.b1[q], tl.d1[p]))
        np.testing.assert_array_equal(exp.dphi2[m].reshape(n, n), np.outer(tl.d1[q], tl.b1[p]))
