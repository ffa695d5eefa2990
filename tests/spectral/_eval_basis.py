"""Mode values of an expansion at arbitrary reference points.

A run only tabulates modes at quadrature points and along local edges;
the tests also probe vertices — the triangle's collapsed one included —
and arbitrary points, so this plain table lives here.
"""

import numpy as np

from ._tabulation_oracle import collapse


def eval_basis(exp, xi1, xi2) -> np.ndarray:
    """(nmodes, npts) table of mode values at arbitrary reference points."""
    xi1 = np.atleast_1d(np.asarray(xi1, dtype=np.float64))
    xi2 = np.atleast_1d(np.asarray(xi2, dtype=np.float64))
    A, B = collapse(exp, xi1, xi2)
    out = np.empty((exp.nmodes, xi1.size))
    for m, mode in enumerate(exp.modes):
        out[m] = mode.f(A) * mode.g(B)
    return out
