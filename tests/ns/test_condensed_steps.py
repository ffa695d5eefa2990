"""The timestep's condensed solves: one interior sweep each.

A step's direct solves sweep the interior blocks as two stacked
``L^{-1}`` multiplies per (solve, element group) — never the row-by-row
``einsum`` substitution that ``FunctionSpace.forward`` keeps for its
bits, and never twice for the same right-hand side.
"""

import sys

import numpy as np

from repro.assembly import condensation
from repro.assembly.condensation import CondensedOperator
from repro.assembly.space import FunctionSpace
from repro.linalg import blas
from repro.ns.nektar2d import NavierStokes2D

from .test_ns_mixed_elements import mixed_channel


def test_step_sweeps_each_interior_block_once(monkeypatch):
    one = lambda x, y, t: 1.0 + 0.1 * np.sin(t) * y  # noqa: E731
    zero = lambda x, y, t: 0.0  # noqa: E731
    ns = NavierStokes2D(
        FunctionSpace(mixed_channel(), 5), nu=0.01, dt=5e-3,
        velocity_bcs={"left": (one, zero), "top": (zero, zero), "bottom": (zero, zero)},
        pressure_dirichlet=("right",),
    )
    ns.set_initial(one, zero)
    ns.run(2)  # start-up: lower-order viscous solvers are built here

    calls = {"einsum": 0, "dtrsm": 0, "solve_groups": 0}
    einsum, dtrsm, solve = np.einsum, blas.dtrsm_batched, CondensedOperator.solve

    def counting_einsum(*args, **kwargs):
        calls["einsum"] += sys._getframe(1).f_code.co_filename == condensation.__file__
        return einsum(*args, **kwargs)

    def counting_dtrsm(*args, **kwargs):
        calls["dtrsm"] += 1
        return dtrsm(*args, **kwargs)

    def counting_solve(self, *args, **kwargs):
        calls["solve_groups"] += sum(grp["ni"] > 0 for grp in self._groups)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    monkeypatch.setattr(blas, "dtrsm_batched", counting_dtrsm)
    monkeypatch.setattr(CondensedOperator, "solve", counting_solve)
    ns.run(3)
    # Pressure + two velocity solves per step, a quad and a tri group each.
    assert calls == {"einsum": 0, "dtrsm": 36, "solve_groups": 18}

    # The counters do count: the projection still takes the einsum sweep.
    ns.space.forward(np.ones((ns.space.nelem, ns.space.nq)))
    assert calls["einsum"] > 0 and calls["dtrsm"] == 36
