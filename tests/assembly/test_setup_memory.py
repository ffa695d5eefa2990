"""Set-up keeps only what it solves with.

* ``FunctionSpace.forward`` builds its condensed mass operator, projects
  every leading row with one ``load_vector`` and one substitution solve,
  and drops the operator: one stacked call equals per-field calls bit for
  bit, its charges are [mass set-up, (load, solve) x rows] exactly, and
  no ``CondensedOperator`` outlives the call.
* ``BandedSPDSolver.from_banded`` factors a Fortran-ordered band in place
  and never writes to any other: the condensed and assembled operators
  hand it a Fortran-ordered band, and the factor is the copy-then-factor
  one to the bit.
"""

import weakref

import numpy as np
import pytest
import scipy.linalg as sla

from repro.assembly import condensation
from repro.assembly.condensation import CondensedOperator
from repro.assembly.space import FunctionSpace
from repro.linalg.banded import BandedSPDSolver
from repro.machines.network import NetworkModel
from repro.mesh.generators import rectangle_quads
from repro.ns.ale import ALENavierStokes2D
from repro.ns.nektar2d import NavierStokes2D
from repro.ns.nektar_f import NekTarF
from repro.parallel.simmpi import VirtualCluster

from ._assembled_oracle import AssembledOperator
from .test_batched_equivalence import mass_setup, mixed_mesh, observed

NET = NetworkModel("t", latency_us=5, bandwidth=1e9)
SPACES = {
    "mixed-dense": lambda: FunctionSpace(mixed_mesh(), 5),
    "quad-sumfact": lambda: FunctionSpace(rectangle_quads(3, 2), 4, sumfact=True),
}


def stacked_values(space, lead):
    rng = np.random.default_rng(space.ndof)
    return space.backward(rng.standard_normal(lead + (space.ndof,)))


# -- the projection lives for one call ---------------------------------------------


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("name", SPACES)
def test_stacked_forward_is_per_field_forward_bit_for_bit(name, lead):
    space = SPACES[name]()
    vals = stacked_values(space, lead)
    got = space.forward(vals)
    assert got.shape == lead + (space.ndof,)
    for idx in np.ndindex(*lead):
        assert np.array_equal(got[idx], space.forward(vals[idx]))


@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
@pytest.mark.parametrize("name", SPACES)
def test_forward_charges_one_setup_then_load_and_solve_per_row(name, lead):
    space = SPACES[name]()
    vals = stacked_values(space, lead)
    _, got, _ = observed(lambda: space.forward(vals))

    mass, want, _ = observed(lambda: mass_setup(space))
    for idx in np.ndindex(*lead):
        rhs, load, _ = observed(lambda: space.load_vector(vals[idx]))
        _, solve, _ = observed(lambda: mass._solve_by_substitution(rhs))
        want += load + solve
    assert got == want


def test_forward_of_no_rows_builds_nothing():
    space = SPACES["mixed-dense"]()
    out, seq, _ = observed(lambda: space.forward(np.empty((0, 3, space.nelem, space.nq))))
    assert out.shape == (0, 3, space.ndof)
    assert seq == []


@pytest.fixture
def built_operators(monkeypatch):
    """Weak references to every ``CondensedOperator`` built meanwhile."""
    refs = []

    class Tracked(CondensedOperator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(condensation, "CondensedOperator", Tracked)
    return refs


@pytest.mark.parametrize("lead", [(), (2, 3)])
def test_no_mass_operator_survives_the_call(built_operators, lead):
    space = SPACES["mixed-dense"]()
    space.forward(stacked_values(space, lead))
    assert len(built_operators) == 1
    # Dead at return by reference counting, no gc pass needed.
    assert built_operators[0]() is None


# -- each solver projects its initial state in one call ----------------------------


def forward_calls(monkeypatch):
    """Leading shapes of every ``FunctionSpace.forward`` call made meanwhile."""
    calls = []
    real = FunctionSpace.forward

    def forward(self, values):
        calls.append(np.shape(values)[:-2])
        return real(self, values)

    monkeypatch.setattr(FunctionSpace, "forward", forward)
    return calls


def test_navier_stokes_2d_projects_once(monkeypatch):
    space = FunctionSpace(rectangle_quads(2, 2), 4)
    ns = NavierStokes2D(space, 0.1, 1e-2, {})
    calls = forward_calls(monkeypatch)
    ns.set_initial(lambda x, y, t: np.sin(x), lambda x, y, t: np.cos(y))
    assert calls == [(2,)]
    xq, yq = space.coords()
    monkeypatch.undo()
    assert np.array_equal(ns.u_hat, space.forward(np.sin(xq)))
    assert np.array_equal(ns.v_hat, space.forward(np.cos(yq)))


def test_ale_projects_once(monkeypatch):
    ns = ALENavierStokes2D(rectangle_quads(2, 2), 3, nu=0.1, dt=1e-2, velocity_bcs={})
    calls = forward_calls(monkeypatch)
    ns.set_initial(lambda x, y, t: x * y, lambda x, y, t: 1.0)
    assert calls == [(2,)]


def test_nektar_f_projects_once_in_mode_component_part_order(monkeypatch):
    mesh = rectangle_quads(2, 2)
    amps = [lambda m, x, y, t, c=c: complex(c + m * x, m * y - c) for c in range(3)]

    def rank_fn(comm):
        nf = NekTarF(comm, FunctionSpace(mesh, 3), nz=8, nu=0.1, dt=1e-2, velocity_bcs={})
        nf.set_initial(*amps)
        return nf.my_modes, (nf.u_hat, nf.v_hat, nf.w_hat)

    calls = forward_calls(monkeypatch)
    ranks = VirtualCluster(2, NET).run(rank_fn)
    monkeypatch.undo()
    assert sorted(calls) == sorted((len(modes), 3, 2) for modes, _ in ranks)
    space = FunctionSpace(mesh, 3)
    xq, yq = space.coords()
    for modes, hats in ranks:
        for i, m in enumerate(modes):
            for hat, amp in zip(hats, amps):
                vals = np.vectorize(lambda x, y: amp(m, x, y, 0.0))(xq, yq)
                want = space.forward(vals.real) + 1j * space.forward(vals.imag)
                assert np.array_equal(hat[i], want)


# -- the band changes hands --------------------------------------------------------


def spd_band(n: int, kd: int, order: str) -> np.ndarray:
    ab = np.random.default_rng(n + kd).uniform(-1.0, 1.0, (kd + 1, n)) / (2 * kd + 1)
    ab[kd] = 1.0 + np.abs(ab[kd])
    return np.asarray(ab, order=order)


@pytest.mark.parametrize("kd", [0, 1, 7])
def test_from_banded_never_writes_a_c_ordered_band(kd):
    ab = spd_band(40, kd, "C")
    before = ab.copy()
    first = BandedSPDSolver.from_banded(ab)
    assert np.array_equal(ab, before)
    assert not np.shares_memory(first._cb, ab)
    # The caller may reuse it: a second factorisation is the first.
    assert np.array_equal(BandedSPDSolver.from_banded(ab)._cb, first._cb)


@pytest.mark.parametrize("kd", [1, 7])
def test_from_banded_factors_a_fortran_band_in_place(kd):
    ab = spd_band(40, kd, "F")
    want = sla.cholesky_banded(ab.copy(order="C"), lower=False)
    solver = BandedSPDSolver.from_banded(ab)
    assert np.shares_memory(solver._cb, ab)
    assert np.array_equal(solver._cb, want)
    assert np.array_equal(solver._cb, BandedSPDSolver.from_banded(spd_band(40, kd, "C"))._cb)


def handed_bands(monkeypatch):
    """(band, C-ordered copy) of every ``from_banded`` call made meanwhile."""
    handed = []
    real = BandedSPDSolver.from_banded.__func__

    def from_banded(klass, ab):
        handed.append((ab, ab.copy(order="C")))
        return real(klass, ab)

    monkeypatch.setattr(BandedSPDSolver, "from_banded", classmethod(from_banded))
    return handed


OPERATORS = {"condensed": CondensedOperator, "assembled": AssembledOperator}


@pytest.mark.parametrize("dirichlet", ["none", "some"])
@pytest.mark.parametrize("cls", OPERATORS)
def test_operators_hand_over_a_fortran_band(cls, dirichlet, monkeypatch):
    space = FunctionSpace(mixed_mesh(), 4)
    dofs = space.dofmap.boundary_dofs()[::3] if dirichlet == "some" else ()
    handed = handed_bands(monkeypatch)
    op = OPERATORS[cls](space, space.elemental_matrices("helmholtz", 1.5), dofs)
    monkeypatch.undo()
    ((ab, copy),) = handed
    assert ab.flags.f_contiguous and not ab.flags.c_contiguous
    assert np.shares_memory(op.solver._cb, ab)
    assert np.array_equal(op.solver._cb, BandedSPDSolver.from_banded(copy)._cb)
