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
* A production condensed set-up (``HelmholtzDirect``, ``pressure_operator``,
  ``forward``) condenses its elemental matrices chunk by chunk as they are
  built and never has a whole kind stack alive; the stored-stack form
  gives the same operator, bits and charges.
* A solved operator keeps one interior factor: the first ``solve()``
  replaces ``low`` by ``linv``, race-free, and a substitution after it is
  a typed error.
"""

import sys
import threading
import time
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

from repro.assembly import condensation
from repro.assembly.condensation import CondensedOperator, InteriorFactorReleased
from repro.assembly.space import CHUNK, ElementalOperator, FunctionSpace
from repro.linalg.banded import BandedSPDSolver
from repro.machines.network import NetworkModel
from repro.mesh.generators import rectangle_quads
from repro.mesh.mesh2d import Mesh2D
from repro.ns.ale import ALENavierStokes2D
from repro.ns.nektar2d import NavierStokes2D
from repro.ns.nektar_f import NekTarF
from repro.parallel.simmpi import VirtualCluster
from repro.solvers.helmholtz import HelmholtzDirect, pressure_operator

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


# -- the set-up streams its elemental matrices -------------------------------------


def checkerboard_mesh(nx: int, ny: int) -> Mesh2D:
    """``rectangle_quads(nx, ny)`` with every other cell split into two
    triangles: both kinds interleaved in element order, with their
    boundary tags."""
    quads = rectangle_quads(nx, ny)
    elems, first = [], []  # first[c]: index of cell c's first element
    for c, e in enumerate(quads.elements):
        first.append(len(elems))
        v0, v1, v2, v3 = e.vertices
        elems += [(v0, v1, v2), (v0, v2, v3)] if c % 2 else [e.vertices]
    # A split cell's sides 0, 1 are its first triangle's 0, 1; its sides
    # 2, 3 are its second triangle's 1, 2.
    split = {0: (0, 0), 1: (0, 1), 2: (1, 1), 3: (1, 2)}
    tags = {
        tag: [
            (first[c] + split[side][0], split[side][1]) if c % 2 else (first[c], side)
            for c, side in sides
        ]
        for tag, sides in quads.boundary_tags.items()
    }
    return Mesh2D(quads.vertices, elems, tags)


#: Both have at least three chunks of every element kind, so a whole
#: kind stack is more than the two chunks the bound allows.
STREAM_SPACES = {
    "quad": lambda: FunctionSpace(rectangle_quads(8, 6), 5),
    "mixed": lambda: FunctionSpace(checkerboard_mesh(10, 8), 4),
}
TAGS = ("left", "top")
PRODUCTION_SETUPS = {
    "helmholtz_direct": lambda space: HelmholtzDirect(space, 2.0, TAGS),
    "pressure_pinned": lambda space: pressure_operator(space),
    "pressure_dirichlet": lambda space: pressure_operator(space, TAGS),
    "forward": lambda space: space.forward(stacked_values(space, (2,))),
}
#: The bound, fixed before the first run: when the builder hands out a
#: chunk, at most one chunk it handed out earlier is still alive (the
#: set-up loop's previous one), so never more than two chunks of
#: ``CHUNK`` rows exist at once; no whole stack is ever built.
MAX_CHUNKS_ALIVE = 2


def chunk_watch(monkeypatch):
    """Every chunk the tabulating builder hands out (weak references),
    the most alive at once, and every whole-stack build."""
    seen = {"chunks": [], "max_alive": 0, "stacks": 0}
    real_chunks = FunctionSpace._batch_operator_chunks
    real_stack = FunctionSpace._batch_operator_stack

    def chunks(self, b, kind, lam):
        for rows, mats in real_chunks(self, b, kind, lam):
            assert len(mats) <= CHUNK
            seen["chunks"].append(weakref.ref(mats))
            alive = sum(ref() is not None for ref in seen["chunks"])
            seen["max_alive"] = max(seen["max_alive"], alive)
            yield rows, mats
            del mats

    def stack(self, b, kind, lam):
        seen["stacks"] += 1
        return real_stack(self, b, kind, lam)

    monkeypatch.setattr(FunctionSpace, "_batch_operator_chunks", chunks)
    monkeypatch.setattr(FunctionSpace, "_batch_operator_stack", stack)
    return seen


@pytest.mark.parametrize("setup", PRODUCTION_SETUPS)
@pytest.mark.parametrize("name", STREAM_SPACES)
def test_production_setup_never_holds_a_whole_kind_stack(name, setup, monkeypatch):
    space = STREAM_SPACES[name]()
    assert all(-(-b.ng // CHUNK) >= 3 for b in space.batches())
    seen = chunk_watch(monkeypatch)
    built = PRODUCTION_SETUPS[setup](space)
    monkeypatch.undo()
    assert seen["stacks"] == 0
    assert len(seen["chunks"]) == sum(-(-b.ng // CHUNK) for b in space.batches())
    assert seen["max_alive"] <= MAX_CHUNKS_ALIVE
    # Every chunk is dead while what the set-up built is still alive:
    # nothing it keeps is a view of one.
    assert all(ref() is None for ref in seen["chunks"])
    del built


def stored_and_streamed(space, kind, lam, dofs):
    """The operator from stored stacks and from the production recipe,
    each with its set-up's sampler sequence and counter snapshot."""
    stored = observed(
        lambda: CondensedOperator(space, space.elemental_matrices(kind, lam), dofs)
    )
    streamed = observed(lambda: CondensedOperator(space, ElementalOperator(space, kind, lam), dofs))
    return stored, streamed


def assert_same_operator(op, ref):
    assert len(op._groups) == len(ref._groups)
    for grp, ref_grp in zip(op._groups, ref._groups):
        assert grp.keys() == ref_grp.keys()
        for key, val in grp.items():
            if isinstance(val, np.ndarray):
                assert val.flags.c_contiguous, key
                assert np.array_equal(val, ref_grp[key]), key
            else:
                assert val == ref_grp[key] if val is not None else ref_grp[key] is None, key
    assert np.array_equal(op.perm, ref.perm)
    assert op.bandwidth == ref.bandwidth
    assert np.array_equal(op.solver._cb, ref.solver._cb)
    assert (op.s_fk != ref.s_fk).nnz == 0


OPERATOR_KINDS = {  # (kind, lam, Dirichlet dofs of a space)
    "mass": ("mass", 0.0, lambda space: ()),
    "laplacian-pinned": ("laplacian", 0.0, lambda space: space.dofmap.boundary_dofs()[:1]),
    "helmholtz-dirichlet": ("helmholtz", 2.0, lambda space: space.dirichlet_plan(TAGS).dofs),
}


@pytest.mark.parametrize("op_kind", OPERATOR_KINDS)
@pytest.mark.parametrize("name", STREAM_SPACES)
def test_stored_stacks_give_the_streamed_operator(name, op_kind):
    space = STREAM_SPACES[name]()
    kind, lam, dofs = OPERATOR_KINDS[op_kind]
    (ref, ref_seq, ref_snap), (op, seq, snap) = stored_and_streamed(space, kind, lam, dofs(space))
    assert seq == ref_seq
    assert snap == ref_snap
    assert_same_operator(op, ref)

    rng = np.random.default_rng(space.ndof)
    rhs = rng.standard_normal((3, space.ndof))
    g = rng.standard_normal((3, op.dirichlet.size))
    for args in ((rhs[0], g[0]), (rhs, g)):
        got, seq, snap = observed(lambda: op.solve(*args))
        want, ref_seq, ref_snap = observed(lambda: ref.solve(*args))
        assert np.array_equal(got, want)
        assert (seq, snap) == (ref_seq, ref_snap)


# -- a solved operator keeps one interior factor -----------------------------------


def fresh_operator():
    space = STREAM_SPACES["mixed"]()
    return space, CondensedOperator(
        space, ElementalOperator(space, "helmholtz", 1.5), space.dirichlet_plan(TAGS).dofs
    )


def random_rhs(space, op, nrhs=2):
    rng = np.random.default_rng(11)
    return rng.standard_normal((nrhs, space.ndof)), rng.standard_normal((nrhs, op.dirichlet.size))


def test_first_solve_replaces_low_by_linv():
    space, op = fresh_operator()
    assert all(grp["low"] is not None and grp["linv"] is None for grp in op._groups)
    rhs, g = random_rhs(space, op)
    first = op.solve(rhs, g)
    for grp in op._groups:
        assert grp["low"] is None
        assert {"linv", "abi", "aii_inv_aib"} <= {
            k for k, v in grp.items() if isinstance(v, np.ndarray)
        }
    # The release moves no bit: later solves, and another operator's
    # first, equal the first.
    assert np.array_equal(op.solve(rhs, g), first)
    _, other = fresh_operator()
    assert np.array_equal(other.solve(rhs, g), first)


class SlowFactorReads(dict):
    """A group whose ``low`` takes a while to read: it widens the window
    between a first solve's "no ``linv`` yet" and its read of ``low``,
    in which another thread's first solve may drop ``low``."""

    def __getitem__(self, key):
        if key == "low":
            time.sleep(0.005)
        return super().__getitem__(key)


def test_concurrent_first_solves_agree():
    """Threads racing to one fresh operator's first solve: no error, one
    answer.  More threads than cores, a short switch interval and slow
    reads of ``low`` make the interleaving that a dropped ``low`` would
    break likely."""
    space, _ = fresh_operator()
    nthreads, rounds = 6, 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            _, op = fresh_operator()
            op._groups = [SlowFactorReads(grp) for grp in op._groups]
            rhs, g = random_rhs(space, op)
            start = threading.Barrier(nthreads)
            results, errors = [None] * nthreads, []

            def first_solve(i):
                try:
                    start.wait(timeout=30)
                    results[i] = op.solve(rhs, g)
                except BaseException as exc:  # reported below
                    errors.append(exc)

            threads = [threading.Thread(target=first_solve, args=(i,)) for i in range(nthreads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert all(np.array_equal(res, results[0]) for res in results)
            assert all(grp["low"] is None for grp in op._groups)
    finally:
        sys.setswitchinterval(interval)


def test_substitution_after_a_solve_is_a_typed_error():
    space, op = fresh_operator()
    rhs, g = random_rhs(space, op, nrhs=1)
    op._solve_by_substitution(rhs[0], g[0])  # fresh: the forward path
    op.solve(rhs[0], g[0])
    with pytest.raises(InteriorFactorReleased):
        op._solve_by_substitution(rhs[0], g[0])


@pytest.mark.parametrize("name", STREAM_SPACES)
def test_fresh_substitution_is_the_stored_forms_to_the_bit(name):
    """``forward``'s path: the streamed mass operator's substitution is
    the stored-stack operator's, bits and charges."""
    space = STREAM_SPACES[name]()
    rhs = space.load_vector(stacked_values(space, ()))
    stored = CondensedOperator(space, space.elemental_matrices("mass"))
    streamed = CondensedOperator(space, ElementalOperator(space, "mass"))
    got, seq, snap = observed(lambda: streamed._solve_by_substitution(rhs))
    want, ref_seq, ref_snap = observed(lambda: stored._solve_by_substitution(rhs))
    assert np.array_equal(got, want)
    assert (seq, snap) == (ref_seq, ref_snap)
    assert np.array_equal(space.forward(stacked_values(space, ())), got)
