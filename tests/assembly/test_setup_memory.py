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
  built and never has a whole kind stack alive; stored stacks (the tests'
  ``StoredMatrices``) give the same operator, bits and charges.
* An operator is fixed at construction: it takes only its own space's
  elemental matrices, and threads solving on one shared operator get one
  answer and change nothing in it.
"""

import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

from repro.assembly import condensation
from repro.assembly.condensation import CondensedOperator, MassProjector
from repro.assembly.space import CHUNK, FunctionSpace
from repro.linalg.banded import BandedSPDSolver
from repro.machines.network import NetworkModel
from repro.mesh.generators import rectangle_quads
from repro.mesh.mesh2d import Mesh2D
from repro.ns.ale import ALENavierStokes2D
from repro.ns.nektar2d import NavierStokes2D
from repro.ns.nektar_f import NekTarF
from repro.parallel.simmpi import VirtualCluster
from repro.solvers.helmholtz import HelmholtzDirect, pressure_operator

from ._assembled_oracle import AssembledOperator, StoredMatrices
from .test_batched_equivalence import mass_setup, mixed_mesh, observed
from .test_condensation_setup import same_sparse

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
        _, solve, _ = observed(lambda: mass.solve(rhs))
        want += load + solve
    assert got == want


def test_forward_of_no_rows_builds_nothing():
    space = SPACES["mixed-dense"]()
    out, seq, _ = observed(lambda: space.forward(np.empty((0, 3, space.nelem, space.nq))))
    assert out.shape == (0, 3, space.ndof)
    assert seq == []


@pytest.fixture
def built_operators(monkeypatch):
    """Weak references to every ``MassProjector`` built meanwhile."""
    refs = []

    class Tracked(MassProjector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(condensation, "MassProjector", Tracked)
    return refs


@pytest.mark.parametrize("lead", [(), (2, 3)])
def test_no_mass_operator_survives_the_call(built_operators, lead):
    space = SPACES["mixed-dense"]()
    space.forward(stacked_values(space, lead))
    assert len(built_operators) == 1
    # Dead at return by reference counting, no gc pass needed.
    assert built_operators[0]() is None


def test_a_projector_keeps_no_boundary_scatter():
    """``MassProjector.solve`` scatters with ``np.subtract.at``: its
    groups hold no CSR scatter, a plain operator's interior groups do."""
    space = SPACES["mixed-dense"]()
    projector = MassProjector(space)
    assert all(grp["scatter"] is None for grp in projector._groups)
    assert any(grp["ni"] for grp in projector._groups)
    plain = CondensedOperator(space, space.elemental_matrices("mass"))
    assert all((grp["scatter"] is None) == (grp["ni"] == 0) for grp in plain._groups)
    xq, yq = space.coords()
    rhs = space.load_vector(np.sin(xq) * np.cos(yq))
    np.testing.assert_allclose(projector.solve(rhs), plain.solve(rhs), rtol=0.0, atol=1e-12)


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
    """Every chunk the tabulating builder hands out (weak references) and
    the most alive at once."""
    seen = {"chunks": [], "max_alive": 0}
    real_chunks = FunctionSpace._batch_operator_chunks

    def chunks(self, b, kind, lam):
        for rows, mats in real_chunks(self, b, kind, lam):
            assert len(mats) <= CHUNK
            seen["chunks"].append(weakref.ref(mats))
            alive = sum(ref() is not None for ref in seen["chunks"])
            seen["max_alive"] = max(seen["max_alive"], alive)
            yield rows, mats
            del mats

    monkeypatch.setattr(FunctionSpace, "_batch_operator_chunks", chunks)
    return seen


@pytest.mark.parametrize("setup", PRODUCTION_SETUPS)
@pytest.mark.parametrize("name", STREAM_SPACES)
def test_production_setup_never_holds_a_whole_kind_stack(name, setup, monkeypatch):
    space = STREAM_SPACES[name]()
    assert all(-(-b.ng // CHUNK) >= 3 for b in space.batches())
    seen = chunk_watch(monkeypatch)
    built = PRODUCTION_SETUPS[setup](space)
    monkeypatch.undo()
    assert len(seen["chunks"]) == sum(-(-b.ng // CHUNK) for b in space.batches())
    assert seen["max_alive"] <= MAX_CHUNKS_ALIVE
    # Every chunk is dead while what the set-up built is still alive:
    # nothing it keeps is a view of one.
    assert all(ref() is None for ref in seen["chunks"])
    del built


def stored_and_streamed(space, kind, lam, dofs):
    """The operator from stored stacks (one read of the recipe) and from
    the production recipe, each with its set-up's sampler sequence and
    counter snapshot."""
    stored = observed(
        lambda: CondensedOperator(
            space, StoredMatrices(space.dofmap, space.elemental_matrices(kind, lam)), dofs
        )
    )
    streamed = observed(
        lambda: CondensedOperator(space, space.elemental_matrices(kind, lam), dofs)
    )
    return stored, streamed


def assert_same_operator(op, ref):
    assert len(op._groups) == len(ref._groups)
    for grp, ref_grp in zip(op._groups, ref._groups):
        assert grp.keys() == ref_grp.keys()
        for key, val in grp.items():
            if isinstance(val, np.ndarray):
                assert val.flags.c_contiguous, key
                assert np.array_equal(val, ref_grp[key]), key
            elif key == "scatter" and val is not None:
                assert same_sparse(val, ref_grp[key])
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


# -- an operator is fixed at construction ------------------------------------------


def group_arrays(op) -> dict:
    """What every group entry is bound to (its id) and, for an array or a
    sparse scatter's three arrays, the bytes and the arrays' ids."""
    out = {}
    for g, grp in enumerate(op._groups):
        for key, val in grp.items():
            out[g, key] = id(val)
            if isinstance(val, np.ndarray):
                out[g, key, "bytes"] = val.tobytes()
            elif val is not None and key == "scatter":
                for part in ("data", "indices", "indptr"):
                    a = getattr(val, part)
                    out[g, key, part] = (id(a), a.tobytes())
    return out


def test_threads_share_one_operator():
    """Threads solving at once on one operator get one answer, bit for
    bit, and no group array is rebound or written: nothing is left to
    lock."""
    space = STREAM_SPACES["mixed"]()
    op = CondensedOperator(
        space, space.elemental_matrices("helmholtz", 1.5), space.dirichlet_plan(TAGS).dofs
    )
    rng = np.random.default_rng(11)
    rhs = rng.standard_normal((2, space.ndof))
    g = rng.standard_normal((2, op.dirichlet.size))
    before = group_arrays(op)
    want = op.solve(rhs, g)
    nthreads, rounds = 4, 3
    start = threading.Barrier(nthreads)
    results, errors = [[] for _ in range(nthreads)], []

    def solves(i):
        try:
            start.wait(timeout=30)
            for _ in range(rounds):
                results[i].append(op.solve(rhs, g))
        except BaseException as exc:  # reported below
            errors.append(exc)

    threads = [threading.Thread(target=solves, args=(i,)) for i in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads inside the solves
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(np.array_equal(res, want) for mine in results for res in mine)
    assert group_arrays(op) == before


def test_another_spaces_elemental_matrices_are_a_typed_error():
    """A second space on the same mesh and order has its own dof map:
    its matrices are refused, not condensed against the wrong one."""
    space, other = (FunctionSpace(mixed_mesh(), 4) for _ in range(2))
    with pytest.raises(ValueError, match="another space"):
        CondensedOperator(space, other.elemental_matrices("mass"))
    with pytest.raises(ValueError, match="another space"):
        CondensedOperator(space, StoredMatrices(other.dofmap, other.elemental_matrices("mass")))


class StoredProjector(MassProjector):
    """A ``MassProjector`` set up from stored stacks."""

    def __init__(self, space):
        mats = StoredMatrices(space.dofmap, space.elemental_matrices("mass"))
        CondensedOperator.__init__(self, space, mats)


@pytest.mark.parametrize("name", STREAM_SPACES)
def test_fresh_substitution_is_the_stored_forms_to_the_bit(name):
    """``forward``'s path: the streamed mass projector's substitution is
    the stored-stack projector's, bits and charges."""
    space = STREAM_SPACES[name]()
    rhs = space.load_vector(stacked_values(space, ()))
    stored = StoredProjector(space)
    streamed = MassProjector(space)
    got, seq, snap = observed(lambda: streamed.solve(rhs))
    want, ref_seq, ref_snap = observed(lambda: stored.solve(rhs))
    assert np.array_equal(got, want)
    assert (seq, snap) == (ref_seq, ref_snap)
    assert np.array_equal(space.forward(stacked_values(space, ())), got)
