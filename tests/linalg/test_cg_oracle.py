"""``pcg`` == its pre-tape body, frozen in ``_cg_oracle.py``.

The live iteration evaluates the expressions the counted ``blas``
wrappers evaluated, in the same order, and charges their eight charges
as one tape, so

* iteration counts are equal, iterates agree to 1e-13 (tier-1) and bit
  for bit on the goldens' numpy build (``same_bits``);
* the ``(flops, bytes, label)`` sequence a kernel sampler sees and the
  ``OpCounter`` snapshots of two nested counters (the shape a
  ``StageScope`` opens) are equal, exactly — the operator's own charges
  included, up to and through an indefinite operator's raise.
"""

import numpy as np
import pytest

import repro.solvers.helmholtz as helmholtz
from repro.assembly.space import FunctionSpace
from repro.linalg.cg import pcg
from repro.linalg.counters import OpCounter, charge, set_kernel_sampler
from repro.mesh.generators import rectangle_quads
from repro.mesh.mesh2d import Mesh2D
from repro.solvers.helmholtz import HelmholtzCG

from .._meshes import rectangle_tris
from . import _cg_oracle as oracle
from ._snapshot import snapshot


def observed(fn):
    """(result or raised exception, sampler sequence, both counters'
    snapshots) of one call."""
    seq = []
    set_kernel_sampler(lambda flops, nbytes, label: seq.append((flops, nbytes, label)))
    try:
        with OpCounter() as outer, OpCounter() as inner:
            try:
                result = fn()
            except np.linalg.LinAlgError as exc:
                result = exc
    finally:
        set_kernel_sampler(None)
    return result, seq, (snapshot(outer), snapshot(inner))


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def counted(a):
    """A dense operator that charges like a counted dgemv."""

    def apply(v):
        charge(2.0 * a.size, 8.0 * a.size, "op")
        return a @ v

    return apply


def dense_cases():
    for n, seed in [(2, 0), (7, 1), (25, 2), (60, 3)]:
        a = random_spd(n, seed)
        b = np.random.default_rng(seed + 10).standard_normal(n)
        yield f"spd-{n}", (counted(a), b, np.diag(a)), {"tol": 1e-12}
    a = random_spd(12, 4)
    yield "bnorm-zero", (counted(a), np.zeros(12), np.diag(a)), {}
    a = random_spd(30, 7)
    yield "maxiter", (counted(a), np.ones(30), np.diag(a)), {"tol": 1e-14, "maxiter": 3}
    yield "indefinite", (counted(-np.eye(4)), np.ones(4), np.ones(4)), {}
    # Positive on the first search direction, negative on a later one.
    d = np.array([1.0, 2.0, -0.5, 3.0])
    yield "indefinite-late", (counted(np.diag(d)), np.ones(4), np.abs(d)), {}


def wall_tagged(mesh):
    """``mesh`` with every boundary side tagged "wall"."""
    elements = [e.vertices for e in mesh.elements]
    return Mesh2D(mesh.vertices, elements, {"wall": mesh.boundary_sides()})


def mixed_mesh():
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]], dtype=float)
    return Mesh2D(verts, [(0, 1, 2, 3), (1, 4, 2), (4, 5, 2)])


SPACES = {
    "quad": (lambda: rectangle_quads(3, 2), ("left", "top")),
    "tri": (lambda: rectangle_tris(2, 2), ("left", "bottom")),
    "mixed": (lambda: wall_tagged(mixed_mesh()), ("wall",)),
}


def helmholtz_cases():
    for name, (mesh, tags) in SPACES.items():
        space = FunctionSpace(mesh(), 4, sumfact=True)
        rng = np.random.default_rng(len(name))
        for lam in (0.0, 1.0, 3000.0):
            solver = HelmholtzCG(space, lam, tags)
            rhs = space.load_vector(rng.standard_normal((space.nelem, space.nq)))
            dv = rng.standard_normal(solver.dirichlet_dofs.size)
            yield f"{name}-{lam}", solver, rhs, dv


def compare(got, want, key, bits):
    (g, g_seq, g_snaps), (w, w_seq, w_snaps) = got, want
    assert g_seq == w_seq, key
    assert g_snaps == w_snaps, key  # totals, per label and calls, both counters
    assert g_snaps[0] == g_snaps[1], key
    if isinstance(w, Exception):
        assert isinstance(g, np.linalg.LinAlgError), key
        return
    g_x = g.x if hasattr(g, "x") else g
    w_x = w.x if hasattr(w, "x") else w
    if hasattr(w, "iterations"):
        assert (g.iterations, g.converged) == (w.iterations, w.converged), key
    if bits:
        assert g_x.tobytes() == w_x.tobytes(), key
        if hasattr(w, "residual"):
            assert g.residual == w.residual, key
    else:
        scale = float(np.max(np.abs(w_x))) or 1.0
        np.testing.assert_allclose(g_x, w_x, rtol=0.0, atol=1e-13 * scale, err_msg=key)


def run_dense(bits):
    for key, args, kwargs in dense_cases():
        got = observed(lambda: pcg(*args, **kwargs))
        want = observed(lambda: oracle.pcg(*args, **kwargs))
        compare(got, want, key, bits)


def run_helmholtz(bits, monkeypatch):
    for key, solver, rhs, dv in helmholtz_cases():
        got = observed(lambda: solver.solve_rhs(rhs, dv))
        got_iters = solver.last_iterations
        with monkeypatch.context() as m:
            m.setattr(helmholtz, "pcg", oracle.pcg)
            want = observed(lambda: solver.solve_rhs(rhs, dv))
        assert got_iters == solver.last_iterations > 0, key
        compare(got, want, key, bits)


def test_dense_systems_match_frozen_pcg():
    run_dense(bits=False)


def test_helmholtz_solves_match_frozen_pcg(monkeypatch):
    run_helmholtz(bits=False, monkeypatch=monkeypatch)


@pytest.mark.same_bits
def test_dense_systems_same_bits_as_frozen_pcg():
    run_dense(bits=True)


@pytest.mark.same_bits
def test_helmholtz_solves_same_bits_as_frozen_pcg(monkeypatch):
    run_helmholtz(bits=True, monkeypatch=monkeypatch)
