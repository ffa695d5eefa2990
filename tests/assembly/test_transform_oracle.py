"""The one-pass transforms == the kernels they replaced.

``FunctionSpace.backward`` / ``gradient`` / ``load_vector`` /
``grad_load_vector`` (and ``operator_diagonal``) against their bodies
before DESIGN.md section 15.3's hoisting reached them, kept frozen in
``_sumfact_oracle.py``.  The live code hands the same operands to the
same ``matmul`` calls in the same order, replays the charges of the
``dgemm_batched`` calls it no longer makes, and assembles a fresh vector
with one ordered ``np.bincount`` where the oracle sweeps ``np.add.at``, so

* every charge — the ``(flops, bytes, label)`` sequence a kernel sampler
  sees and the ``OpCounter`` snapshot with its call counts — is equal,
  exactly, on any numpy (tier-1);
* values agree to 1e-13 in tier-1 and bit for bit on the goldens' numpy
  build (``same_bits``).
"""

import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.space import FunctionSpace
from repro.mesh.generators import (
    annulus_mesh,
    bluff_body_mesh,
    rectangle_quads,
    rectangle_tris,
)
from repro.mesh.mesh2d import Mesh2D

from . import _sumfact_oracle as oracle
from .test_matvec_oracle import observed


def interleaved_mesh() -> Mesh2D:
    """quad, tri, tri, quad in a row: two batches whose ``elems`` are
    [0, 3] and [1, 2], and dofs hit from both."""
    verts = np.array(
        [[0, 0], [1, 0], [2, 0], [3, 0], [0, 1], [1, 1], [2, 1], [3, 1]], dtype=np.float64
    )
    return Mesh2D(verts, [(0, 1, 5, 4), (1, 2, 5), (2, 6, 5), (2, 3, 7, 6)])


# name -> (mesh, FunctionSpace keywords)
SPACES = {
    "straight": (lambda: rectangle_quads(3, 2, 0.0, 1.0, 0.5, 2.0), {}),
    "curved-wall": (lambda: bluff_body_mesh(m=2, nr=1, curved=True), {}),
    "curved-annulus": (lambda: annulus_mesh(6, 1), {}),
    "periodic": (
        lambda: rectangle_quads(3, 2),
        {"periodic": [("left", "right"), ("bottom", "top")]},
    ),
    "mixed-sumfact": (interleaved_mesh, {"sumfact": True}),
    # The tabulated branch shares the whole-array reads and the assembly.
    "mixed-dense": (interleaved_mesh, {}),
    "tri-dense": (lambda: rectangle_tris(2, 2), {}),
    "quad-dense": (lambda: rectangle_quads(2, 2), {"sumfact": False}),
}
ORDERS = [2, 3, 4, 5, 6]
LEADS = [(), (2,), (2, 3)]


def make_space(name, order):
    mesh, kwargs = SPACES[name]
    return FunctionSpace(mesh(), order, **kwargs)


def inputs(space, lead, rng):
    """Coefficients and quadrature fields, contiguous and not: the
    real part of a complex array is a stride-2 view (NekTar-F hands the
    transforms ``hat[i].real``)."""
    for strided in (False, True):

        def draw(shape):
            if strided:
                return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).real
            return rng.standard_normal(shape)

        u = draw(lead + (space.ndof,))
        f, g = (draw(lead + (space.nelem, space.nq)) for _ in range(2))
        assert u.flags.c_contiguous != strided
        yield strided, u, f, g


def cases(name, order):
    space = make_space(name, order)
    rng = np.random.default_rng(1000 * order + len(name))
    for lead in LEADS:
        for strided, u, f, g in inputs(space, lead, rng):
            calls = {
                "backward": (u,),
                "gradient": (u,),
                "load_vector": (f,),
                "grad_load_vector": (f, g),
            }
            for method, args in calls.items():
                got = observed(lambda: getattr(space, method)(*args))
                want = observed(lambda: getattr(oracle, method)(space, *args))
                yield (method, lead, strided), got, want


def as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", SPACES)
def test_transforms_match_frozen_kernels(name, order):
    for key, (got, got_seq, got_snap), (want, want_seq, want_snap) in cases(name, order):
        for g, w in zip(as_tuple(got), as_tuple(want), strict=True):
            assert g.shape == w.shape and g.dtype == w.dtype, key
            assert g.flags.c_contiguous and g.flags.writeable, key
            scale = float(np.max(np.abs(w))) or 1.0
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-13 * scale, err_msg=str(key))
        assert got_seq == want_seq, key
        assert got_snap == want_snap, key  # totals, per label, and calls


@pytest.mark.same_bits
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", SPACES)
def test_transforms_same_bits_as_frozen_kernels(name, order):
    for key, (got, _, _), (want, _, _) in cases(name, order):
        for g, w in zip(as_tuple(got), as_tuple(want), strict=True):
            assert g.tobytes() == w.tobytes(), key


def test_results_are_the_callers_own():
    # A one-batch space hands back whole stacks, not copies scattered
    # into a fresh array: they must still not alias the input, each
    # other, or anything kept on the space.
    space = make_space("straight", 3)
    f = np.ones((space.nelem, space.nq))
    u = np.ones(space.ndof)
    first = [space.backward(u), *space.gradient(u), space.load_vector(f)]
    kept = [a.copy() for a in first]
    for a in first:
        a[...] = np.nan
    again = [space.backward(u), *space.gradient(u), space.load_vector(f)]
    for a, b in zip(again, kept):
        np.testing.assert_array_equal(a, b)
    assert not np.isnan(f).any() and not np.isnan(u).any()


KIND_LAM = [("mass", 0.0), ("laplacian", 0.0), ("helmholtz", 0.0), ("helmholtz", 3000.0)]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", ["straight", "curved-wall", "periodic"])
def test_operator_diagonal_matches_frozen_kernels(name, order):
    space = make_space(name, order)
    for kind, lam in KIND_LAM:
        got, got_seq, got_snap = observed(lambda: space.operator_diagonal(kind, lam))
        want, want_seq, want_snap = observed(lambda: oracle.operator_diagonal(space, kind, lam))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
        assert got_seq == want_seq, (kind, lam)
        assert got_snap == want_snap, (kind, lam)


@pytest.mark.same_bits
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", ["straight", "curved-wall", "periodic"])
def test_operator_diagonal_same_bits_as_frozen_kernels(name, order):
    space = make_space(name, order)
    for kind, lam in KIND_LAM:
        got = space.operator_diagonal(kind, lam)
        assert got.tobytes() == oracle.operator_diagonal(space, kind, lam).tobytes(), (kind, lam)


def test_concurrent_transforms_on_one_space_get_the_single_thread_bits():
    mesh = rectangle_quads(4, 3)
    used = FunctionSpace(mesh, 4)
    rng = np.random.default_rng(8)
    coeffs = rng.standard_normal((4, 2, used.ndof))
    fields = rng.standard_normal((4, 2, used.nelem, used.nq))

    def transform(space, i):
        gx, gy = space.gradient(coeffs[i])
        return b"".join(
            a.tobytes()
            for a in (
                space.backward(coeffs[i]),
                gx,
                gy,
                space.load_vector(fields[i]),
                space.grad_load_vector(fields[i], gx),
            )
        )

    alone = [transform(used, i) for i in range(4)]
    space = FunctionSpace(mesh, 4)  # its hoisted operands are built in the race
    start = threading.Barrier(4)
    seen: list[set] = [set() for _ in range(4)]

    def work(i):
        start.wait(timeout=30)
        for _ in range(50):
            seen[i].add(transform(space, i))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert seen == [{bits} for bits in alone]


# -- the assembly ----------------------------------------------------------------


def assembling_stub(dofs_per_batch, signs_per_batch, ndof):
    """A ``FunctionSpace`` that is nothing but its dof tables — all
    ``_assemble`` reads."""
    space = object.__new__(FunctionSpace)
    space._batches = [
        SimpleNamespace(dofs=d, signs=s) for d, s in zip(dofs_per_batch, signs_per_batch)
    ]
    space._flat_dofs = None
    space.dofmap = SimpleNamespace(ndof=ndof)
    return space


@st.composite
def assemblies(draw):
    ndof = draw(st.integers(3, 12))
    lead = draw(st.sampled_from([(), (1,), (2,), (2, 2)]))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1e-300, 1.0, -1.0, 1e16, -1e16, 1 / 3]),
        st.floats(-1e3, 1e3, allow_nan=False, width=64),
    )
    dofs, signs, parts = [], [], []
    for _ in range(draw(st.integers(1, 3))):
        ng, nm = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        # Dof ndof - 1 is never touched; dof 0 is hit at least three
        # times by the first batch alone.
        d = np.array(
            draw(st.lists(st.integers(0, ndof - 2), min_size=ng * nm, max_size=ng * nm)),
            dtype=np.int64,
        ).reshape(ng, nm)
        dofs.append(d)
        signs.append(
            np.array(
                draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=ng * nm, max_size=ng * nm))
            ).reshape(ng, nm)
        )
        size = int(np.prod(lead, dtype=int)) * ng * nm
        parts.append(
            np.array(draw(st.lists(value, min_size=size, max_size=size))).reshape(lead + (ng, nm))
        )
    return ndof, lead, dofs, signs, parts


@given(assemblies())
@settings(max_examples=200, deadline=None)
def test_bincount_assembly_is_the_add_at_sweep_byte_for_byte(case):
    ndof, lead, dofs, signs, parts = case
    # Plant the named cases: a dof hit by three entries of one batch
    # (and by whatever else drew it), one of them a -0.0 contribution.
    if dofs[0].size >= 3:
        dofs[0].flat[:3] = 0
        parts[0][..., 0, 0] = -0.0
    space = assembling_stub(dofs, signs, ndof)
    want = np.zeros(lead + (ndof,))
    for b, local in zip(space.batches(), parts):
        oracle.scatter_add(b, local, want)
    got = space._assemble(parts)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got[..., ndof - 1].any() and not np.signbit(got[..., ndof - 1]).any()


# -- the entry points' argument checks -------------------------------------------


@pytest.mark.parametrize("sumfact", [True, False])
@pytest.mark.parametrize("method", ["backward", "gradient", "load_vector", "grad_load_vector"])
def test_transforms_reject_complex_input(method, sumfact):
    # np.asarray(z, dtype=float64) used to keep the real part and drop
    # the rest: the transform of some other field, a ComplexWarning the
    # only trace.
    space = FunctionSpace(rectangle_quads(2, 2), 3, sumfact=sumfact)
    shape = (space.ndof,) if method in ("backward", "gradient") else (space.nelem, space.nq)
    z = np.ones(shape) + 2j
    args = (z, z.real) if method == "grad_load_vector" else (z,)
    with pytest.raises(ValueError, match=f"^{method}: .* is complex.*real.*imag"):
        getattr(space, method)(*args)
    if method == "grad_load_vector":
        with pytest.raises(ValueError, match="^grad_load_vector: fy is complex"):
            space.grad_load_vector(z.real, z)
    # The documented way through: two real fields.
    out = getattr(space, method)(*(np.stack([a.real, a.imag]) for a in args))
    assert all(a.shape[0] == 2 and a.dtype == np.float64 for a in as_tuple(out))


@pytest.mark.parametrize("method", ["load_vector", "grad_load_vector"])
def test_weak_forms_check_the_shape_before_they_allocate(method, monkeypatch):
    space = FunctionSpace(rectangle_quads(2, 2), 3)
    space.batches()
    bad = np.ones((space.nelem, space.nq + 1))
    args = (bad, bad) if method == "grad_load_vector" else (bad,)

    def no_allocation(*a, **k):
        raise AssertionError("allocated before the shape check")

    for name in ("zeros", "empty"):
        monkeypatch.setattr(np, name, no_allocation)
    with pytest.raises(ValueError, match=f"^{method}: .*quadrature points.*got"):
        getattr(space, method)(*args)
    monkeypatch.undo()
    if method == "grad_load_vector":
        ok = np.ones((space.nelem, space.nq))
        with pytest.raises(ValueError, match="one shape"):
            space.grad_load_vector(np.ones((2, space.nelem, space.nq)), ok)
