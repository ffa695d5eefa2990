"""The one-pass matrix-free apply == the composition it replaced.

``oracle_apply`` is ``assembly/matrix_free.py``'s ``_apply_mass`` /
``_apply_laplacian`` / ``apply_operator_batched`` as they stood before
the hoisting of DESIGN.md section 15.3: per call, a signed gather, the
expansion's sum-factorised kernels (``backward`` / ``gradient`` /
``iproduct_sumfact_batched``, one counted ``dgemm_batched`` per
contraction leg — since deleted from ``src/`` and kept, frozen, in
``_sumfact_oracle.py``), strided metric views, ``scale * jw`` and an
``np.add.at`` scatter.  The apply in
``src/`` forms the same products and sums them in the same order (one
GEMM per contraction leg over an element-middle block where the oracle
makes one small product per element), so

* every charge — the ``(flops, bytes, label)`` sequence a kernel sampler
  sees and the ``OpCounter`` snapshot with its call counts — is equal,
  exactly, on any numpy (tier-1);
* values agree to 1e-13 in tier-1 and bit for bit on the goldens' numpy
  build (``same_bits``; the ALE solver's pinned PCG counts do not
  survive a last-bit change of a matvec).
"""

import math
import re
import sys
import threading

import numpy as np
import pytest

from repro.assembly import matrix_free
from repro.assembly.space import FunctionSpace
from repro.linalg import blas
from repro.linalg.counters import OpCounter, set_kernel_sampler
from repro.mesh.generators import bluff_body_mesh, rectangle_quads

from .._meshes import annulus_mesh
from ..linalg._snapshot import snapshot
from ._assembled_oracle import assemble
from ._sumfact_oracle import (
    _charge_metric,
    backward_sumfact_batched,
    gradient_sumfact_batched,
    iproduct_sumfact_batched,
    scatter_add,
)
from .test_space import mixed_mesh

# -- the frozen per-call bodies ------------------------------------------------


def _apply_mass(b, local, scale=1.0):
    vals = backward_sumfact_batched(b.exp, local)
    nppf = 1.0 if scale == 1.0 else 2.0
    _charge_metric(float(vals.size), nppf)
    w = b.jw if scale == 1.0 else scale * b.jw
    return iproduct_sumfact_batched(b.exp, w * vals)


def _apply_laplacian(b, local):
    exp = b.exp
    d1, d2 = gradient_sumfact_batched(exp, local)
    g = b.dxi
    dx = d1 * g[:, 0, 0] + d2 * g[:, 1, 0]
    dy = d1 * g[:, 0, 1] + d2 * g[:, 1, 1]
    t1 = b.jw * (g[:, 0, 0] * dx + g[:, 0, 1] * dy)
    t2 = b.jw * (g[:, 1, 0] * dx + g[:, 1, 1] * dy)
    _charge_metric(float(d1.size), 14.0)
    out = iproduct_sumfact_batched(exp, t1, deriv=1)
    out += iproduct_sumfact_batched(exp, t2, deriv=2)
    return out


def oracle_apply(space, kind, u, lam=0.0):
    """``FunctionSpace.operator_apply``, old body.  A triangle batch
    applies the live tabulated stack: that branch is not under test."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros(u.shape[:-1] + (space.ndof,))
    for bi, b in enumerate(space.batches()):
        local = b.gather(u)
        if b.kind != "quad":
            res = np.zeros(local.shape)
            blas.dgemv_batched(1.0, space._dense_batch_mats(bi, kind, lam), local, 0.0, res)
        elif kind == "mass":
            res = _apply_mass(b, local)
        else:
            res = _apply_laplacian(b, local)
            if kind == "helmholtz" and lam != 0.0:
                res += _apply_mass(b, local, scale=lam)
        scatter_add(b, res, out)
    return out


# -- the comparison ------------------------------------------------------------

MESHES = {
    "straight": lambda: rectangle_quads(3, 2, 0.0, 1.0, 0.5, 2.0),
    "curved-wall": lambda: bluff_body_mesh(m=2, nr=1, curved=True),
    "curved-annulus": lambda: annulus_mesh(6, 1),
    # A one-element quad batch (ng = 1) beside two triangles.
    "one-quad": mixed_mesh,
}
# Order 1 is below what the expansions accept (no edge or interior modes).
ORDERS = [2, 3, 4, 5, 6]
KIND_LAM = [
    (kind, lam)
    for kind in ("mass", "laplacian", "helmholtz")
    for lam in (0.0, 1.0, 3000.0)
]
# A NekTar-F rank that holds no Fourier mode applies on a size-0 axis.
LEADS = [(), (2,), (2, 3), (0,), (2, 0)]


def observed(fn):
    """(result, sampler sequence, counter snapshot) of one call, made
    under two nested counters — a ``StageScope``'s shape — that must
    agree."""
    seq = []
    set_kernel_sampler(lambda flops, nbytes, label: seq.append((flops, nbytes, label)))
    try:
        with OpCounter() as outer, OpCounter() as counter:
            result = fn()
    finally:
        set_kernel_sampler(None)
    assert snapshot(outer) == snapshot(counter)
    return result, seq, snapshot(counter)


def cases(mesh_name, order):
    space = FunctionSpace(MESHES[mesh_name](), order, sumfact=True)
    rng = np.random.default_rng(100 * order + len(mesh_name))
    for lead in LEADS:
        u = rng.standard_normal(lead + (space.ndof,))
        for kind, lam in KIND_LAM:
            space.operator_apply(kind, u, lam)  # builds a triangle batch's cached stack
            got = observed(lambda: space.operator_apply(kind, u, lam))
            want = observed(lambda: oracle_apply(space, kind, u, lam))
            yield (lead, kind, lam), got, want


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("mesh_name", MESHES)
def test_apply_matches_frozen_composition(mesh_name, order):
    for key, (got, got_seq, got_snap), (want, want_seq, want_snap) in cases(
        mesh_name, order
    ):
        scale = float(np.max(np.abs(want), initial=0.0)) or 1.0
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * scale, err_msg=str(key))
        assert got_seq == want_seq, key
        assert got_snap == want_snap, key  # totals, per label, and calls


@pytest.mark.same_bits
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("mesh_name", MESHES)
def test_apply_same_bits_as_frozen_composition(mesh_name, order):
    for key, (got, _, _), (want, _, _) in cases(mesh_name, order):
        assert got.tobytes() == want.tobytes(), key


# -- the stacked contractions --------------------------------------------------


def same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.same_bits
@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8])
def test_stacked_matmul_is_the_per_table_products_bit_for_bit(order):
    """Each contraction stage of the apply is one stacked ``np.matmul``
    over the layout's ``bdb`` / ``dbb_t`` tables.  Its bits rest on
    numpy making one dgemm per stacked matrix, of the (m, n, k) a lone
    table's 2-D product has, and on a contiguous transposed table
    giving what a transposed view (BLAS's transpose flag) gives.  A
    numpy or BLAS build that breaks either fails here, by name, rather
    than as drift of the ALE solver's PCG counts."""
    space = FunctionSpace(rectangle_quads(3, 3), order)
    (b,) = space.batches()
    tl = b.exp.tensor_layout()
    a, k, ng = tl.np1, tl.n1, b.ng
    legs = (tl.b1, tl.d1, tl.b1)  # bdb entry by entry; dbb_t is (d1, b1, b1) transposed
    views = (tl.d1.T, tl.b1.T, tl.b1.T)
    rng = np.random.default_rng(order)
    for lead in ((), (2,), (2, 3)):
        L = math.prod(lead)
        ct = rng.standard_normal((L, a, ng, a))
        got = matrix_free._fast(ct, tl.bdb)  # forward, fast axis
        for s, table in enumerate(legs):
            assert same_bits(got[s], (ct.reshape(L * a * ng, a) @ table).reshape(L, a, ng, k))
        x = rng.standard_normal((3, L, a, ng, k))
        got = matrix_free._slow(tl.dbb_t, x)  # forward, slow axis
        for s, row in np.ndindex(3, L):
            want = views[s] @ x[s, row].reshape(a, ng * k)
            assert same_bits(got[s, row], want.reshape(k, ng, k)), (lead, s, row)
        y = rng.standard_normal((3, L, k, ng, k))
        got = matrix_free._slow(tl.bdb, y)  # adjoint, slow axis
        for s, row in np.ndindex(3, L):
            want = legs[s] @ y[s, row].reshape(k, ng * k)
            assert same_bits(got[s, row], want.reshape(a, ng, k)), (lead, s, row)
        z = rng.standard_normal((3, L, a, ng, k))
        got = matrix_free._fast(z, tl.dbb_t)  # adjoint, fast axis
        for s, view in enumerate(views):
            want = z[s].reshape(L * a * ng, k) @ view
            assert same_bits(got[s], want.reshape(L, a, ng, a)), (lead, s)


def test_metric_factors_are_one_block_the_metric_stage_views():
    space = FunctionSpace(annulus_mesh(6, 1), 4)
    (b,) = space.batches()
    tl = b.exp.tensor_layout()
    g = b.dxi_em
    assert g.shape == (2, 2, 1, tl.n1, b.ng, tl.n1) and g.flags.c_contiguous
    for i, j in np.ndindex(2, 2):
        want = matrix_free._element_middle(tl, b.dxi[:, i, j])
        assert same_bits(g[i, j], want)
    for stack in (g[0], g[1], g[:, 0], g[:, 1]):  # what the apply's metric stage reads
        assert np.shares_memory(stack, g)


def test_mixed_mesh_triangles_still_use_the_tabulated_stacks():
    space = FunctionSpace(mixed_mesh(), 4, sumfact=True)
    u = np.random.default_rng(5).standard_normal(space.ndof)
    _, seq, snap = observed(lambda: space.operator_apply("helmholtz", u, 2.0))
    tri = next(b for b in space.batches() if b.kind == "tri")
    nm = tri.exp.nmodes
    # One dgemv charge, for the triangle batch's cached (ng, nm, nm) stack.
    assert [c for c in seq if c[2] == "dgemv"] == [
        (tri.ng * 2.0 * nm * nm, tri.ng * 8.0 * (nm * nm + 3 * nm), "dgemv")
    ]
    assert set(snap.by_label) == {"dgemm", "mfree-metric", "dgemv"}
    assert [key[1:] for key in space._op_mats] == [("helmholtz", 2.0)]
    a = assemble(space, space.elemental_matrices("helmholtz", 2.0))
    np.testing.assert_allclose(space.operator_apply("helmholtz", u, 2.0), a @ u, atol=1e-10)


def symbolic(space, seq):
    """A charge sequence in DESIGN.md section 15.3's notation: A B / C D
    the two dgemms of a forward / adjoint contraction of a quad batch,
    m<flops per point> a metric stage, dgemv a tabulated batch."""
    names = {}
    for b in space.batches():
        if b.kind == "quad":
            tl = b.exp.tensor_layout()
            for pairs, legs in ((tl.forward_charges, "AB"), (tl.adjoint_charges, "CD")):
                for (flops, nbytes), leg in zip(pairs, legs):
                    names[(b.ng * flops, b.ng * nbytes, "dgemm")] = leg
            nq = b.ng * tl.n1 * tl.n1
    out = []
    for flops, nbytes, label in seq:
        if label == "mfree-metric":
            out.append(f"m{flops / nq:g}")
        else:
            out.append(names.get((flops, nbytes, label), label))
    return " ".join(out)


def test_mixed_mesh_charges_the_documented_sequence_in_batch_order():
    space = FunctionSpace(mixed_mesh(), 3, sumfact=True)
    assert [b.kind for b in space.batches()] == ["quad", "tri"]
    u = np.random.default_rng(6).standard_normal(space.ndof)
    for (kind, lam), want in {
        ("helmholtz", 3000.0): "A B A B m14 C D C D A B m2 C D dgemv",
        ("helmholtz", 1.0): "A B A B m14 C D C D A B m1 C D dgemv",
        ("helmholtz", 0.0): "A B A B m14 C D C D dgemv",
        ("laplacian", 5.0): "A B A B m14 C D C D dgemv",
        ("mass", 5.0): "A B m1 C D dgemv",
    }.items():
        space.operator_apply(kind, u, lam)  # builds the triangles' cached stack
        _, seq, _ = observed(lambda: space.operator_apply(kind, u, lam))
        assert symbolic(space, seq) == want, (kind, lam)
    f = np.random.default_rng(7).standard_normal((space.nelem, space.nq))
    for method, args, want in [
        ("backward", (u,), "A B dgemv"),
        ("gradient", (u,), "A B A B dgemv dgemv"),
        ("load_vector", (f,), "C D dgemv"),
        ("grad_load_vector", (f, f), "C D C D dgemv dgemv"),
    ]:
        _, seq, _ = observed(lambda: getattr(space, method)(*args))
        assert symbolic(space, seq) == want, method
    quad = space.batches()[0]
    assert set(quad.tapes) == {
        (1, "helmholtz", 2.0),
        (1, "helmholtz", 1.0),
        (1, "helmholtz", 0.0),
        (1, "laplacian", 0.0),
        (1, "mass", 1.0),
        (1, "backward", 0.0),
        (1, "gradient", 0.0),
        (1, "load_vector", 0.0),
        (1, "grad_load_vector", 0.0),
    }


def test_operator_diagonal_charges_the_documented_sequence():
    space = FunctionSpace(rectangle_quads(3, 2), 4)
    for (kind, lam), want in {
        ("helmholtz", 3000.0): "m12 C D C D C D C D",
        ("helmholtz", 0.0): "m12 C D C D C D",
        ("laplacian", 5.0): "m12 C D C D C D",
        ("mass", 5.0): "C D",
    }.items():
        _, seq, _ = observed(lambda: space.operator_diagonal(kind, lam))
        assert symbolic(space, seq) == want, (kind, lam)


def test_concurrent_applies_on_one_space_get_the_single_thread_bits():
    mesh = rectangle_quads(4, 3)
    used = FunctionSpace(mesh, 4)
    vectors = np.random.default_rng(8).standard_normal((4, used.ndof))
    lams = (3000.0, 7.0, 3000.0, 0.0)  # several solvers' constants on the one space
    alone = [
        used.operator_apply("helmholtz", v, lam).tobytes() for v, lam in zip(vectors, lams)
    ]
    charges = [
        list(observed(lambda: used.operator_apply("helmholtz", v, lam))[1:])
        for v, lam in zip(vectors, lams)
    ]
    space = FunctionSpace(mesh, 4)  # its hoisted operands and tapes are built in the race
    start = threading.Barrier(len(lams))
    seen: list[set] = [set() for _ in lams]
    charged: list[list] = [[] for _ in lams]

    def work(i):
        start.wait(timeout=30)
        for _ in range(100):
            out, *charges_i = observed(
                lambda: space.operator_apply("helmholtz", vectors[i], lams[i])
            )
            seen[i].add(out.tobytes())
            if charges_i != charges[i]:
                charged[i].append(charges_i)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(lams))]
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
    assert charged == [[] for _ in lams]  # every apply charged as the single-thread one


# -- the entry point's argument check ------------------------------------------


@pytest.mark.parametrize("extra", [1, -1])
@pytest.mark.parametrize("lead", [(), (2,)])
def test_operator_apply_rejects_a_wrong_trailing_size(lead, extra):
    # A longer vector used to be truncated by the gather (a wrong answer,
    # no error); a shorter one died as an IndexError inside a fancy index.
    space = FunctionSpace(rectangle_quads(2, 2), 3)
    u = np.ones(lead + (space.ndof + extra,))
    with pytest.raises(ValueError, match=f"ndof = {space.ndof}"):
        space.operator_apply("helmholtz", u, 1.0)


@pytest.mark.parametrize("sumfact", [True, False])
@pytest.mark.parametrize("extra", [5, -1])
@pytest.mark.parametrize("lead", [(), (2,), (2, 3)])
def test_backward_and_gradient_reject_a_wrong_trailing_size(lead, extra, sumfact):
    # Same check, same message as operator_apply: ``ndof + 5`` used to be
    # accepted and read short — values of some *other* field, no error.
    space = FunctionSpace(rectangle_quads(2, 2), 3, sumfact=sumfact)
    u = np.ones(lead + (space.ndof + extra,))
    shape = re.escape(str(u.shape))
    for name in ("backward", "gradient"):
        with pytest.raises(
            ValueError, match=f"^{name}: u must be .*ndof = {space.ndof}.*got {shape}$"
        ):
            getattr(space, name)(u)
    ok = np.ones(lead + (space.ndof,))
    assert space.backward(ok).shape == lead + (space.nelem, space.nq)
    assert [g.shape for g in space.gradient(ok)] == [lead + (space.nelem, space.nq)] * 2


def test_operator_apply_rejects_a_wrong_trailing_size_on_the_dense_path():
    space = FunctionSpace(rectangle_quads(2, 2), 3, sumfact=False)
    with pytest.raises(ValueError, match="ndof"):
        space.operator_apply("mass", np.ones(space.ndof + 1))
    with pytest.raises(ValueError, match="ndof"):
        space.operator_apply("mass", np.float64(1.0))
