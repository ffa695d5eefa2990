"""The one-pass matrix-free apply == the composition it replaced.

``oracle_apply`` is ``assembly/matrix_free.py``'s ``_apply_mass`` /
``_apply_laplacian`` / ``apply_operator_batched`` as they stood before
the hoisting of DESIGN.md section 15.3: per call, a signed gather, the
expansion's sum-factorised kernels (``backward`` / ``gradient`` /
``iproduct_sumfact_batched``, one counted ``dgemm_batched`` per
contraction leg — since deleted from ``src/`` and kept, frozen, in
``_sumfact_oracle.py``), strided metric views, ``scale * jw`` and an
``np.add.at`` scatter.  The apply in
``src/`` hands the same operands to the same ``matmul`` calls in the same
order, so

* every charge — the ``(flops, bytes, label)`` sequence a kernel sampler
  sees and the ``OpCounter`` snapshot with its call counts — is equal,
  exactly, on any numpy (tier-1);
* values agree to 1e-13 in tier-1 and bit for bit on the goldens' numpy
  build (``same_bits``; the ALE solver's pinned PCG counts do not
  survive a last-bit change of a matvec).
"""

import re
import sys
import threading

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.linalg.counters import OpCounter, set_kernel_sampler
from repro.mesh.generators import annulus_mesh, bluff_body_mesh, rectangle_quads

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
    """``FunctionSpace.operator_apply`` over the quad batches, old body."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros(u.shape[:-1] + (space.ndof,))
    for b in space.batches():
        assert b.kind == "quad"
        local = b.gather(u)
        if kind == "mass":
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
}
# Order 1 is below what the expansions accept (no edge or interior modes).
ORDERS = [2, 3, 4, 5, 6]
KIND_LAM = [
    (kind, lam)
    for kind in ("mass", "laplacian", "helmholtz")
    for lam in (0.0, 1.0, 3000.0)
]
LEADS = [(), (2,), (2, 3)]


def observed(fn):
    """(result, sampler sequence, counter snapshot) of one call."""
    seq = []
    set_kernel_sampler(lambda flops, nbytes, label: seq.append((flops, nbytes, label)))
    try:
        with OpCounter() as counter:
            result = fn()
    finally:
        set_kernel_sampler(None)
    return result, seq, counter.snapshot()


def cases(mesh_name, order):
    space = FunctionSpace(MESHES[mesh_name](), order)
    assert space.sumfact
    rng = np.random.default_rng(100 * order + len(mesh_name))
    for lead in LEADS:
        u = rng.standard_normal(lead + (space.ndof,))
        for kind, lam in KIND_LAM:
            got = observed(lambda: space.operator_apply(kind, u, lam))
            want = observed(lambda: oracle_apply(space, kind, u, lam))
            yield (lead, kind, lam), got, want


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("mesh_name", MESHES)
def test_apply_matches_frozen_composition(mesh_name, order):
    for key, (got, got_seq, got_snap), (want, want_seq, want_snap) in cases(
        mesh_name, order
    ):
        scale = float(np.max(np.abs(want))) or 1.0
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * scale, err_msg=str(key))
        assert got_seq == want_seq, key
        assert got_snap == want_snap, key  # totals, per label, and calls


@pytest.mark.same_bits
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("mesh_name", MESHES)
def test_apply_same_bits_as_frozen_composition(mesh_name, order):
    for key, (got, _, _), (want, _, _) in cases(mesh_name, order):
        assert got.tobytes() == want.tobytes(), key


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
    a = space.assemble(space.elemental_matrices("helmholtz", 2.0))
    np.testing.assert_allclose(space.operator_apply("helmholtz", u, 2.0), a @ u, atol=1e-10)


def test_concurrent_applies_on_one_space_get_the_single_thread_bits():
    mesh = rectangle_quads(4, 3)
    used = FunctionSpace(mesh, 4)
    vectors = np.random.default_rng(8).standard_normal((4, used.ndof))
    lams = (3000.0, 7.0, 3000.0, 0.0)  # several solvers' constants on the one space
    alone = [
        used.operator_apply("helmholtz", v, lam).tobytes() for v, lam in zip(vectors, lams)
    ]
    space = FunctionSpace(mesh, 4)  # its hoisted operands are built in the race
    start = threading.Barrier(len(lams))
    seen: list[set] = [set() for _ in lams]

    def work(i):
        start.wait(timeout=30)
        for _ in range(100):
            seen[i].add(space.operator_apply("helmholtz", vectors[i], lams[i]).tobytes())

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
