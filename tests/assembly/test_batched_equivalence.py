"""Stacked execution == one element at a time, values and charges.

``FunctionSpace`` runs every operation over whole element batches.  On
randomised mixed tri/quad meshes across orders 2..8 the results must
match an element-by-element evaluation from the tabulated bases and
the five-line ``operators.elemental_*`` definitions to 1e-12, and the
condensed solves the fully assembled banded solve.  The OpCounter
charges of every method are pinned against goldens recorded from the
deleted per-element execution path (``batched=False``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assembly.condensation import CondensedOperator
from repro.assembly.global_system import AssembledOperator
from repro.assembly.operators import elemental_helmholtz, elemental_load, elemental_mass
from repro.assembly.space import FunctionSpace
from repro.linalg.counters import OpCounter
from repro.mesh.generators import bluff_body_mesh, rectangle_quads, rectangle_tris
from repro.mesh.mesh2d import Mesh2D

from ..golden import check


def mixed_mesh() -> Mesh2D:
    """One quad + two tris sharing edges (and so edge-sign flips)."""
    verts = np.array(
        [[0, 0], [1, 0], [1, 1], [0, 1], [2, 0], [2, 1]], dtype=np.float64
    )
    return Mesh2D(verts, [(0, 1, 2, 3), (1, 4, 2), (4, 5, 2)])


def make_mesh(kind: int, nx: int, ny: int) -> Mesh2D:
    if kind == 0:
        return rectangle_quads(nx, ny)
    if kind == 1:
        return rectangle_tris(nx, ny)
    return mixed_mesh()


def per_element_transforms(space, u):
    """backward, gradient, load / grad-load vectors and the integral,
    one element at a time from the tabulated (dense) bases."""
    dm = space.dofmap
    vals = np.empty((space.nelem, space.nq))
    gx, gy = np.empty_like(vals), np.empty_like(vals)
    load, gload, integral = np.zeros(space.ndof), np.zeros(space.ndof), 0.0
    for ei in range(space.nelem):
        exp, gf = dm.expansion(ei), space.geom[ei]
        local = dm.gather(ei, u)
        dx, dy = gf.physical_gradients(exp.dphi1, exp.dphi2)
        vals[ei], gx[ei], gy[ei] = exp.phi.T @ local, dx.T @ local, dy.T @ local
        dm.scatter_add(ei, elemental_load(exp, gf, vals[ei]), load)
        dm.scatter_add(ei, dx @ (gf.jw * gx[ei]) + dy @ (gf.jw * gy[ei]), gload)
        integral += float(gf.jw @ vals[ei])
    return vals, gx, gy, load, gload, integral


def per_element_matrices(space, fn, *args):
    return [
        fn(space.dofmap.expansion(e), space.geom[e], *args)
        for e in range(space.nelem)
    ]


def assert_same_charges(ca: OpCounter, cb: OpCounter) -> None:
    assert ca.snapshot().totals() == cb.snapshot().totals()
    assert ca.snapshot().label_charges() == cb.snapshot().label_charges()


@given(
    st.integers(0, 2),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(2, 8),
    st.booleans(),
    st.integers(0, 10_000),
)
@settings(max_examples=20, deadline=None)
def test_transforms_match_per_element(kind, nx, ny, order, sumfact, seed):
    space = FunctionSpace(make_mesh(kind, nx, ny), order, sumfact=sumfact)
    u = np.random.default_rng(seed).standard_normal(space.ndof)
    vals = space.backward(u)
    gx, gy = space.gradient(u)
    got = (
        vals,
        gx,
        gy,
        space.load_vector(vals),
        space.grad_load_vector(gx, gy),
        space.integrate(vals),
    )
    for g, want in zip(got, per_element_transforms(space, u)):
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(g, want, rtol=0.0, atol=1e-12 * scale)


@given(st.integers(0, 2), st.integers(2, 8), st.floats(0.0, 10.0))
@settings(max_examples=20, deadline=None)
def test_operator_setup_matches_per_element(kind, order, lam):
    space = FunctionSpace(make_mesh(kind, 2, 2), order)
    with OpCounter() as cb:
        mats = space.elemental_matrices("helmholtz", lam)
    with OpCounter() as cp:
        ref = per_element_matrices(space, elemental_helmholtz, lam)
    for m, r in zip(mats, ref):
        np.testing.assert_allclose(m, r, rtol=0.0, atol=1e-12)
    assert_same_charges(cb, cp)


@given(
    st.integers(0, 2),
    st.integers(2, 8),
    st.floats(0.0, 5.0),
    st.integers(0, 10_000),
)
@settings(max_examples=15, deadline=None)
def test_condensation_matches_per_element(kind, order, lam, seed):
    space = FunctionSpace(make_mesh(kind, 2, 2), order)
    mats = per_element_matrices(space, elemental_helmholtz, lam)
    rng = np.random.default_rng(seed)
    bnd = space.dofmap.boundary_dofs()
    dofs = bnd[: max(1, bnd.size // 3)]
    g = rng.standard_normal(dofs.size)
    rhs = rng.standard_normal(space.ndof)
    u = CondensedOperator(space, mats, dofs).solve(rhs, g)
    full = AssembledOperator(space, mats, dofs).solve(rhs, g)
    scale = max(1.0, float(np.max(np.abs(full))))
    np.testing.assert_allclose(u, full, rtol=0.0, atol=1e-8 * scale)


@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_multi_field_matches_single_field(order, nfields, seed):
    """Leading batch axes give exactly the stacked single-field results
    and charge exactly ``nfields`` single-field sweeps."""
    space = FunctionSpace(mixed_mesh(), order)
    u = np.random.default_rng(seed).standard_normal((nfields, space.ndof))

    def sweep(x):
        vals = space.backward(x)
        gx, gy = space.gradient(x)
        return (
            vals,
            gx,
            gy,
            space.load_vector(vals),
            space.grad_load_vector(gx, gy),
            space.forward(vals),
        )

    space.forward(space.backward(u[0]))  # build the mass solver up front
    with OpCounter() as cm:
        multi = sweep(u)
    assert multi[0].shape == (nfields, space.nelem, space.nq)
    with OpCounter() as cs:
        singles = [sweep(u[i]) for i in range(nfields)]
    for i, single in enumerate(singles):
        for m, s in zip(multi, single):
            np.testing.assert_allclose(m[i], s, rtol=0.0, atol=1e-12)
    assert_same_charges(cm, cs)


def test_forward_projection_matches_per_element():
    space = FunctionSpace(mixed_mesh(), 5)
    vals = np.random.default_rng(3).standard_normal((space.nelem, space.nq))
    load = np.zeros(space.ndof)
    for ei in range(space.nelem):
        exp, gf = space.dofmap.expansion(ei), space.geom[ei]
        space.dofmap.scatter_add(ei, elemental_load(exp, gf, vals[ei]), load)
    mass = AssembledOperator(space, per_element_matrices(space, elemental_mass))
    np.testing.assert_allclose(
        space.forward(vals), mass.solve(load), rtol=0.0, atol=1e-10
    )


# -- per-method charge goldens -------------------------------------------------------


def method_charges(mesh, order, sumfact=None):
    """[flops, bytes, per-label charges] of each FunctionSpace and
    CondensedOperator entry point on a fresh space."""
    space = FunctionSpace(mesh, order, sumfact=sumfact)
    rng = np.random.default_rng(2026)
    u = rng.standard_normal(space.ndof)
    values = space.backward(u)
    rhs = rng.standard_normal(space.ndof)
    op = CondensedOperator(space, space.elemental_matrices("helmholtz", 1.0))
    ops = {
        "backward": lambda: space.backward(u),
        "gradient": lambda: space.gradient(u),
        "load_vector": lambda: space.load_vector(values),
        "grad_load_vector": lambda: space.grad_load_vector(values, values),
        "integrate": lambda: space.integrate(values),
        "forward": lambda: space.forward(values),
        "helmholtz_setup": lambda: space.elemental_matrices("helmholtz", 1.0),
        "condensation_setup": lambda: CondensedOperator(
            space, space.elemental_matrices("helmholtz", 1.0)
        ),
        "condensed_solve": lambda: op.solve(rhs),
        "condensed_solve_rhs3": lambda: op.solve(np.stack([rhs, u, rhs])),
    }
    out = {}
    for name, fn in ops.items():
        with OpCounter() as c:
            fn()
        snap = c.snapshot()
        out[name] = [snap.flops, snap.bytes, snap.label_charges()]
    return {"elements": mesh.nelements, "ndof": space.ndof, "ops": out}


CHARGE_MESHES = {
    "quad": lambda: rectangle_quads(2, 2),
    "tri": lambda: rectangle_tris(2, 2),
    "mixed": mixed_mesh,
}


def small_mesh_charges(name):
    mesh = CHARGE_MESHES[name]()
    return {
        "dense": method_charges(mesh, 4, sumfact=False),
        "sumfact": method_charges(mesh, 4, sumfact=True),
    }


def bluff_charges():
    return method_charges(bluff_body_mesh(m=3, nr=1), 5)


GOLDEN_SECTIONS = {
    **{
        f"space.charges.{name}": (lambda name=name: small_mesh_charges(name))
        for name in CHARGE_MESHES
    },
    "space.charges.bluff": bluff_charges,
}


@pytest.mark.parametrize("name", CHARGE_MESHES)
def test_method_charges_golden(name):
    check(f"space.charges.{name}", small_mesh_charges(name))


def test_bluff_method_charges_golden():
    fp = bluff_charges()
    check("space.charges.bluff", fp)
    # Problem shape and per-method (flops, bytes), exact.
    assert (fp["elements"], fp["ndof"]) == (108, 2840)
    baseline = {
        "backward": [117936.0, 297216.0],
        "gradient": [235872.0, 594432.0],
        "load_vector": [117936.0, 285984.0],
        "grad_load_vector": [235872.0, 571968.0],
        "helmholtz_setup": [41150592.0, 15863040.0],
        "condensation_setup": [63275096.00000027, 18210432.0],
    }
    assert {k: fp["ops"][k][:2] for k in baseline} == baseline
