"""Tracing/metrics on vs off must leave OpCounter accounting byte-identical.

The observability layer is a read-only observer of the charge stream:
its sampler hook runs *after* the counter is charged and never calls
:func:`repro.linalg.counters.charge` or a counted kernel itself.  These
property tests run random kernel sequences with the full observability
stack enabled and disabled and require identical totals, per-label
charges, and call counts — the ISSUE's zero-drift guarantee.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from repro.linalg import blas
from repro.linalg.counters import OpCounter, active_counter
from repro.ns.stages import StageScope
from repro.obs import MetricsRegistry, scoped
from repro.obs import tracer as obs
from repro.obs.tracer import Tracer
from repro.util.timing import StageTimer

KERNELS = ("ddot", "daxpy", "dscal", "dvmul", "dnrm2")


def _run_kernels(ops: list[tuple[str, int]]) -> OpCounter:
    rng = np.random.default_rng(7)
    with OpCounter() as c:
        for name, n in ops:
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if name == "ddot":
                blas.ddot(x, y)
            elif name == "daxpy":
                blas.daxpy(0.5, x, y)
            elif name == "dscal":
                blas.dscal(1.1, x)
            elif name == "dvmul":
                blas.dvmul(x, y, np.empty(n))
            elif name == "dnrm2":
                blas.dnrm2(x)
    return c


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(KERNELS), st.integers(1, 64)),
        min_size=1,
        max_size=30,
    ),
    sample_every=st.sampled_from([1, 3, 64]),
)
def test_tracing_leaves_charges_byte_identical(ops, sample_every):
    plain = _run_kernels(ops)
    tracer = Tracer(rank=0, sample_every=sample_every)
    with scoped(MetricsRegistry()), obs.install(tracer):
        traced = _run_kernels(ops)
    assert traced.flops == plain.flops
    assert traced.bytes == plain.bytes
    assert traced.calls == plain.calls
    assert traced.by_label == plain.by_label
    # And the tracer really observed the stream (not a silent no-op).
    totals = tracer.kernel_totals()
    assert sum(v[0] for v in totals.values()) == plain.calls


@settings(max_examples=10, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(KERNELS), st.integers(1, 32)),
        min_size=1,
        max_size=10,
    )
)
def test_sampler_sees_exact_per_label_charges(ops):
    tracer = Tracer(sample_every=64)
    with obs.install(tracer):
        counted = _run_kernels(ops)
    assert tracer.kernel_totals() == {
        label: (c, f, b) for label, (f, b, c) in counted.by_label.items()
    }


def test_tracer_never_charges_ambient_counter():
    tracer = Tracer(sample_every=1)
    solver = SimpleNamespace(timer=StageTimer(), stage_ops={"s": OpCounter()})
    with OpCounter() as outer:
        with obs.install(tracer):
            assert active_counter() is outer
            with StageScope(solver, "s"):
                obs.instant("i", "pcg")
            tracer.emit_span("c", "comm", 0.0, 1.0)
            tracer.kernel_sample(10.0, 20.0, "fake")
    assert [e.name for e in tracer.events] == ["i", "s", "c", "fake"]
    assert outer == OpCounter()
    assert solver.stage_ops["s"] == OpCounter()
