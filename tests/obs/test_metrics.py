import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import Histogram, MetricsRegistry


def _counted_by(*registries):
    """Which of ``registries`` one ``metrics.inc`` lands in (``None``:
    in none of them — metrics are off, or another registry is active)."""

    def probes():
        return [r.snapshot().get("probe", {}).get("value", 0.0) for r in registries]

    before = probes()
    metrics.inc("probe")
    hit = [r for r, b, a in zip(registries, before, probes()) if a == b + 1.0]
    assert len(hit) <= 1
    return hit[0] if hit else None


def test_counter_and_gauge():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(2.5)
    reg.gauge("g").set(4.0)
    snap = reg.snapshot()
    assert snap["c"] == {"type": "counter", "value": 3.5}
    assert snap["g"] == {"type": "gauge", "value": 4.0}


def test_counter_rejects_negative():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("c").inc(-1.0)


def test_histogram_buckets_and_stats():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for v in (0.5, 1.0, 3.0, 100.0):
        h.observe(v)
    assert h.count == 4
    assert h.sum == pytest.approx(104.5)
    assert h.min == 0.5 and h.max == 100.0
    assert h.mean == pytest.approx(104.5 / 4)
    snap = h.snapshot()
    # 0.5 and 1.0 -> bucket <=1; 3.0 -> (2,4]; 100 -> (64,128].
    assert snap["buckets"] == {"1": 2, "4": 1, "128": 1}


def test_bucket_of_edges():
    assert Histogram.bucket_of(0.0) == 0
    assert Histogram.bucket_of(1.0) == 0
    assert Histogram.bucket_of(2.0) == 1
    assert Histogram.bucket_of(2.1) == 2
    assert Histogram.bucket_of(1024.0) == 10


def test_kind_mismatch_raises():
    reg = MetricsRegistry()
    reg.counter("m")
    with pytest.raises(TypeError):
        reg.gauge("m")


def test_hit_rate():
    reg = MetricsRegistry()
    assert reg.hit_rate("cache") is None
    reg.counter("cache.hits").inc(3)
    reg.counter("cache.misses").inc(1)
    assert reg.hit_rate("cache") == pytest.approx(0.75)


def test_module_helpers_noop_when_disabled():
    bystander = MetricsRegistry()  # exists, was never activated
    metrics.inc("x")
    metrics.observe("y", 1.0)
    metrics.set_gauge("z", 2.0)
    assert _counted_by(bystander) is None
    assert bystander.snapshot() == {}


def test_scoped_activates_and_restores():
    with metrics.scoped() as reg:
        metrics.inc("n", 2)
        metrics.observe("h", 8.0)
        metrics.set_gauge("g", 1.5)
        inner = MetricsRegistry()
        with metrics.scoped(inner):
            assert _counted_by(reg, inner) is inner
            metrics.inc("n")
        assert _counted_by(reg, inner) is reg
    assert _counted_by(reg, inner) is None
    snap = reg.snapshot()
    assert snap["n"]["value"] == 2.0
    assert snap["h"]["count"] == 1 and snap["h"]["sum"] == 8.0
    assert snap["g"]["value"] == 1.5
    assert inner.snapshot()["n"]["value"] == 1.0


def test_helpers_from_two_threads_count_into_the_one_active_registry():
    """The registry is process-global on purpose: rank threads and the
    campaign's workers aggregate into whatever scope is open."""
    per_thread, nthreads = 2000, 2
    start = threading.Barrier(nthreads)

    def bump():
        start.wait(10.0)
        for _ in range(per_thread):
            metrics.inc("n")
            metrics.observe("h", 2.0)

    with metrics.scoped() as reg:
        threads = [threading.Thread(target=bump) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
    snap = reg.snapshot()
    assert snap["n"]["value"] == per_thread * nthreads
    assert snap["h"]["count"] == per_thread * nthreads


def test_scoped_fresh_registry_per_scope():
    with metrics.scoped() as first:
        metrics.inc("n", 2)
        assert _counted_by(first) is first
    with metrics.scoped() as second:
        metrics.inc("n", 5)
    assert _counted_by(first, second) is None
    # Back-to-back scopes never bleed counters into each other.
    assert first is not second
    assert first.snapshot()["n"]["value"] == 2.0
    assert second.snapshot()["n"]["value"] == 5.0


def test_scoped_resets_long_lived_registry_on_entry():
    reg = MetricsRegistry()
    reg.counter("stale").inc(7)
    with metrics.scoped(reg) as active:
        # The campaign-engine pattern: same registry object, reset on
        # entry so handles held by callers keep pointing at live state.
        assert active is reg
        assert reg.snapshot() == {}
        metrics.inc("fresh")
    assert reg.snapshot() == {"fresh": {"type": "counter", "value": 1.0}}
    assert "stale" not in reg.snapshot()
