"""OpCounter nesting, re-entry, and thread-isolation semantics."""

import threading
from contextlib import ExitStack

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.counters import (
    OpCounter,
    charge,
    charge_tape,
    set_kernel_sampler,
)

from ._snapshot import active_counter, snapshot


def test_charge_without_active_counter_is_noop():
    charge(1e9, 1e9, "nowhere")  # must not raise
    assert active_counter() is None


def test_basic_accumulation_and_labels():
    with OpCounter() as c:
        charge(10.0, 80.0, "k1")
        charge(5.0, 40.0, "k1")
        charge(1.0, 8.0)
    assert c.flops == 16.0
    assert c.bytes == 128.0
    assert c.calls == 3
    assert c.by_label["k1"] == (15.0, 120.0, 2)


def test_nested_counters_both_charged_once():
    with OpCounter() as outer:
        charge(1.0, 8.0, "a")
        with OpCounter() as inner:
            charge(2.0, 16.0, "b")
        charge(4.0, 32.0, "c")
    assert inner.flops == 2.0
    assert outer.flops == 7.0  # 1 + 2 + 4: inner charge propagated exactly once
    assert outer.by_label["b"] == (2.0, 16.0, 1)
    assert "a" not in inner.by_label


def test_three_deep_nesting_propagates_through_chain():
    with OpCounter() as a:
        with OpCounter() as b:
            with OpCounter() as c:
                charge(1.0, 8.0)
    assert (a.flops, b.flops, c.flops) == (1.0, 1.0, 1.0)
    assert (a.calls, b.calls, c.calls) == (1, 1, 1)


def test_reentry_of_same_counter_charges_once():
    # Historical bug: `with c: with c:` made c its own parent and the
    # charge walk recursed forever (or double-charged).
    c = OpCounter()
    with c:
        with c:
            charge(3.0, 24.0, "k")
        # still active after the inner exit
        assert active_counter() is c
        charge(1.0, 8.0)
    assert c.flops == 4.0
    assert c.calls == 2
    assert active_counter() is None


def test_exit_restores_previous_active():
    with OpCounter() as outer:
        with OpCounter():
            pass
        assert active_counter() is outer
    assert active_counter() is None


def test_thread_isolation_independent_actives():
    results = {}
    barrier = threading.Barrier(2)

    def worker(name, flops):
        with OpCounter() as c:
            barrier.wait()  # both threads hold an active counter at once
            charge(flops, 8.0, name)
            barrier.wait()
            results[name] = (c.flops, dict(c.by_label))

    t1 = threading.Thread(target=worker, args=("t1", 10.0))
    t2 = threading.Thread(target=worker, args=("t2", 20.0))
    t1.start(), t2.start()
    t1.join(), t2.join()
    assert results["t1"] == (10.0, {"t1": (10.0, 8.0, 1)})
    assert results["t2"] == (20.0, {"t2": (20.0, 8.0, 1)})


def test_counter_not_active_on_other_threads():
    seen = {}

    def worker():
        seen["active"] = active_counter()

    with OpCounter():
        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert seen["active"] is None


def test_parent_chain_crosses_threads_exactly_once():
    # A rank thread opening its own counter under a main-thread counter
    # context does NOT inherit it (thread-local), so the parent link only
    # forms within one thread.  Charges on the rank thread stay local.
    with OpCounter() as main_counter:

        def worker():
            with OpCounter() as local:
                charge(7.0, 8.0)
                assert local.flops == 7.0

        t = threading.Thread(target=worker)
        t.start()
        t.join()
    assert main_counter.flops == 0.0


# -- charge_tape == one charge per entry ------------------------------------------

LABELS = st.sampled_from(["", "a", "b", "dgemm"])
ENTRIES = st.tuples(
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
    st.floats(0.0, 1e9, allow_nan=False, width=64),
    LABELS,
)
TAPES = st.lists(ENTRIES, max_size=12).map(tuple)


def charged(depth, prefix, tape, by_tape):
    """(snapshots of ``depth`` nested counters, sampler sequence) after
    ``prefix`` then ``tape`` is charged, the tape either entry by entry
    or with one ``charge_tape``."""
    seq = []
    set_kernel_sampler(lambda f, b, label: seq.append((f, b, label)))
    try:
        with ExitStack() as stack:
            counters = [stack.enter_context(OpCounter()) for _ in range(depth)]
            for entry in prefix:
                charge(*entry)
            if by_tape:
                charge_tape(tape)
            else:
                for entry in tape:
                    charge(*entry)
    finally:
        set_kernel_sampler(None)
    return [snapshot(c) for c in counters], seq


@given(st.integers(0, 3), TAPES, TAPES)
@settings(max_examples=200, deadline=None)
def test_charge_tape_is_one_charge_per_entry(depth, prefix, tape):
    assert charged(depth, prefix, tape, True) == charged(depth, prefix, tape, False)


def test_charge_tape_on_a_reentered_counter_charges_once():
    tape = ((3.0, 24.0, "k"), (1.0, 8.0, ""), (2.0, 16.0, "k"))
    c = OpCounter()
    with c:
        with c:
            charge_tape(tape)
        charge_tape(tape[:1])
    assert (c.flops, c.bytes, c.calls) == (9.0, 72.0, 4)
    assert c.by_label == {"k": (8.0, 64.0, 3)}
    assert active_counter() is None
    # Re-entered under another counter, the chain is a cycle: a -> b -> a.
    a, b = OpCounter(), OpCounter()
    with a, b, a:
        charge_tape(tape)
    assert (a.calls, b.calls) == (3, 3)
    assert snapshot(a) == snapshot(b)


def test_charge_tape_is_thread_local():
    results = {}
    barrier = threading.Barrier(2)

    def worker(name, flops):
        with OpCounter() as c:
            barrier.wait()  # both threads hold an active counter at once
            charge_tape(((flops, 8.0, name), (flops, 8.0, name)))
            barrier.wait()
            results[name] = (c.flops, dict(c.by_label))

    with OpCounter() as main_counter:
        threads = [
            threading.Thread(target=worker, args=("t1", 10.0)),
            threading.Thread(target=worker, args=("t2", 20.0)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    assert results["t1"] == (20.0, {"t1": (20.0, 16.0, 2)})
    assert results["t2"] == (40.0, {"t2": (40.0, 16.0, 2)})
    assert main_counter == OpCounter()


def test_negative_nesting_counts_are_not_mangled_by_exceptions():
    c = OpCounter()
    with pytest.raises(ValueError):
        with c:
            raise ValueError("inner failure")
    assert active_counter() is None
    with c:  # reusable after the exception
        charge(1.0, 1.0)
    assert c.flops == 1.0
