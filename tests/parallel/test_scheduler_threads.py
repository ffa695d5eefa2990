"""Host threads of the event engine: how many are born, what a reused
one carries over (nothing), and that none is left parked when the
scheduler loop fails.

Thread counts are deterministic — they follow from which ranks park
while never-started ranks remain — so they are asserted with ``==``.
They are read from ``EventEngine._threads``, the list of join handles
``run_ranks`` joins, not from ``engine_stats()`` (pinned whole in the
goldens).

Host threads are raw ``_thread`` threads: they never enter
``threading._active``, so ``threading.active_count()`` cannot see one
that leaked (and a rank body that calls ``threading.current_thread()``
leaves a dummy entry behind that is not a leak).  The leak check reads
``_thread._count()``, the interpreter's own count of running threads.
"""

import _thread
import itertools
import threading
import time

import pytest

from repro.apps.scaling_bench import _ring_program, alltoall_program
from repro.linalg.counters import OpCounter, active_counter
from repro.machines.network import NetworkModel
from repro.obs import tracer as obs
from repro.parallel.faults import CrashSpec, FaultPlan
from repro.parallel.scheduler import EventEngine
from repro.parallel.simmpi import VirtualCluster

NET = NetworkModel("threads-net", latency_us=10, bandwidth=100e6)


def _no_thread_outlives(cluster, before, seconds=5.0):
    """Every join handle is released and the interpreter's thread count
    is back at ``before``.  A handle is released by the thread's last
    ``finally``; the interpreter drops its count a few instructions
    later, hence the short poll."""
    assert not any(t.is_alive() for t in cluster._engine._threads)
    deadline = time.perf_counter() + seconds
    while _thread._count() != before and time.perf_counter() < deadline:
        time.sleep(0.001)
    assert _thread._count() == before


def _threads_used(nprocs, rank_fn, **kwargs):
    before = _thread._count()
    cluster = VirtualCluster(nprocs, NET, **kwargs)
    results = cluster.run(rank_fn)
    _no_thread_outlives(cluster, before)
    return len(cluster._engine._threads), results


@pytest.mark.parametrize(
    "nprocs, rounds",
    [
        (8, 0),
        (8, 1),
        (64, 64),
        (256, 16),
        pytest.param(1024, 4, marks=pytest.mark.scaling),
    ],
)
def test_ring_is_carried_by_the_ranks_that_park_plus_one(nprocs, rounds):
    """Rank k < R parks in round k + 1 (its left neighbour sent it k
    buffers before parking itself); every later rank finds all R
    buffers waiting and runs from its first line to its return, one
    after another on one shared thread."""
    used, results = _threads_used(nprocs, _ring_program(rounds, ndoubles=4))
    assert used == min(nprocs, rounds + 1)
    # Round k hands rank r the buffer that started on rank r - k.
    assert results == [
        float(sum((r - k) % nprocs for k in range(1, rounds + 1)))
        for r in range(nprocs)
    ]


@pytest.mark.parametrize("nprocs", [16, 64])
def test_alltoall_needs_a_thread_per_rank(nprocs):
    """All P ranks are blocked at the rendezvous at once."""
    used, results = _threads_used(nprocs, alltoall_program((2,)))
    assert used == nprocs
    assert results == [[nprocs * (nprocs - 1) / 2.0]] * nprocs


def test_ranks_that_never_wait_share_one_thread():
    used, _ = _threads_used(128, lambda comm: None)
    assert used == 1


def test_every_rank_starts_on_a_thread_with_clean_thread_locals():
    """Only cleanly unwound threads are reused: rank 3 dies mid-stage
    (an injected crash unwinds no ``with`` it did not open) and its
    thread retires with the tag and the counter it leaves behind."""
    plan = FaultPlan(crashes=(CrashSpec(rank=3, at_time=1e-4),))
    seen = {}
    # A carrier is its ident plus its birth order: the OS recycles the
    # ident of a retired thread, a thread-local dies with its thread.
    births, born = itertools.count(), threading.local()

    def rank_fn(comm):
        if not hasattr(born, "order"):
            born.order = next(births)
        seen[comm.rank] = (
            (threading.get_ident(), born.order),
            obs.current(),
            obs.current_stage(),
            active_counter(),
        )
        if comm.rank == 3:
            obs.push_stage("2:nonlinear")
            OpCounter().__enter__()
            comm.compute(1.0)

    used, _ = _threads_used(8, rank_fn, faults=plan)
    assert used == 2
    carriers = [seen[r][0] for r in range(8)]
    assert len(set(carriers[:4])) == 1 and len(set(carriers[4:])) == 1
    assert carriers[3] != carriers[4]
    assert [seen[r][1:] for r in range(8)] == [(None, None, None)] * 8


def test_current_thread_inside_a_rank_is_a_dummy_and_is_not_a_leak():
    """``Thread._bootstrap`` never ran for a host thread, so
    ``threading.current_thread()`` hands a rank body a dummy object —
    which ``threading`` keeps listed after the thread is gone.  The
    leak check must neither count that entry nor be satisfied by it."""
    kinds = {}

    def rank_fn(comm):
        kinds[comm.rank] = type(threading.current_thread())
        comm.barrier()

    used, _ = _threads_used(4, rank_fn)
    assert used == 4
    assert set(kinds.values()) == {threading._DummyThread}


@pytest.mark.parametrize("nprocs", [8, pytest.param(1024, marks=pytest.mark.scaling)])
@pytest.mark.parametrize("kind", ["profile", "trace"])
def test_hook_installed_before_run_sees_the_rank_body_on_every_host_thread(
    kind, nprocs
):
    """``threading.setprofile`` / ``settrace`` promise the hook to every
    thread started afterwards; the raw entry point has to keep that
    promise itself (coverage, debuggers and ``cProfile`` rely on it)."""

    def rank_fn(comm):
        comm.barrier()  # all P threads are alive at once: P idents

    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is rank_fn.__code__:
            seen.add(threading.get_ident())

    install = getattr(threading, f"set{kind}")
    previous = getattr(threading, f"get{kind}")()
    install(hook)
    try:
        used, _ = _threads_used(nprocs, rank_fn)
    finally:
        install(previous)
    assert used == nprocs
    assert len(seen) == nprocs


# -- no failure of the scheduler loop leaves a thread parked ------------


class _Boom(Exception):
    pass


def _returns_within(fn, seconds=20.0):
    """``fn()`` on a helper thread: a hang fails the test instead of
    the test session.  Returns what ``fn`` raised, and how long it
    took."""
    box = {}

    def target():
        t0 = time.perf_counter()
        try:
            fn()
        except BaseException as exc:  # noqa: B036  (handed to the asserting thread)
            box["raised"] = exc
        box["seconds"] = time.perf_counter() - t0

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(seconds)
    assert not helper.is_alive(), f"cluster.run still blocked after {seconds} s"
    return box.get("raised"), box["seconds"]


def _raises_on_call(n):
    calls = []

    def predicate():
        calls.append(None)
        if len(calls) >= n:
            raise _Boom(f"predicate call {len(calls)}")
        return False

    return predicate


def _assert_unwound(cluster, raised, seconds, before):
    assert isinstance(raised, _Boom), raised
    assert seconds < 1.0
    _no_thread_outlives(cluster, before)


def test_predicate_raising_on_the_scheduler_thread_unwinds_parked_ranks():
    """Both ranks park (predicate calls 1 and 2); the drain classifier
    re-evaluates the predicate on the scheduler thread (call 3)."""
    predicate = _raises_on_call(3)
    cluster = VirtualCluster(2, NET)
    before = _thread._count()
    raised, seconds = _returns_within(
        lambda: cluster.run(
            lambda comm: cluster._blocking_wait(comm.rank, "planted", predicate)
        )
    )
    _assert_unwound(cluster, raised, seconds, before)
    assert str(raised) == "predicate call 3"  # the original, not a later one
    assert len(cluster._engine._threads) == 2
    assert all(st.done and st.error is not None for st in cluster.ranks)


def test_predicate_raising_on_a_rank_thread_unwinds_parked_ranks():
    """Ranks 0 and 1 park; rank 2 returns, and its finish path runs the
    classifier — on rank 2's thread, which must not take the token
    with it."""
    predicate = _raises_on_call(3)

    def rank_fn(comm):
        if comm.rank < 2:
            comm.cluster._blocking_wait(comm.rank, "planted", predicate)

    cluster = VirtualCluster(3, NET)
    before = _thread._count()
    raised, seconds = _returns_within(lambda: cluster.run(rank_fn))
    _assert_unwound(cluster, raised, seconds, before)
    assert len(cluster._engine._threads) == 3


def test_interrupt_while_a_rank_holds_the_token_starts_no_further_rank():
    """``KeyboardInterrupt`` lands in ``_sched_go.wait()`` while rank 0
    runs: rank 0 aborts at its next wait, ranks 1-7 are never started."""
    started = []
    abort_is_set = threading.Event()

    class InterruptedOnce(threading.Event):
        waits = 0

        def wait(self, timeout=None):
            self.waits += 1
            if self.waits == 1:
                raise KeyboardInterrupt
            abort_is_set.set()  # second wait: _unwind asking for the token
            return super().wait(timeout)

    def rank_fn(comm):
        started.append(comm.rank)
        assert abort_is_set.wait(10.0)
        comm.recv((comm.rank + 1) % comm.size)

    cluster = VirtualCluster(8, NET)
    cluster._engine._sched_go = InterruptedOnce()
    before = _thread._count()
    raised, seconds = _returns_within(lambda: cluster.run(rank_fn))
    assert isinstance(raised, KeyboardInterrupt)
    assert seconds < 1.0
    assert started == [0]
    assert len(cluster._engine._threads) == 1
    _no_thread_outlives(cluster, before)


def test_host_thread_that_dies_before_its_first_rank_still_releases_its_handle(
    monkeypatch,
):
    """``run_ranks`` joins every handle in a ``finally``: one that a
    dying thread did not release would hang the run for good.  The
    release sits outside everything that can raise, and the failure
    comes back to the caller with the token."""

    def dies(self, rank):
        raise _Boom(f"host thread of rank {rank}")

    monkeypatch.setattr(EventEngine, "_main", dies)
    cluster = VirtualCluster(4, NET)
    before = _thread._count()
    raised, seconds = _returns_within(lambda: cluster.run(lambda comm: None))
    _assert_unwound(cluster, raised, seconds, before)
    assert str(raised) == "host thread of rank 0"
    assert len(cluster._engine._threads) == 1
