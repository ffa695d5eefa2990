# repro: waive-file[virtual-time] host-side scheduling substrate; rank threads implement the simulated ranks
"""Execution engine for :class:`~repro.parallel.simmpi.VirtualCluster`.

A virtual cluster needs two things from its host: a way to *suspend* a
rank whose next virtual event has not happened yet (a ``recv`` with an
empty mailbox, a collective missing participants), and a way to *wake*
exactly the ranks whose wait just became satisfiable.

:class:`EventEngine` is a cooperative, deterministic scheduler.  A
rank that has to wait is suspended as a continuation — a parked OS
thread that holds the rank's full Python call stack (the only
stdlib-portable way to suspend arbitrary synchronous code mid-call;
greenlets without the dependency) — and at most ONE continuation
executes at any moment.  A single run token is handed directly from
the parking rank to the next entry of an O(1) ready deque, wakeups are
targeted (a ``send`` readies only its receiver), and the scheduler
thread takes over only when the ready deque drains (deadlock /
timeout-expiry classification).  Cost per blocking operation is O(1)
host work, independent of the cluster size, which is what makes
1024-rank clusters cheap.

A host thread is born only for a rank that has to wait.  A rank whose
body returns normally lends its thread to the next never-started rank
at the head of the ready deque (the *adoption rule*, one counted
hand-off like any other), so a new thread is created only when a rank
parks while unstarted ranks remain: a P-rank ring of R rounds, in
which only the first R ranks ever park, runs on min(P, R + 1) threads;
an all-to-all, where all P block at once, still on P.  A rank that
ends by injected crash or host error retires its thread, so only
cleanly unwound threads are reused.

A birth is one ``clone`` and a hand-off is one lock.  Host threads are
raw ``_thread.start_new_thread`` threads, not ``threading.Thread``
objects: ``Thread.start()`` does not return until the newborn has set
its ``_started`` Event, so the *parking* rank slept on the new thread
and was woken again just to park — three runnable threads where the
contract is one, which under sustained load turns every hand-off into
a cross-CPU wake-up (DESIGN.md section 14.1 has the numbers).  A parked
rank waits on a bare lock used as a binary semaphore, not on a
``threading.Event``.  What follows from running without
``Thread._bootstrap``:

* ``run_ranks`` joins a :class:`_JoinHandle` per host thread — a lock
  the thread's outermost ``finally`` releases — kept in
  ``EventEngine._threads`` in creation order;
* ``threading.current_thread()`` inside a rank body yields a dummy
  thread object, and ``threading.enumerate()`` / ``active_count()`` do
  not list host threads (``_thread._count()`` counts them);
  thread-*locals* are unaffected;
* the entry point installs the process-wide ``threading.settrace`` /
  ``setprofile`` hooks itself, so coverage, debuggers and ``cProfile``
  still see rank bodies, and it hands any escaping exception to the
  scheduler thread rather than to ``sys.unraisablehook``.

Every simulator contract — virtual clock arithmetic, OpCounter charges,
fault injection, the finalize-time communication verifier, sanitizer
vector clocks and the ``rank_traces()`` event strings — is computed by
:mod:`~repro.parallel.simmpi` itself; the engine only decides *which
host thread runs when*.  Because a rank stays on one host thread from
its first dispatch to its return, and a thread carries one rank at a
time, thread-local machinery (the ambient
:class:`~repro.linalg.counters.OpCounter`, the per-rank
:mod:`repro.obs` tracer installation) works unchanged.

A host-level stall — no rank is runnable, yet the deadlock classifier
declines to call it a (virtual) deadlock — raises a typed
:class:`SchedulerDeadlock` carrying a per-rank blocked-state dump
instead of hanging the process.
"""

from __future__ import annotations

import _thread
import sys
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable

from ..analysis.vocab import RUNTIME_CODES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simmpi import VirtualCluster, VirtualComm

__all__ = ["EventEngine", "SchedulerDeadlock"]

FailureProbe = Callable[[], BaseException | None]
WaitEntry = "tuple[str, Callable[[], bool], bool, FailureProbe | None]"


class SchedulerDeadlock(RuntimeError):
    """No rank is runnable and no pending wait can ever complete.

    This is the *host-level* stall error: the virtual-semantics
    classifier (:meth:`VirtualCluster._check_deadlock`) looked at the
    blocked ranks and declined to raise a
    :class:`~repro.parallel.simmpi.CommVerificationError` — every
    communication-shaped deadlock still surfaces as that — yet nothing
    can make progress.  It means a scheduler invariant broke (a lost
    wakeup, a monkeypatched or buggy classifier), so instead of hanging
    the process the engine raises this typed error with a per-rank dump
    of each blocked rank's wait description.
    """

    def __init__(self, blocked: dict[int, str], detail: str = ""):
        self.blocked = dict(blocked)
        lines = [
            "scheduler stall: no rank is runnable and no blocked wait can "
            f"complete [{RUNTIME_CODES['scheduler_stall']}]"
        ]
        if detail:
            lines.append(detail)
        if self.blocked:
            lines.append("per-rank blocked state:")
            lines.extend(
                f"  rank {r}: blocked in {self.blocked[r]}"
                for r in sorted(self.blocked)
            )
        else:
            lines.append("(no rank had a registered wait entry)")
        super().__init__("\n".join(lines))


class _PeerFailure(RuntimeError):
    """Secondary failure: this rank aborted because another rank died,
    or because the scheduler loop itself raised and the run is being
    unwound.

    ``VirtualCluster.run`` re-raises the *root* error, not these."""


# Continuation states.  NEW ranks sit in the ready deque and have never
# been dispatched (no host thread carries them yet); READY ranks sit in
# the deque with their call stack parked on a thread; exactly one rank
# is RUNNING (it holds the token); BLOCKED ranks are parked inside
# EventEngine.wait; DONE ranks have returned, crashed or errored.
_NEW, _READY, _RUNNING, _BLOCKED, _DONE = range(5)


class _Continuation:
    """One rank's scheduling state plus the wake signal of its parked
    call stack.

    ``go`` is a bare lock used as a binary semaphore, born taken:
    ``release`` readies the rank (exactly once per park — the states
    guarantee it), ``acquire`` parks it and re-arms the signal in the
    same call."""

    __slots__ = ("go", "state")

    def __init__(self) -> None:
        self.go = _thread.allocate_lock()
        self.go.acquire()
        self.state = _NEW


class _JoinHandle:
    """What ``run_ranks`` joins for one raw host thread: a lock, born
    taken, that the thread's outermost ``finally`` releases."""

    __slots__ = ("_running",)

    def __init__(self) -> None:
        self._running = _thread.allocate_lock()
        self._running.acquire()

    def retire(self) -> None:
        self._running.release()

    def is_alive(self) -> bool:
        return self._running.locked()

    def join(self) -> None:
        self._running.acquire()
        self._running.release()


class EventEngine:
    """Cooperative event-driven scheduler.

    Exactly one continuation holds the run token at any moment, so the
    simulator's shared state (mailboxes, collectives, ledgers) needs no
    lock at all.  Scheduling is deterministic:
    ranks start in rank order, wakeups append to a FIFO ready deque in
    a fixed order, and the token is handed directly from the parking
    rank to the next ready rank (one lock release per block, no
    scheduler-thread bounce).  The scheduler thread regains control
    only when the ready deque drains, where it either classifies the
    situation through the cluster's deadlock/timeout logic or raises
    :class:`SchedulerDeadlock`.
    """

    def __init__(self, cluster: "VirtualCluster"):
        self.cluster = cluster
        self._conts: list[_Continuation] = []
        self._ready: deque[int] = deque()
        # One join handle per host thread the current (or most recent)
        # run started: what run_ranks joins.  A list, in creation order.
        self._threads: list[_JoinHandle] = []
        # Set exactly while the scheduler thread holds the run token.
        self._sched_go = threading.Event()
        self._comms: "list[VirtualComm]" = []
        self._body: Callable[["VirtualComm"], None] | None = None
        # Set when the scheduler loop raised: no rank parks and no rank
        # is started any more; every wait raises it instead.
        self._abort: _PeerFailure | None = None
        # An engine-side exception on a rank thread (outside the rank
        # body), handed to the scheduler thread together with the token.
        self._failure: BaseException | None = None
        self._ndone = 0
        self._switches = 0
        self._wakeups = 0
        self._ready_depth_max = 0

    @property
    def unfinished(self) -> int:
        """Ranks that have not yet returned, crashed or errored."""
        return len(self._conts) - self._ndone

    # -- notifications (token holder only) ----------------------------

    def _track_depth(self) -> None:
        depth = len(self._ready)
        if depth > self._ready_depth_max:
            self._ready_depth_max = depth

    def notify_rank(self, rank: int) -> None:
        """Ready one parked rank; O(1), no-op unless it is blocked."""
        cont = self._conts[rank]
        if cont.state == _BLOCKED:
            cont.state = _READY
            self._ready.append(rank)
            self._wakeups += 1
            self._track_depth()

    def notify_all(self) -> None:
        """Ready every parked rank, in rank order (deterministic)."""
        for rank, cont in enumerate(self._conts):
            if cont.state == _BLOCKED:
                cont.state = _READY
                self._ready.append(rank)
                self._wakeups += 1
        self._track_depth()

    # -- blocking wait (token holder only) ----------------------------

    def wait(
        self,
        rank: int,
        desc: str,
        predicate: Callable[[], bool],
        timed: bool = False,
        failure: FailureProbe | None = None,
    ) -> bool:
        cl = self.cluster
        cl._waiting[rank] = (desc, predicate, timed, failure)
        try:
            while True:
                if self._abort is not None:
                    # Checked before the predicate: an aborted run
                    # stops at its next wait, satisfiable or not.
                    raise self._abort
                if predicate():
                    return True
                if failure is not None:
                    exc = failure()
                    if exc is not None:
                        raise exc
                if cl._deadlock is not None:
                    raise cl._deadlock
                if cl._error_flag:
                    peer = next(
                        (st.error for st in cl.ranks if st.error is not None),
                        None,
                    )
                    if peer is not None:
                        raise _PeerFailure(
                            f"rank {rank}: peer rank failed during {desc}"
                        ) from peer
                if rank in cl._timed_out:
                    cl._timed_out.discard(rank)
                    return False
                self._park(rank)
        finally:
            cl._waiting.pop(rank, None)
            cl._timed_out.discard(rank)

    # -- token plumbing -----------------------------------------------

    def _park(self, rank: int) -> None:
        """Give up the token until something readies this rank again."""
        cont = self._conts[rank]
        cont.state = _BLOCKED
        self._hand_off()
        cont.go.acquire()
        cont.state = _RUNNING

    def _hand_off(self) -> None:
        """Pass the token to the next ready rank, or to the scheduler
        thread when none is ready (drain: classify or finish) or the
        run is being unwound (the scheduler thread wakes the parked
        ranks itself, and starts no new one)."""
        self._switches += 1
        if self._ready and self._abort is None:
            rank = self._ready.popleft()
            nxt = self._conts[rank]
            if nxt.state == _NEW:
                # The one place a host thread is born: the token holder
                # keeps its own thread (it is parking, or it is the
                # scheduler thread) and the next rank has none yet.
                # It starts directly in its body — a raw thread, so
                # there is no start handshake for this thread to sleep
                # on before it parks (module docstring).
                nxt.state = _RUNNING
                handle = _JoinHandle()
                self._threads.append(handle)
                _thread.start_new_thread(self._thread_main, (rank, handle))
            else:
                nxt.go.release()
        else:
            self._sched_go.set()

    def _thread_main(self, rank: int, handle: _JoinHandle) -> None:
        """Raw host-thread entry point: what ``Thread._bootstrap`` did
        for a rank body, done by hand (module docstring).  The hooks
        take effect from the next frame, which is ``_main``; the join
        handle is released last, whatever happened."""
        try:
            sys.settrace(threading.gettrace())
            sys.setprofile(threading.getprofile())
            self._main(rank)
        except BaseException as exc:
            # Engine-side code raised on this thread (a wait predicate
            # that raises inside the classifier): the token must not
            # die with the thread.  The scheduler thread re-raises.
            self._failure = exc
            self._sched_go.set()
        finally:
            handle.retire()

    def _main(self, rank: int) -> None:
        """Run rank bodies on this host thread, one at a time, for as
        long as the adoption rule allows, then hand the token on.

        A rank stays on this thread from its first dispatch to its
        return, so all thread-local machinery (OpCounter, obs tracer)
        is per-rank.  When the body returns normally and the head of
        the ready deque is a rank that has never run, this thread takes
        it on — exactly the rank, and exactly the counted hand-off,
        that a new thread would have been started for.  A rank that
        ended by injected crash or host error may have left
        thread-local state behind (a stage tag, an ambient counter), so
        its thread retires instead.
        """
        cl = self.cluster
        body = self._body
        assert body is not None
        while True:
            body(self._comms[rank])
            st = cl.ranks[rank]
            st.done = True
            cl._waiting.pop(rank, None)
            self._conts[rank].state = _DONE
            self._ndone += 1
            if self._abort is not None:
                break
            if st.error is not None:
                # Peers blocked on this rank must wake to observe
                # the failure (they raise _PeerFailure; run()
                # re-raises the root error).
                self.notify_all()
                break
            if cl._waiting:
                # A finished rank can strand peers waiting on it;
                # the classifier notifies whoever it concerns.
                cl._check_deadlock()
            if st.crashed or not self._ready:
                break
            nxt = self._conts[self._ready[0]]
            if nxt.state != _NEW:
                break
            self._switches += 1
            rank = self._ready.popleft()
            nxt.state = _RUNNING
        self._hand_off()

    # -- drain handling -----------------------------------------------

    def _on_idle(self) -> None:
        """No rank is ready and not all are done: classify.

        Either the cluster's own logic turns the drain into virtual
        semantics (deadlock error, expired virtual timeouts, crashed
        peers — all of which ready the affected ranks), or the engine
        declares a host-level stall.  No real-time safety net is
        needed: with a single token the drain condition is observed
        exactly, so classification is immediate.
        """
        cl = self.cluster
        if cl._check_deadlock():
            # Classified as a communication deadlock: the classifier
            # recorded cl._deadlock and notified; blocked ranks wake to
            # raise it.
            return
        if self._ready:
            # The classifier expired timed waits or fired a failure
            # probe — someone is runnable again.
            return
        # Defensive sweep: ready any rank whose wait is actually
        # satisfiable, so a lost targeted wakeup degrades to a sweep
        # instead of a stall.
        for rank in sorted(cl._waiting):
            _desc, predicate, _timed, failure = cl._waiting[rank]
            if (
                rank in cl._timed_out
                or predicate()
                or (failure is not None and failure() is not None)
            ):
                self.notify_rank(rank)
        if self._ready:
            return
        if cl._error_flag and any(st.error is not None for st in cl.ranks):
            # An error is propagating: wake everyone so peers abort.
            self.notify_all()
            if self._ready:
                return
        # Raised on the scheduler thread; run_ranks unwinds the parked
        # ranks before it lets the error out.
        raise SchedulerDeadlock(
            {r: entry[0] for r, entry in sorted(cl._waiting.items())},
            detail=(
                "event engine: ready deque drained with "
                f"{self.unfinished} rank(s) unfinished"
            ),
        )

    # -- execution ----------------------------------------------------

    def _unwind(self, exc: BaseException) -> None:
        """The scheduler loop raised ``exc`` while ranks are parked.

        A parked continuation is a call stack only its own thread can
        unwind, and ``run_ranks`` joins every thread, so each one is
        woken — one token at a time, in rank order — to raise the abort
        out of its wait and end through the normal per-rank error path.
        Never-started ranks are not started.
        """
        abort = _PeerFailure(
            f"run aborted: the scheduler loop raised {type(exc).__name__}"
        )
        abort.__cause__ = exc
        self._abort = abort
        # A KeyboardInterrupt can land while a rank holds the token; it
        # comes back at that rank's next wait or hand-off.
        self._sched_go.wait()
        for cont in self._conts:
            if cont.state in (_READY, _BLOCKED):
                self._sched_go.clear()
                cont.go.release()
                self._sched_go.wait()

    def run_ranks(
        self,
        comms: "list[VirtualComm]",
        body: Callable[["VirtualComm"], None],
    ) -> None:
        nprocs = self.cluster.nprocs
        self._comms = comms
        self._body = body
        self._conts = [_Continuation() for _ in range(nprocs)]
        self._ready = deque(range(nprocs))
        self._threads = []
        self._abort = None
        self._failure = None
        self._ndone = 0
        self._switches = 0
        self._wakeups = 0
        self._ready_depth_max = nprocs  # everyone starts ready
        self._sched_go.set()
        try:
            while self._ndone < nprocs:
                if not self._ready:
                    self._on_idle()
                    continue
                self._sched_go.clear()
                self._hand_off()
                self._sched_go.wait()
                if self._failure is not None:
                    raise self._failure
        except BaseException as exc:
            self._unwind(exc)
            raise
        finally:
            for thread in self._threads:
                thread.join()
            self._comms = []
            self._body = None

    def stats(self) -> dict[str, float]:
        return {
            "scheduler.switches": float(self._switches),
            "scheduler.wakeups": float(self._wakeups),
            "scheduler.ready_depth_max": float(self._ready_depth_max),
        }
