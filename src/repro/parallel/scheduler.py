# repro: waive-file[virtual-time] host-side scheduling substrate; rank threads implement the simulated ranks
"""Execution engine for :class:`~repro.parallel.simmpi.VirtualCluster`.

A virtual cluster needs two things from its host: a way to *suspend* a
rank whose next virtual event has not happened yet (a ``recv`` with an
empty mailbox, a collective missing participants), and a way to *wake*
exactly the ranks whose wait just became satisfiable.

:class:`EventEngine` is a cooperative, deterministic scheduler.  Each
rank runs as a continuation — a parked OS thread that holds the rank's
full Python call stack (the only stdlib-portable way to suspend
arbitrary synchronous code mid-call; greenlets without the dependency)
— but at most ONE continuation executes at any moment.  A single run
token is handed directly from the parking rank to the next entry of an
O(1) ready deque, wakeups are targeted (a ``send`` readies only its
receiver), and the scheduler thread takes over only when the ready
deque drains (deadlock / timeout-expiry classification).  Cost per
blocking operation is O(1) host work, independent of the cluster size,
which is what makes 1024-rank clusters cheap.

Every simulator contract — virtual clock arithmetic, OpCounter charges,
fault injection, the finalize-time communication verifier, sanitizer
vector clocks and the ``rank_traces()`` event strings — is computed by
:mod:`~repro.parallel.simmpi` itself; the engine only decides *which
host thread runs when*.  Because every rank keeps its own OS thread,
thread-local machinery (the ambient
:class:`~repro.linalg.counters.OpCounter`, the per-rank
:mod:`repro.obs` tracer installation) works unchanged.

A host-level stall — no rank is runnable, yet the deadlock classifier
declines to call it a (virtual) deadlock — raises a typed
:class:`SchedulerDeadlock` carrying a per-rank blocked-state dump
instead of hanging the process.
"""

from __future__ import annotations

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
    """Secondary failure: this rank aborted because another rank died.

    ``VirtualCluster.run`` re-raises the *root* error, not these."""


# Continuation states.  READY ranks sit in the deque; exactly one rank
# is RUNNING (it holds the token); BLOCKED ranks are parked inside
# EventEngine.wait; DONE ranks have returned, crashed or errored.
_READY, _RUNNING, _BLOCKED, _DONE = range(4)


class _Continuation:
    """One rank's parked call stack plus its wake signal."""

    __slots__ = ("go", "state", "thread")

    def __init__(self) -> None:
        self.thread: threading.Thread | None = None
        self.go = threading.Event()
        self.state = _READY


class EventEngine:
    """Cooperative event-driven scheduler.

    Exactly one continuation holds the run token at any moment, so the
    simulator's shared state (mailboxes, collectives, ledgers) needs no
    lock at all.  Scheduling is deterministic:
    ranks start in rank order, wakeups append to a FIFO ready deque in
    a fixed order, and the token is handed directly from the parking
    rank to the next ready rank (one Event signal per block, no
    scheduler-thread bounce).  The scheduler thread regains control
    only when the ready deque drains, where it either classifies the
    situation through the cluster's deadlock/timeout logic or raises
    :class:`SchedulerDeadlock`.
    """

    def __init__(self, cluster: "VirtualCluster"):
        self.cluster = cluster
        self._conts: list[_Continuation] = []
        self._ready: deque[int] = deque()
        self._sched_go = threading.Event()
        self._comms: "list[VirtualComm]" = []
        self._body: Callable[["VirtualComm"], None] | None = None
        self._abort: SchedulerDeadlock | None = None
        self._ndone = 0
        self._switches = 0
        self._wakeups = 0
        self._ready_depth_max = 0

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
            while not predicate():
                if self._abort is not None:
                    raise self._abort
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
            return True
        finally:
            cl._waiting.pop(rank, None)
            cl._timed_out.discard(rank)

    # -- token plumbing -----------------------------------------------

    def _park(self, rank: int) -> None:
        """Give up the token until something readies this rank again."""
        cont = self._conts[rank]
        cont.state = _BLOCKED
        self._hand_off()
        cont.go.wait()
        cont.go.clear()
        cont.state = _RUNNING

    def _hand_off(self) -> None:
        """Pass the token to the next ready rank, or to the scheduler
        thread when none is ready (drain: classify or finish)."""
        self._switches += 1
        if self._ready:
            rank = self._ready.popleft()
            nxt = self._conts[rank]
            if nxt.thread is None:
                # First dispatch: the continuation's thread starts
                # directly in its body — no initial signal round-trip.
                nxt.state = _RUNNING
                nxt.thread = threading.Thread(
                    target=self._main, args=(rank,), daemon=True
                )
                nxt.thread.start()
            else:
                nxt.go.set()
        else:
            self._sched_go.set()

    def _main(self, rank: int) -> None:
        """Continuation entry point: run the rank body, then finalize
        and hand the token on.  Runs on the rank's own thread, so all
        thread-local machinery (OpCounter, obs tracer) is per-rank."""
        cl = self.cluster
        assert self._body is not None
        self._body(self._comms[rank])
        st = cl.ranks[rank]
        st.done = True
        cl._waiting.pop(rank, None)
        self._conts[rank].state = _DONE
        self._ndone += 1
        if self._abort is None:
            if st.error is not None:
                # Peers blocked on this rank must wake to observe the
                # failure (they raise _PeerFailure; run() re-raises the
                # root error).
                self.notify_all()
            elif cl._waiting:
                # A finished rank can strand peers waiting on it; the
                # classifier notifies whoever it concerns.
                cl._check_deadlock()
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
        blocked = {r: entry[0] for r, entry in sorted(cl._waiting.items())}
        self._abort = SchedulerDeadlock(
            blocked,
            detail=(
                "event engine: ready deque drained with "
                f"{self.cluster.nprocs - self._ndone} rank(s) unfinished"
            ),
        )
        if not blocked:
            # Nothing is even parked: no continuation can absorb the
            # abort, so raise it straight from the scheduler thread.
            raise self._abort
        # Wake every parked rank; each observes the abort in wait() and
        # raises it, so the error propagates through the normal
        # per-rank error path and every thread terminates.
        self.notify_all()

    # -- execution ----------------------------------------------------

    def run_ranks(
        self,
        comms: "list[VirtualComm]",
        body: Callable[["VirtualComm"], None],
    ) -> None:
        cl = self.cluster
        nprocs = cl.nprocs
        self._comms = comms
        self._body = body
        self._conts = [_Continuation() for _ in range(nprocs)]
        self._ready = deque(range(nprocs))
        self._abort = None
        self._ndone = 0
        self._switches = 0
        self._wakeups = 0
        self._ready_depth_max = nprocs  # everyone starts ready
        self._sched_go.clear()
        try:
            while self._ndone < nprocs:
                if not self._ready:
                    self._on_idle()
                    continue
                self._hand_off()
                self._sched_go.wait()
                self._sched_go.clear()
        finally:
            for cont in self._conts:
                if cont.thread is not None:
                    cont.thread.join()
            self._comms = []
            self._body = None

    def stats(self) -> dict[str, float]:
        return {
            "scheduler.switches": float(self._switches),
            "scheduler.wakeups": float(self._wakeups),
            "scheduler.ready_depth_max": float(self._ready_depth_max),
        }
