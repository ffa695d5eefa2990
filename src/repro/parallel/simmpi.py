"""simmpi: a virtual-time MPI on scheduled rank continuations.

Rank functions execute *real Python/numpy code on real data* — messages
actually move arrays between ranks — while each rank carries two
virtual clocks priced by the machine models:

* ``wall`` — the paper's ``MPI_Wtime``: compute time plus communication
  time including waiting (idle) time;
* ``cpu``  — the paper's ``clock()``: compute time plus only the CPU
  cost of the protocol stack (TCP copy/checksum overhead on the
  Ethernet clusters, ~0 on OS-bypass networks).

The difference between the two "indicates idle CPU time, which is
associated with network inefficiency" (Section 4.2) — exactly the
CPU/wall split Tables 2-3 report.

Timing model: point-to-point messages use the Hockney model of the pair
network (buffered send: the sender pays wire occupancy, the receiver
completes at send_start + latency + bytes/bandwidth).  Collectives are
data-correct (implemented with real exchanges) but priced with the
calibrated collective cost models of :class:`NetworkModel`, applied at
the synchronisation point — this captures contention effects (Ethernet
Alltoall saturation) that uncoordinated pairwise pricing would miss.

Communication verification
--------------------------
With ``verify=True`` (the default) the cluster checks MPI semantics the
way a debugging MPI layer would:

* **at runtime** — a deadlock (every live rank blocked in a recv or an
  unfilled collective, none able to make progress) and cross-rank
  collective-ordering mismatches (rank 0's n-th collective is a
  ``barrier`` while rank 1's n-th is an ``allreduce``) abort the run
  immediately;
* **at finalize** — after all ranks return cleanly, unmatched sends
  (messages still sitting in a mailbox), incomplete collectives, and
  cluster-wide byte conservation (total bytes sent == total bytes
  received) are checked.

Violations raise :class:`CommVerificationError`, which carries the
structured ``problems`` list and a bounded per-rank ``rank_traces`` of
the most recent communication events on each rank.

Fault injection
---------------
A :class:`~repro.parallel.faults.FaultPlan` passed to
:class:`VirtualCluster` injects deterministic message loss (priced as
TCP retransmits on kernel-mediated networks), link degradation,
per-rank stragglers, and rank crashes.  A crashed rank stops executing;
surviving ranks observe a typed
:class:`~repro.parallel.faults.RankFailure` on their next communication
with it (pending messages it sent earlier still deliver).  With an
empty plan every fault branch is skipped, so clocks and accounting are
byte-identical to a cluster constructed without one.

Observers
---------
A tracer (``trace=``), a critical-path recorder (``critpath=``) and the
race sanitizer (``sanitize=True``) read a run only after its ranks are
done, from ``VirtualCluster.event_log``: one tuple per priced event, in
host order, holding the values the pricing used.  Comm/idle/fault spans
(:func:`repro.obs.tracer.spans_from_log`), the event graph and the
access table (``CritPathRecorder.on_run_finish``) are views of it, so
no observer can perturb a clock.  An unobserved run keeps no log, only
the verifier's ring of each rank's last 64 events.  The row layouts are
listed in :mod:`repro.obs`.  A message still queued from an earlier run
has its send row in that run's log, so a run with a recorder or the
sanitizer attached refuses to start on one (:class:`CommVerificationError`,
``REPRO010``); untraced and trace-only runs deliver it.
"""

from __future__ import annotations

import pickle
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import partialmethod
from operator import attrgetter
from typing import Any, Callable

import numpy as np

from ..machines.cpu import CPUModel
from ..machines.network import NetworkModel
from ..obs import metrics
from ..obs import tracer as obs
from ..obs.critpath import CritPathRecorder
from ..obs.tracer import current_stage, spans_from_log
from .faults import CrashSpec, FaultPlan, RankFailure, RecvTimeout
from .sanitizer import DeterminismError, HappensBefore, happens_before
from .scheduler import EventEngine, SchedulerDeadlock, _PeerFailure

__all__ = [
    "CommVerificationError",
    "DeterminismError",
    "SchedulerDeadlock",
    "VirtualCluster",
    "VirtualComm",
    "payload_bytes",
]


# Runtime diagnostic code of each finding kind the verifier raises.
_CODES = {
    "unmatched_send": "REPRO010",
    "deadlock": "REPRO011",
    "collective_order": "REPRO011",
    "incomplete_collective": "REPRO011",
    "byte_conservation": "REPRO013",
}


def _code(kind: str) -> str:
    """Diagnostic-code suffix of a verifier problem, e.g. `` [REPRO010]``."""
    return f" [{_CODES[kind]}]"

_TRACE_LEN = 64

# The per-rank trace ring holds event tuples ``(what, *fields)``; they
# become the documented strings only when somebody reads them
# (``VirtualCluster.rank_traces``) — which is when a run dies or a trace
# is exported, not once per message.
_TRACE_FORMATS = {
    "send": "send -> {} tag={} ({}B)",
    "recv": "recv <- {} tag={} ({}B)",
    "collective": "{} #{}",
    "crashed": "CRASHED at t={:.6g}",
}


class CommVerificationError(RuntimeError):
    """A communication invariant was violated.

    Raised at runtime (deadlock, collective-ordering mismatch) or at
    cluster finalize (unmatched sends, incomplete collectives, byte
    conservation).  ``problems`` is the structured list of findings;
    ``rank_traces`` maps rank -> most recent communication events.
    """

    def __init__(
        self,
        problems: str | list[str],
        rank_traces: dict[int, list[str]] | None = None,
    ):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        self.rank_traces = {r: list(t) for r, t in (rank_traces or {}).items()}
        lines = ["communication verification failed:"]
        lines.extend(f"  - {p}" for p in self.problems)
        if self.rank_traces:
            lines.append("per-rank trace (most recent events last):")
            for r in sorted(self.rank_traces):
                tail = ", ".join(self.rank_traces[r]) or "(no events)"
                lines.append(f"  rank {r}: {tail}")
        super().__init__("\n".join(lines))


class _InjectedCrash(BaseException):
    """Control-flow exception killing a rank per the fault plan.

    Deliberately a ``BaseException`` so application-level ``except
    Exception`` recovery code cannot resurrect a dead rank.  The worker
    loop absorbs it: an injected crash is part of the simulation, not a
    host error."""

    def __init__(self, rank: int, when: float):
        self.rank = rank
        self.when = when
        super().__init__(f"rank {rank} crashed at t={when:.6g}")


def payload_bytes(obj: Any) -> int:
    """Wire size of a message payload.

    Numpy arrays (including 0-d) and scalars are priced at their true
    ``nbytes``, and so is a ``memoryview`` (whose ``len()`` counts only
    its first axis); ``bool`` is one byte; python ints/floats are one
    8-byte word; sequences and dicts — homogeneous, mixed, or nested —
    are priced recursively element by element.  Anything else falls
    back to its pickled size.
    """
    if isinstance(obj, (np.ndarray, np.generic, memoryview)):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, bool):  # before int: bool subclasses int
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, complex):
        return 16
    if obj is None:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(payload_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(payload_bytes(k) + payload_bytes(v) for k, v in obj.items())
    return len(pickle.dumps(obj))


@dataclass
class _RankState:
    wall: float = 0.0
    cpu: float = 0.0
    sent_bytes: float = 0.0
    recv_bytes: float = 0.0
    messages: int = 0
    result: Any = None
    error: BaseException | None = None
    done: bool = False
    crashed: bool = False
    coll_kinds: list[str] = field(default_factory=list)
    trace: deque = field(default_factory=lambda: deque(maxlen=_TRACE_LEN))


@dataclass
class _Collective:
    """Rendezvous buffer for one collective call."""

    expected: int
    arrived: int = 0
    data: dict[int, Any] = field(default_factory=dict)
    # rank -> its arrival's share of the price (alltoall: max chunk size
    # and loss-draw row), so pricing never re-walks the payloads or
    # re-draws the losses of every rank (both O(P^2)).  Gone with it.
    sizes: dict[int, Any] = field(default_factory=dict)
    t_start: float = 0.0
    t_done: float = 0.0
    released: int = 0
    out: Any = None


class VirtualCluster:
    """A simulated machine: P ranks, one network model that prices every
    message and collective, and an optional CPU model for pricing
    compute."""

    def __init__(
        self,
        nprocs: int,
        network: NetworkModel,
        cpu: CPUModel | None = None,
        verify: bool = True,
        trace: obs.Trace | None = None,
        faults: FaultPlan | None = None,
        sanitize: bool = False,
        critpath: "CritPathRecorder | None" = None,
    ):
        if nprocs < 1:
            raise ValueError("need at least one rank")
        self.nprocs = nprocs
        self.network = network
        self.cpu = cpu
        self.verify = verify
        self.trace = trace
        self.faults = faults
        # Critical-path recorder (repro.obs.critpath): builds the priced
        # event graph from the run's event log once the ranks are done.
        # Sanitizing needs the graph, so it attaches one when the caller
        # passed none; the race check is a query on the graph at
        # finalize (``happens_before``, the last sanitized run's).
        self.sanitize = sanitize
        if sanitize and critpath is None:
            critpath = CritPathRecorder()
        self._critpath = critpath
        self.happens_before: HappensBefore | None = None
        # The last observed run's priced events (see "Observers" above).
        self.event_log: list[tuple] | None = None
        # Empty plan == no plan: every fault branch keys off this being
        # None, which is what makes the fault layer provably zero-cost.
        self._plan = None if faults is None or faults.is_empty else faults
        # The cooperative single-token scheduler owns all host
        # synchronisation: only the token holder touches the shared
        # state below, so none of it is locked.
        self._engine = EventEngine(self)
        self._mailbox: dict[tuple[int, int, int], deque] = {}
        self._collectives: dict[tuple[str, int], _Collective] = {}
        self._coll_seq: dict[str, int] = {}
        # Collective-ordering registry: entry i records (kind, rank) of
        # the first rank to enter its i-th collective, so the runtime
        # ordering check is O(1) per entry instead of an O(P) scan of
        # every rank's history.  Persistent across run() calls, like
        # coll_kinds/_coll_seq (cluster reuse accumulates history).
        self._coll_order: list[tuple[str, int]] = []
        # rank -> (description, predicate, has virtual timeout, failure
        # probe returning an exception to raise or None).
        self._waiting: dict[
            int,
            tuple[str, Callable[[], bool], bool, Callable[[], BaseException | None] | None],
        ] = {}
        self._timed_out: set[int] = set()
        self._crashed: dict[int, float] = {}  # rank -> virtual crash time
        self._deadlock: CommVerificationError | None = None
        # Fast-path flag: true once any rank recorded a host error this
        # run.  Lets the per-wait peer-failure probe skip its O(P) scan
        # of rank states in the overwhelmingly common no-error case.
        self._error_flag = False
        self.ranks = [_RankState() for _ in range(nprocs)]

    # -- verification -----------------------------------------------------------

    def rank_traces(self, ranks=None) -> dict[int, list[str]]:
        """Most recent communication events per rank, oldest first.

        Public, stable API shared by the finalize-time comm verifier
        (attached to :class:`CommVerificationError`) and the trace
        exporter (attached to each rank's thread metadata in the Chrome
        trace JSON).  Each rank keeps a bounded ring of the last
        ``_TRACE_LEN`` events, stored as tuples and formatted here, on
        read; the event strings are:

        * ``"send -> D tag=T (NB)"`` — point-to-point send to rank D,
          N payload bytes;
        * ``"recv <- S tag=T (NB)"`` — completed receive from rank S;
        * ``"KIND #SEQ"`` — collective entry (``barrier``,
          ``alltoall``, ``allreduce-OP``, ``bcast``, ``allgather``), with its per-kind sequence number;
        * ``"CRASHED at t=T"`` — the rank died per the fault plan at
          virtual time T;
        * ``"BLOCKED: DESC"`` — appended by the deadlock detector to
          each rank blocked at abort time.
        """
        ranks = range(self.nprocs) if ranks is None else ranks
        return {
            r: [
                _TRACE_FORMATS[what].format(*fields)
                for what, *fields in self.ranks[r].trace
            ]
            for r in ranks
        }

    def _check_deadlock(self) -> bool:
        """True iff every live rank is blocked on a condition that
        cannot become true.  Records the deadlock error."""
        if self._deadlock is not None:
            return True
        if self._error_flag:
            # A real error is propagating; peer-failure handling owns
            # the wakeup, and the root cause must win over "deadlock".
            return False
        if not self._crashed and len(self._waiting) < self._engine.unfinished:
            # Exact O(1) exit for the common finish-path call.  Fewer
            # wait entries than live ranks means some live rank is
            # computing, so the scan below would reach it and return
            # False; and with no crash registered this run no failure
            # probe can fire on the way there (both probes read only
            # ``_crashed``), so it would notify no one either.  Without
            # this, P ranks finishing one by one cost O(P^2) scans.
            return False
        active = [
            r
            for r, st in enumerate(self.ranks)
            if not st.done and st.error is None
        ]
        if not active:
            return False
        blocked = []
        timed = []
        for r in active:
            entry = self._waiting.get(r)
            if entry is None or entry[1]():
                return False  # computing, or its wait is satisfiable
            desc, _predicate, has_timeout, failure = entry
            if failure is not None and failure() is not None:
                # The rank will wake and raise a typed failure (e.g.
                # RankFailure for a crashed peer) — not a deadlock.
                self._engine.notify_rank(r)
                return False
            if has_timeout:
                timed.append(r)
            blocked.append((r, desc))
        if timed:
            # Nothing can progress, but some waits carry virtual
            # timeouts: expire those instead of declaring deadlock.
            self._timed_out.update(timed)
            for r in timed:
                self._engine.notify_rank(r)
            return False
        problems = [f"deadlock: every live rank is blocked{_code('deadlock')}"]
        problems.extend(f"rank {r} blocked in {desc}" for r, desc in blocked)
        traces = self.rank_traces([r for r, _ in blocked])
        for r, desc in blocked:
            traces[r] = traces.get(r, []) + [f"BLOCKED: {desc}"]
        self._deadlock = CommVerificationError(problems, traces)
        self._engine.notify_all()
        return True

    def _blocking_wait(
        self,
        rank: int,
        desc: str,
        predicate,
        timed: bool = False,
        failure: Callable[[], BaseException | None] | None = None,
    ) -> bool:
        """Wait until ``predicate()``.

        Aborts on peer failure or deadlock; raises the exception
        returned by ``failure()`` when it fires (crashed-peer probes).
        With ``timed=True`` the wait participates in stall detection as
        expirable: when every live rank is blocked and nothing can
        progress, timed waits return ``False`` (virtual timeout)
        instead of raising a deadlock.  Returns ``True`` when the
        predicate is satisfied.

        Waits are notification-driven: every state change that can
        satisfy a predicate (message enqueue, collective fill, rank
        completion, crash, timeout expiry) notifies the engine, so
        blocking host time is not quantised by a poll interval.  The
        mechanics live in the engine, which parks the rank's
        continuation and hands the run token on.
        """
        return self._engine.wait(rank, desc, predicate, timed, failure)

    def verify_communication(self) -> list[str]:
        """Finalize-time checks; raises :class:`CommVerificationError`.

        Called automatically by :meth:`run` (when ``verify=True``) after
        all ranks return cleanly; callable directly for manual runs.

        When the fault plan crashed ranks mid-run, the residue a crash
        necessarily leaves behind — messages a dead rank sent (or was
        sent) that were never received, collectives it never joined,
        the shorter collective history of ranks that aborted — is
        *crash-attributed*: reported in the returned list instead of
        raised as verifier findings.  Returns the (possibly empty) list
        of crash-attributed notes.
        """
        problems: list[str] = []
        attributed: list[str] = []
        crashed = set(self._crashed)
        undelivered = 0.0
        for (src, dst, tag), q in sorted(self._mailbox.items()):
            for _obj, _ready, nbytes, _row in q:
                undelivered += nbytes
                msg = (
                    f"rank {src} -> rank {dst} tag={tag} "
                    f"({nbytes} bytes) was never received"
                )
                if src in crashed or dst in crashed:
                    who = src if src in crashed else dst
                    attributed.append(
                        f"crash-attributed unmatched send: {msg} "
                        f"(rank {who} crashed at "
                        f"t={self._crashed[who]:.6g})"
                    )
                else:
                    problems.append(
                        f"unmatched send: {msg}{_code('unmatched_send')}"
                    )
        for (kind, seq), coll in sorted(self._collectives.items()):
            if coll.arrived < coll.expected:
                missing = sorted(set(range(self.nprocs)) - set(coll.data))
                msg = (
                    f"incomplete collective '{kind}' #{seq}: only "
                    f"{coll.arrived}/{coll.expected} ranks arrived "
                    f"(missing ranks {missing})"
                    f"{_code('incomplete_collective')}"
                )
                if crashed:
                    # A crash tears every in-flight collective: ranks
                    # die before arriving, survivors abort on the
                    # RankFailure before reaching later collectives.
                    attributed.append(f"crash-attributed {msg}")
                else:
                    problems.append(msg)
        ref = self.ranks[0].coll_kinds
        for r, st in enumerate(self.ranks[1:], start=1):
            # After a crash, crashed/aborted ranks legitimately ran a
            # prefix of the schedule; only a *conflicting* prefix is an
            # error.  Otherwise every rank ran the whole schedule.
            n = min(len(ref), len(st.coll_kinds)) if crashed else None
            if st.coll_kinds[:n] != ref[:n]:
                problems.append(
                    f"collective ordering mismatch: rank 0 ran {ref} "
                    f"but rank {r} ran {st.coll_kinds}"
                    f"{_code('collective_order')}"
                )
                break
        sent = sum(st.sent_bytes for st in self.ranks)
        recvd = sum(st.recv_bytes for st in self.ranks)
        if crashed:
            # Byte conservation modulo undelivered crash residue.  The
            # ledger counts each message's logical bytes exactly once
            # (retransmitted copies are priced but never re-counted),
            # so sent minus what is still sitting in mailboxes must
            # equal what was received.
            if sent - undelivered != recvd:
                problems.append(
                    f"byte conservation violated after crash accounting: "
                    f"{sent:.0f} sent - {undelivered:.0f} undelivered != "
                    f"{recvd:.0f} received{_code('byte_conservation')}"
                )
        elif sent != recvd:
            per_rank = ", ".join(
                f"rank {r}: {st.sent_bytes:.0f} out / {st.recv_bytes:.0f} in"
                for r, st in enumerate(self.ranks)
            )
            problems.append(
                f"byte conservation violated: {sent:.0f} bytes sent vs "
                f"{recvd:.0f} bytes received cluster-wide ({per_rank})"
                f"{_code('byte_conservation')}"
            )
        if problems:
            raise CommVerificationError(problems, self.rank_traces())
        return attributed

    # -- execution ----------------------------------------------------------------

    def run(self, fn: Callable[["VirtualComm"], Any], *args, **kwargs) -> list[Any]:
        """Run ``fn(comm, *args)`` on every rank; returns per-rank results."""
        cp = self._critpath
        if cp is not None and self._mailbox:
            raise CommVerificationError(
                [
                    f"rank {src} -> rank {dst} tag={tag} ({nbytes} bytes) was "
                    f"sent by an earlier run, whose send a recorded run cannot "
                    f"replay{_code('unmatched_send')}"
                    for (src, dst, tag), q in sorted(self._mailbox.items())
                    for _obj, _ready, nbytes, _row in q
                ],
                self.rank_traces(),
            )
        for st in self.ranks:
            st.done = False
            st.error = None
            st.crashed = False
        self._waiting.clear()
        self._timed_out.clear()
        self._crashed.clear()
        self._deadlock = None
        self._error_flag = False
        self.happens_before = None
        # A fresh log per run, kept only when an observer will read it.
        log: list[tuple] = []
        self.event_log = None if self.trace is None and cp is None else log
        if cp is not None:
            # Fresh event graph per run, anchored at the ranks' current
            # clocks (a reused cluster does not restart at zero).
            cp.on_run_begin(self)
        comms = [VirtualComm(self, r) for r in range(self.nprocs)]

        def body(comm: "VirtualComm") -> None:
            st = self.ranks[comm.rank]
            trace = self.trace
            tracer = None if trace is None else trace.rank_tracer(comm.rank, lambda: st.wall)
            try:
                with obs.install(tracer):
                    st.result = fn(comm, *args, **kwargs)
            except _InjectedCrash:
                # Simulated death per the fault plan: not a host
                # error.  Peers observe it as RankFailure; the
                # result slot stays None.
                pass
            except BaseException as exc:  # propagate to caller
                st.error = exc
                self._error_flag = True

        try:
            self._engine.run_ranks(comms, body)
        finally:  # also when the scheduler aborts, the timeline shows it
            if self.trace is not None:
                spans_from_log(self.trace, log)
        if cp is not None:
            # Replays the log into the graph and closes every rank's
            # final compute segment (crashed ranks at their crash clocks).
            cp.on_run_finish(self)
        if self.sanitize:
            # Derived also when a rank raised, so its clocks stay inspectable.
            self.happens_before = happens_before(cp.graph, cp.accesses)
        # Host-scheduler statistics as obs signals (no-ops when no registry
        # is active): deterministic host-side counts, never virtual clocks.
        for _skey, _sval in sorted(self._engine.stats().items()):
            metrics.set_gauge(_skey, _sval)
        if self.trace is not None:
            self.trace.annotate("cluster.engine_stats", self._engine.stats())
        errors = [st.error for st in self.ranks if st.error is not None]
        if errors:
            # Prefer the root cause over secondary peer-failure aborts.
            roots = [e for e in errors if not isinstance(e, _PeerFailure)]
            raise roots[0] if roots else errors[0]
        if self.happens_before is not None:
            clocks, _accesses, races = self.happens_before
            metrics.inc("sanitize.races", len(races))
            if self.trace is not None:
                self.trace.annotate(
                    "sanitize.vector_clocks",
                    {r: list(vc) for r, vc in clocks.items()},
                )
                self.trace.annotate("sanitize.races", len(races))
            if races:
                raise DeterminismError(races)
        if self.verify:
            self.verify_communication()
        return [st.result for st in self.ranks]

    def engine_stats(self) -> dict[str, float]:
        """Host-scheduler statistics of the most recent :meth:`run`.

        ``scheduler.switches`` counts token hand-offs,
        ``scheduler.wakeups`` ranks readied and
        ``scheduler.ready_depth_max`` the deepest ready deque.  All
        values are deterministic host-side quantities — they never
        touch the virtual clocks.
        """
        return self._engine.stats()

    @property
    def max_wall(self) -> float:
        return max(st.wall for st in self.ranks)

    @property
    def max_cpu(self) -> float:
        return max(st.cpu for st in self.ranks)


class VirtualComm:
    """Per-rank communicator handle (the MPI_COMM_WORLD analogue)."""

    def __init__(self, cluster: VirtualCluster, rank: int):
        self.cluster = cluster
        self.rank = rank
        self._st = cluster.ranks[rank]
        plan = cluster._plan
        self._send_seq = 0  # per-rank message counter (loss-draw index)
        self._a2a_seq = 0  # per-rank alltoall counter (collective loss draws)
        self._step = 0
        self._straggle = 1.0 if plan is None else plan.straggler_factor(rank)
        self._crash_spec: CrashSpec | None = (
            None if plan is None else plan.crash_for(rank)
        )
        self._declared: list[Any] = []  # kept for the run: no id is reused

    # -- clock ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.cluster.nprocs

    @property
    def wall(self) -> float:
        """Virtual MPI_Wtime of this rank."""
        return self._st.wall

    @property
    def cpu_time(self) -> float:
        """Virtual clock() of this rank."""
        return self._st.cpu

    def compute(self, seconds: float) -> None:
        """Charge `seconds` of pure computation.

        A straggling rank (fault plan) pays proportionally more on both
        clocks; a rank whose crash time falls inside the interval
        consumes the partial compute and then dies.
        """
        if seconds < 0:
            raise ValueError("negative compute time")
        if self.cluster._plan is not None:
            seconds = seconds * self._straggle
            c = self._crash_spec
            if c is not None and c.at_time is not None:
                if self._st.wall >= c.at_time:
                    self._do_crash()
                if self._st.wall + seconds >= c.at_time:
                    part = c.at_time - self._st.wall
                    self._st.wall += part
                    self._st.cpu += part
                    self._do_crash()
        self._st.wall += seconds
        self._st.cpu += seconds

    def compute_flops(self, flops: float) -> None:
        """Charge computation priced by the cluster's CPU model."""
        if self.cluster.cpu is None:
            raise RuntimeError("cluster has no CPU model")
        self.compute(self.cluster.cpu.app_time(flops))

    # -- fault plumbing -----------------------------------------------------------

    def mark_step(self, step: int | None = None) -> int:
        """Announce the start of application timestep ``step``.

        Solvers call this once per timestep so a
        :class:`~repro.parallel.faults.CrashSpec` with ``at_step`` can
        fire at a step boundary.  ``step`` defaults to an internal
        counter; returns the step index announced.  No-op without a
        fault plan.
        """
        if step is None:
            step = self._step
        self._step = step + 1
        c = self._crash_spec
        if c is not None:
            self._maybe_crash()
            if c.at_step is not None and step >= c.at_step:
                self._do_crash()
        return step

    # -- sanitizer ------------------------------------------------------------------

    def _declare(self, op: str, obj: Any, label: str | None = None) -> Any:
        """``shared_read(obj, label=None)`` / ``shared_write(...)``: declare
        a read or a write of an object other ranks may also touch.

        Returns ``obj`` unchanged.  A no-op (zero virtual cost) unless
        the cluster runs with ``sanitize=True``, in which case the
        access joins the race check: a cross-rank write to the same
        object that the run's event graph does not order against the
        access is reported as a data race at finalize.
        """
        cl = self.cluster
        if cl.sanitize:
            frame = sys._getframe(1)  # the caller: a partial adds no frame
            self._declared.append(obj)
            key = id(obj)
            cl.event_log.append((
                "access", self.rank, op, label or f"{type(obj).__name__}@0x{key:x}",
                f"{frame.f_code.co_filename}:{frame.f_lineno}", key,
            ))
        return obj

    # The race sanitizer's user API (see :meth:`_declare`).
    shared_read = partialmethod(_declare, "read")
    shared_write = partialmethod(_declare, "write")

    def _maybe_crash(self) -> None:
        """Die if this rank's wall clock has reached its crash time."""
        c = self._crash_spec
        if c is not None and c.at_time is not None and self._st.wall >= c.at_time:
            self._do_crash()

    def _do_crash(self) -> None:
        cl = self.cluster
        self._st.crashed = True
        cl._crashed[self.rank] = self._st.wall
        self._st.trace.append(("crashed", self._st.wall))
        if cl.event_log is not None:
            cl.event_log.append(("crash", self.rank, self._st.wall))
        # Broadcast: any rank blocked on the dead rank must wake to
        # observe the failure through its probe.
        cl._engine.notify_all()
        metrics.inc("faults.crashes")
        raise _InjectedCrash(self.rank, self._st.wall)

    def _check_peer_alive(self, peer: int) -> None:
        """Raise :class:`RankFailure` if ``peer`` has crashed."""
        cl = self.cluster
        if cl._plan is None:
            return
        when = cl._crashed.get(peer)
        if when is not None:
            raise RankFailure(peer, when)

    # -- point-to-point ------------------------------------------------------------

    def _check_rank(self, peer: int, what: str) -> None:
        """Eager argument validation: fail fast with the offending rank
        instead of hanging until the deadlock detector fires (or, for a
        collective root, answering wrongly on every rank)."""
        if not isinstance(peer, (int, np.integer)) or isinstance(peer, bool):
            raise ValueError(
                f"rank {self.rank}: {what} must be an integer rank, "
                f"got {peer!r}"
            )
        if not 0 <= peer < self.size:
            raise ValueError(
                f"rank {self.rank}: {what} {peer} out of range "
                f"(valid ranks: 0..{self.size - 1})"
            )

    def _check_endpoint(self, peer: int, tag: int, what: str) -> None:
        if (
            type(peer) is int
            and type(tag) is int
            and 0 <= peer < self.cluster.nprocs
            and peer != self.rank
            and tag >= 0
        ):
            return  # what every send/recv of a correct program passes
        self._check_rank(peer, what)
        if peer == self.rank:
            raise ValueError(
                f"rank {self.rank}: {what} {peer} is this rank itself"
            )
        if not isinstance(tag, (int, np.integer)) or isinstance(tag, bool) or tag < 0:
            raise ValueError(
                f"rank {self.rank}: invalid tag {tag!r} "
                f"(tags must be integers >= 0)"
            )

    def send(self, dest: int, obj: Any, tag: int = 0) -> None:
        self._check_endpoint(dest, tag, "destination")
        cl = self.cluster
        plan = cl._plan
        if plan is not None:
            self._maybe_crash()
            self._check_peer_alive(dest)
        net = cl.network
        nbytes = payload_bytes(obj)
        t_start = self._st.wall
        seq = self._send_seq
        self._send_seq = seq + 1
        if plan is None:
            factor, nret, delay = 1.0, 0, 0.0
        else:
            factor = plan.link_factor(self.rank, dest)
            lossy = plan.loss_applies(net)
            nret = plan.retransmits(self.rank, dest, tag, seq) if lossy else 0
            delay = plan.retransmit_delay(nret)
        # Sender occupies the wire (store-and-forward into the NIC) and
        # pays the protocol stack's CPU cost.  A healthy link adds
        # ``0.0`` and multiplies by ``1.0``, both exact, so the clocks
        # without a fault plan are bit-for-bit the plain Hockney price.
        wire = factor * (nbytes / net.bandwidth)
        ready = t_start + delay + factor * net.send_time(nbytes)
        self._st.wall += wire
        overhead = net.cpu_time_for_bytes(nbytes)
        self._st.wall += overhead
        self._st.cpu += overhead
        resend_cpu = 0.0
        if nret:
            # TCP retransmit pricing: the blocked sender sits through
            # the RTO backoff and re-occupies the wire for each resend
            # (wall); the kernel's extra copies and checksums burn CPU
            # via cpu_overhead_per_byte.
            resend_cpu = net.cpu_time_for_bytes(nret * nbytes)
            self._st.wall += delay + nret * wire + resend_cpu
            self._st.cpu += resend_cpu
            metrics.inc("faults.retransmits", nret)
            metrics.inc("faults.retransmitted_bytes", nret * nbytes)
        # Ledger counts each message's logical bytes exactly once;
        # retransmitted copies are priced above but never re-counted,
        # so byte conservation holds under any loss rate.
        self._st.sent_bytes += nbytes
        self._st.messages += 1
        log = cl.event_log
        row = None
        if log is not None:
            row = len(log)
            log.append((
                "send", self.rank, current_stage(), dest, tag, nbytes, t_start,
                ready, wire, overhead, nret, delay, factor, resend_cpu, self._st.wall,
            ))
        self._st.trace.append(("send", dest, tag, nbytes))
        key = (self.rank, dest, tag)
        cl._mailbox.setdefault(key, deque()).append((obj, ready, nbytes, row))
        # Targeted wakeup: only the receiver's wait can be
        # satisfied by this enqueue.
        cl._engine.notify_rank(dest)
        metrics.observe("comm.message_bytes", nbytes)
        metrics.inc("comm.sends")
        metrics.inc("comm.bytes_sent", nbytes)

    def recv(
        self,
        source: int,
        tag: int = 0,
        *,
        timeout: float | None = None,
        retries: int = 0,
    ) -> Any:
        """Blocking receive, with an optional virtual-timeout API.

        With ``timeout`` set, each attempt waits at most that many
        virtual seconds for a message from ``source``; an expired
        attempt charges the timeout to the wall clock (plus the
        network's busy-wait CPU fraction) and retries up to ``retries``
        times, doubling the timeout each retry,
        before raising :class:`~repro.parallel.faults.RecvTimeout`.
        Without ``timeout`` the behaviour (and pricing) is exactly the
        classic blocking receive.

        If ``source`` crashed, pending messages it sent still deliver;
        once the mailbox is drained the receive raises
        :class:`~repro.parallel.faults.RankFailure`.
        """
        self._check_endpoint(source, tag, "source")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"rank {self.rank}: timeout must be positive")
        if retries < 0:
            raise ValueError(f"rank {self.rank}: retries must be >= 0")
        cl = self.cluster
        plan = cl._plan
        if plan is not None:
            self._maybe_crash()
        key = (source, self.rank, tag)
        log = cl.event_log
        t_entry = self._st.wall
        attempts = 0
        cur_timeout = timeout
        while True:
            # A message that is already there is taken without a wait
            # entry — unless the run is being unwound: an aborted run
            # stops at its next wait, satisfiable or not.
            queue = cl._mailbox.get(key)
            if (queue and cl._engine._abort is None) or self._await_message(
                source, tag, timed=timeout is not None
            ):
                queue = cl._mailbox[key]
                obj, ready, nbytes, send_row = queue[0]
                if cur_timeout is None or ready <= self._st.wall + cur_timeout:
                    queue.popleft()
                    if not queue:
                        del cl._mailbox[key]
                    self._st.trace.append(("recv", source, tag, nbytes))
                    break
                # A message exists but completes after the virtual
                # deadline: this attempt times out; the message
                # stays queued for a later attempt.
            # Virtual timeout: burn the deadline on the wall clock.
            assert cur_timeout is not None
            t0 = self._st.wall
            self._st.wall += cur_timeout
            self._st.cpu += cl.network.busy_wait_fraction * cur_timeout
            attempts += 1
            if log is not None:
                log.append(("timeout", self.rank, source, tag, t0, cur_timeout, attempts))
            metrics.inc("faults.recv_timeouts")
            if attempts > retries:
                raise RecvTimeout(
                    source, tag, self._st.wall - t_entry, attempts
                )
            cur_timeout = cur_timeout * 2.0
        net = cl.network
        overhead = net.cpu_time_for_bytes(nbytes)
        t_busy_end = self._st.wall  # receiver's clock before blocking binds
        waited = max(0.0, ready - self._st.wall)
        self._st.wall = max(self._st.wall, ready) + overhead
        # Busy-polling MPI stacks burn CPU while waiting (the paper's
        # near-equal CPU/wall columns on vendor MPIs and GM).
        self._st.cpu += overhead + net.busy_wait_fraction * waited
        self._st.recv_bytes += nbytes
        if log is not None:
            log.append((
                "recv", self.rank, current_stage(), source, tag, nbytes, t_entry,
                t_busy_end, self._st.wall, overhead, waited,
                net.busy_wait_fraction, send_row,
            ))
        metrics.inc("comm.recvs")
        metrics.inc("comm.bytes_recv", nbytes)
        return obj

    def _await_message(self, source: int, tag: int, timed: bool) -> bool:
        """Park until ``source``'s next message with ``tag`` is in the
        mailbox; ``False`` if a virtual timeout expired first."""
        cl = self.cluster
        key = (source, self.rank, tag)

        def crash_probe():
            if cl._plan is None:
                return None
            when = cl._crashed.get(source)
            if when is not None and not cl._mailbox.get(key):
                return RankFailure(source, when)
            return None

        return cl._blocking_wait(
            self.rank,
            f"recv(source={source}, tag={tag})",
            lambda: bool(cl._mailbox.get(key)),
            timed=timed,
            failure=crash_probe,
        )

    # -- collectives -----------------------------------------------------------------

    def _collective(
        self, kind: str, contribution: Any, combine, nbytes=0, price=None,
        entry_size=None,
    ):
        """Generic synchronising collective.

        combine(all_data) -> per-rank output (called once).  The last
        rank to arrive prices the rendezvous from the network's
        ``collective_time(kind, P, nbytes)`` table; ``nbytes`` may be a
        function of the gathered data (``bcast``: only the root knows
        the payload).  On an observed run the duration splits into
        ``latency`` (the zero-byte evaluation) and ``bandwidth`` (the
        rest), for the event log.

        A collective with surcharges of its own passes
        ``price(t_start, sizes, split) -> (t_done, (components, meta)
        or None)`` instead, where ``sizes`` maps rank -> the
        ``entry_size`` summary it passed and the decomposition (which
        must sum to ``t_done - t_start``) is wanted only if ``split``.
        """
        cl = self.cluster
        if cl._plan is not None:
            self._maybe_crash()
        t_entry = self._st.wall
        if cl.verify:
            # My n-th collective must be the same kind as every
            # other rank's n-th collective (MPI collective-ordering
            # rule).  The registry records (kind, rank) of the
            # first rank to enter each global collective slot, so
            # the check is O(1) per entry instead of scanning all
            # P rank histories.
            idx = len(self._st.coll_kinds)
            if idx < len(cl._coll_order):
                okind, orank = cl._coll_order[idx]
                if okind != kind:
                    traces = cl.rank_traces([self.rank, orank])
                    raise CommVerificationError(
                        [
                            f"collective ordering mismatch: rank "
                            f"{self.rank} enters '{kind}' as its "
                            f"collective #{idx} but rank {orank} ran "
                            f"'{okind}' there"
                            f"{_code('collective_order')}"
                        ],
                        traces,
                    )
            else:
                cl._coll_order.append((kind, self.rank))
        self._st.coll_kinds.append(kind)
        seq = cl._coll_seq.get(kind, 0)
        key = (kind, seq)
        coll = cl._collectives.get(key)
        if coll is None or coll.arrived == coll.expected:
            # Start a new instance (previous one full => next round).
            if coll is not None and coll.arrived == coll.expected:
                seq += 1
                cl._coll_seq[kind] = seq
                key = (kind, seq)
            coll = cl._collectives.setdefault(key, _Collective(expected=self.size))
        self._st.trace.append(("collective", kind, seq))
        coll.data[self.rank] = contribution
        if entry_size is not None:
            coll.sizes[self.rank] = entry_size
        coll.arrived += 1
        coll.t_start = max(coll.t_start, self._st.wall)
        log = cl.event_log
        if log is not None:
            log.append(("arrive", self.rank, current_stage(), kind, seq, t_entry))
        if coll.arrived == coll.expected:
            if price is not None:
                coll.t_done, split = price(coll.t_start, coll.sizes, log is not None)
            else:
                net = cl.network
                if callable(nbytes):
                    nbytes = nbytes(coll.data)
                total = net.collective_time(kind, self.size, nbytes)
                coll.t_done = coll.t_start + total
                if log is not None:
                    lat = net.collective_time(kind, self.size, 0)
                    split = (
                        {"latency": lat, "bandwidth": total - lat},
                        {"kind": kind, "n": self.size, "nbytes": nbytes},
                    )
            coll.out = combine(coll.data)
            cl._coll_seq[kind] = seq + 1
            if log is not None:
                log.append(("complete", kind, seq, coll.t_start, coll.t_done, *split))
            # Everyone parked at this rendezvous is now releasable.
            cl._engine.notify_all()
        else:

            def crash_probe():
                # A collective can never complete once a rank that
                # has not yet contributed is dead.
                if cl._plan is None:
                    return None
                # sorted(): which dead rank gets reported must not
                # depend on crash-registration order.
                for dead, when in sorted(cl._crashed.items()):
                    if dead not in coll.data:
                        return RankFailure(dead, when)
                return None

            cl._blocking_wait(
                self.rank,
                f"collective '{kind}' #{seq}",
                lambda: coll.arrived >= coll.expected,
                failure=crash_probe,
            )
        coll.released += 1
        out, t_done = coll.out, coll.t_done
        t_sync = coll.t_start  # final: all ranks have arrived
        if coll.released == coll.expected:
            del cl._collectives[(key[0], key[1])]
        waited = max(0.0, t_done - self._st.wall)
        self._st.wall = t_done
        bwf = cl.network.busy_wait_fraction
        self._st.cpu += bwf * waited
        if log is not None:
            log.append(("release", self.rank, kind, seq, t_entry, t_sync, t_done, waited, bwf))
        metrics.inc("comm.collectives")
        metrics.inc(f"comm.collective.{kind}")
        return out

    def barrier(self) -> None:
        self._collective("barrier", None, lambda data: None, nbytes=8)

    def alltoall(self, chunks: list[Any]) -> list[Any]:
        """chunks[d] goes to rank d; returns what every rank sent to us."""
        if len(chunks) != self.size:
            raise ValueError("alltoall needs one chunk per rank")
        cl = self.cluster
        net = cl.network
        me = self.rank
        # Type dispatch, not a second path: for exact ndarrays
        # ``payload_bytes`` *is* ``.nbytes``, read here without a
        # Python-level call per chunk.
        if set(map(type, chunks)) <= {np.ndarray}:
            nbytes = max(map(attrgetter("nbytes"), chunks))
        else:
            nbytes = max(map(payload_bytes, chunks))
        # P-1 peers each cost a send-side and a receive-side pass
        # through the protocol stack; a single rank still pays the MPI
        # self-copy (mirroring NetworkModel.alltoall_time's pricing).
        copied = 2.0 * nbytes * (self.size - 1) if self.size > 1 else float(nbytes)
        overhead = net.cpu_time_for_bytes(copied)
        self._st.cpu += overhead
        self._st.sent_bytes += nbytes * (self.size - 1)
        self._st.recv_bytes += nbytes * (self.size - 1)
        self._st.messages += self.size - 1
        metrics.observe("comm.message_bytes", nbytes)
        metrics.inc("comm.bytes_sent", nbytes * (self.size - 1))
        metrics.inc("comm.bytes_recv", nbytes * (self.size - 1))

        plan = cl._plan
        stretch = 1.0
        seq_f = 0
        lossy = False
        if plan is not None:
            # Per-rank alltoall counter; the collective-ordering rule
            # keeps it equal across ranks, so every rank derives the
            # same deterministic loss draws for this instance.
            seq_f = self._a2a_seq
            self._a2a_seq = seq_f + 1
            if plan.degraded_links and self.size > 1:
                # The pairwise-exchange rounds are gated by the slowest
                # link in the fabric (O(|degraded_links|), not O(P^2)).
                stretch = plan.max_link_factor(self.size)
            lossy = plan.loss_applies(net) and self.size > 1

        resends: list[int] = []
        if lossy:
            # This rank's row of loss draws, made once: its own lost
            # segments cost kernel resend copies (CPU) here, and the
            # row goes to the rendezvous with the chunk size, where the
            # last arriver prices the shared completion delay from the
            # P rows — one draw per (source, dest) pair per instance.
            resends = plan.collective_row("alltoall", seq_f, me, self.size)
            mine = sum(resends)
            if mine:
                self._st.cpu += net.cpu_time_for_bytes(mine * nbytes)
                metrics.inc("faults.retransmits", mine)
                metrics.inc("faults.retransmitted_bytes", mine * nbytes)

        def price(t0, sizes, split):
            # ``sizes`` carries each rank's (max chunk size, loss row),
            # recorded at arrival — the global max is O(P) here instead
            # of an O(P^2) re-walk of every chunk of every rank.
            m = max((size for size, _ in sizes.values()), default=0)
            base = stretch * net.alltoall_time(self.size, m)
            t_done = t0 + base + overhead
            if lossy:
                # The synchronising exchange finishes when the slowest
                # sender clears its serialised rounds: max over sources
                # of summed RTO backoff plus resend wire occupancy.
                # Computed from the shared max chunk size so every rank
                # would price the same completion time.
                wire = m / net.bandwidth

                def surcharge(rets):
                    return sum(plan.retransmit_delay(nr) + nr * wire for nr in rets)

                # Rows in source order: ties go to the lowest source.
                slowest = max(
                    (sizes[s][1] for s in range(self.size)), key=surcharge
                )
                loss = surcharge(slowest)
                t_done += loss
            if not split:
                return t_done, None
            # Latency from a zero-byte evaluation (rounds x latency,
            # stretch included), the rest of the base cost is wire
            # occupancy, plus protocol overhead and the loss surcharge
            # split into RTO idle vs resend wire.
            lat = stretch * net.alltoall_time(self.size, 0)
            comps = {"latency": lat, "bandwidth": base - lat, "overhead": overhead}
            meta = {
                "kind": "alltoall",
                "n": self.size,
                "nbytes": m,
                "stretch": stretch,
                "obytes": copied,
            }
            if lossy:
                rto = sum(plan.retransmit_delay(nr) for nr in slowest)
                comps["idle"] = rto
                comps["bandwidth"] += loss - rto
                meta["ebytes"] = sum(slowest) * m
            return t_done, (comps, meta)

        # The P x P transpose is one ``zip``: row r of the result holds
        # chunk r of every source, in source order.
        out = self._collective(
            "alltoall",
            chunks,
            lambda data: list(map(list, zip(*[data[s] for s in range(self.size)]))),
            price=price,
            entry_size=(nbytes, resends),
        )
        return out[me]

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        def combine(data):
            vals = [data[r] for r in sorted(data)]
            if op == "sum":
                out = vals[0]
                if isinstance(out, np.ndarray):
                    out = out.copy()
                for v in vals[1:]:
                    out = out + v
                return out
            if op == "max":
                return max(vals) if not isinstance(vals[0], np.ndarray) else np.maximum.reduce(vals)
            if op == "min":
                return min(vals) if not isinstance(vals[0], np.ndarray) else np.minimum.reduce(vals)
            raise ValueError(f"unknown op {op!r}")

        return self._collective(
            f"allreduce-{op}", value, combine, nbytes=payload_bytes(value)
        )

    def bcast(self, value: Any, root: int = 0) -> Any:
        self._check_rank(root, "root")
        return self._collective(
            "bcast",
            value if self.rank == root else None,
            lambda data: data[root],
            nbytes=lambda data: payload_bytes(data[root]),
        )

    def allgather(self, value: Any) -> list[Any]:
        return self._collective(
            "allgather",
            value,
            lambda data: [data[r] for r in sorted(data)],
            nbytes=payload_bytes(value),
        )
