"""``VirtualCluster._check_deadlock``: the O(1) exit is exact, and it
is what keeps the finish path linear in the rank count.

The full scan the classifier ran before it had an early exit is frozen
below as the oracle.  Over generated cluster states the two must
return the same value, ready the same ranks in the same order, expire
the same timed waits and record the same deadlock report.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machines.network import NetworkModel
from repro.parallel import scheduler
from repro.parallel.faults import RankFailure
from repro.parallel.simmpi import CommVerificationError, VirtualCluster, _code

NET = NetworkModel("classifier-net", latency_us=10, bandwidth=100e6)


def _full_scan(self) -> bool:
    """The classifier as it was before the O(1) exit, verbatim."""
    if self._deadlock is not None:
        return True
    if self._error_flag:
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
            return False
        desc, _predicate, has_timeout, failure = entry
        if failure is not None and failure() is not None:
            self._engine.notify_rank(r)
            return False
        if has_timeout:
            timed.append(r)
        blocked.append((r, desc))
    if timed:
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


# What one rank is doing when the classifier runs.  "new" and "running"
# ranks are live without a wait entry (computing); a "notified" rank is
# still inside its wait but already back in the ready deque; a "probe"
# wait watches a peer through a failure probe that, like both probes in
# simmpi, reads only ``_crashed``.
_KINDS = ("done", "crashed", "new", "running", "satisfiable", "notified",
          "blocked", "timed", "probe")

states = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(_KINDS), st.integers(0, 10**6)),
        min_size=1, max_size=10,
    ),
    st.booleans(),  # _error_flag
)


def _plant(kinds, error_flag):
    """A cluster frozen mid-run in the generated state."""
    n = len(kinds)
    cl = VirtualCluster(n, NET)
    eng = cl._engine
    eng._conts = [scheduler._Continuation() for _ in range(n)]
    cl._error_flag = error_flag
    for r, (kind, seed) in enumerate(kinds):
        cont, rank_state = eng._conts[r], cl.ranks[r]
        rank_state.trace.append(("send", seed % n, 0, 8))
        if kind in ("done", "crashed"):
            rank_state.done = True
            cont.state = scheduler._DONE
            eng._ndone += 1
            if kind == "crashed":
                rank_state.crashed = True
                cl._crashed[r] = 1e-6 * (r + 1)
            continue
        if kind in ("new", "running"):
            cont.state = scheduler._NEW if kind == "new" else scheduler._RUNNING
            continue
        cont.state = scheduler._READY if kind == "notified" else scheduler._BLOCKED
        peer = seed % n

        def probe(peer=peer):
            when = cl._crashed.get(peer)
            return None if when is None else RankFailure(peer, when)

        cl._waiting[r] = (
            f"recv(source={peer}, tag={r})",
            (lambda: True) if kind in ("satisfiable", "notified") else (lambda: False),
            kind == "timed",
            probe if kind == "probe" else None,
        )
        if kind == "notified":
            eng._ready.append(r)
    return cl


def _observe(cl, classify):
    verdict = classify(cl)
    eng = cl._engine
    return {
        "verdict": verdict,
        "ready": list(eng._ready),
        "wakeups": eng._wakeups,
        "states": [c.state for c in eng._conts],
        "timed_out": sorted(cl._timed_out),
        "deadlock": None
        if cl._deadlock is None
        else (str(cl._deadlock), cl._deadlock.rank_traces),
    }


@settings(max_examples=300, deadline=None)
@given(states)
def test_early_exit_agrees_with_the_full_scan(case):
    kinds, error_flag = case
    want = _observe(_plant(kinds, error_flag), _full_scan)
    got = _observe(_plant(kinds, error_flag), VirtualCluster._check_deadlock)
    assert got == want


class _CountingList(list):
    """``cluster.ranks`` with every ``_RankState`` handed out counted."""

    reads = 0

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_finish_path_of_a_one_round_ring_reads_rank_states_linearly():
    """Rank 0 parks; ranks 1..P-1 then finish one after another, each
    with rank 0 still waiting.  A classifier that scans all P rank
    states on every finish reads P(P-1) of them — 261 632 here."""
    nprocs = 512

    def rank_fn(comm):
        comm.send((comm.rank + 1) % comm.size, np.zeros(1))
        comm.recv((comm.rank - 1) % comm.size)

    cluster = VirtualCluster(nprocs, NET)
    cluster.ranks = _CountingList(cluster.ranks)
    cluster.run(rank_fn)
    assert len(cluster._engine._threads) == 2
    assert 0 < cluster.ranks.reads < 20 * nprocs
