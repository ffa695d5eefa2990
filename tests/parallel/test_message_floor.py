"""What a message no longer pays for must still be there when asked for.

The per-message floor of ``send``/``recv``/``_collective`` was cut by
deferring work nobody reads on a healthy run: the trace ring stores
tuples and ``rank_traces()`` formats them, endpoints that are plainly
valid skip the validating path, and a ``recv`` whose message is already
in the mailbox takes it without registering a wait.  Every expected
string below was printed by the commit before that change, on these
programs.
"""

import numpy as np
import pytest

from repro.machines.network import NetworkModel
from repro.obs import Trace
from repro.obs.export import to_chrome_trace
from repro.parallel.faults import CrashSpec, FaultPlan, RankFailure
from repro.parallel.scheduler import _PeerFailure
from repro.parallel.simmpi import CommVerificationError, VirtualCluster

NET = NetworkModel("floor-net", latency_us=10, bandwidth=100e6)


# -- the trace ring: tuples in, the documented strings out ---------------


def _every_event_kind(comm):
    right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
    comm.send(right, np.zeros(3), tag=5)
    comm.recv(left, tag=5)
    comm.barrier()
    comm.allreduce(1.0)
    comm.alltoall([b"ab"] * comm.size)
    comm.bcast(comm.rank, root=1)
    comm.allgather(2)
    comm.allreduce(1.0, op="max")
    comm.barrier()


def _ring_trace(rank, size=3):
    return [
        f"send -> {(rank + 1) % size} tag=5 (24B)",
        f"recv <- {(rank - 1) % size} tag=5 (24B)",
        "barrier #0",
        "allreduce-sum #0",
        "alltoall #0",
        "bcast #0",
        "allgather #0",
        "allreduce-max #0",
        "barrier #1",
    ]


def test_rank_traces_formats_the_documented_strings_on_read():
    trace = Trace()
    cluster = VirtualCluster(3, NET, trace=trace)
    cluster.run(_every_event_kind)
    assert cluster.rank_traces() == {r: _ring_trace(r) for r in range(3)}
    # Formatting does not consume the ring, and a caller's edits to the
    # returned lists never reach it.
    cluster.rank_traces()[0].append("tampered")
    assert cluster.rank_traces([0]) == {0: _ring_trace(0)}
    doc = to_chrome_trace(trace, cluster.rank_traces([0, 2]))
    recent = {
        e["tid"]: e["args"].get("recent_comm_events")
        for e in doc["traceEvents"]
        if e.get("name") == "thread_name"
    }
    assert recent == {0: _ring_trace(0), 1: None, 2: _ring_trace(2)}


def test_deadlock_report_appends_blocked_lines_to_the_formatted_ring():
    def deadlocked(comm):
        if comm.rank == 0:
            comm.send(1, 7, tag=2)
        comm.barrier()
        comm.recv((comm.rank + 1) % comm.size, tag=9)

    with pytest.raises(CommVerificationError) as exc:
        VirtualCluster(3, NET).run(deadlocked)
    assert exc.value.rank_traces == {
        0: ["send -> 1 tag=2 (8B)", "barrier #0", "BLOCKED: recv(source=1, tag=9)"],
        1: ["barrier #0", "BLOCKED: recv(source=2, tag=9)"],
        2: ["barrier #0", "BLOCKED: recv(source=0, tag=9)"],
    }
    assert str(exc.value).endswith(
        "per-rank trace (most recent events last):\n"
        "  rank 0: send -> 1 tag=2 (8B), barrier #0, BLOCKED: recv(source=1, tag=9)\n"
        "  rank 1: barrier #0, BLOCKED: recv(source=2, tag=9)\n"
        "  rank 2: barrier #0, BLOCKED: recv(source=0, tag=9)"
    )


def test_crashed_rank_keeps_its_crash_line():
    def crashing(comm):
        comm.send((comm.rank + 1) % comm.size, b"x" * 10)
        comm.compute(1.0)
        try:
            comm.recv((comm.rank - 1) % comm.size)
            comm.barrier()
        except RankFailure:
            pass

    plan = FaultPlan(crashes=(CrashSpec(rank=1, at_time=0.25),))
    cluster = VirtualCluster(3, NET, faults=plan)
    cluster.run(crashing)
    assert cluster.rank_traces() == {
        0: ["send -> 1 tag=0 (10B)", "recv <- 2 tag=0 (10B)", "barrier #0"],
        1: ["send -> 2 tag=0 (10B)", "CRASHED at t=0.25"],
        2: ["send -> 0 tag=0 (10B)", "recv <- 1 tag=0 (10B)", "barrier #0"],
    }


# -- endpoints: the fast path admits nothing the slow path rejects -------

_BAD_PEERS = [
    (True, "{what} must be an integer rank, got True"),
    (1.0, "{what} must be an integer rank, got 1.0"),
    ("2", "{what} must be an integer rank, got '2'"),
    (None, "{what} must be an integer rank, got None"),
    (-1, "{what} -1 out of range (valid ranks: 0..3)"),
    (4, "{what} 4 out of range (valid ranks: 0..3)"),
    (np.int64(7), "{what} 7 out of range (valid ranks: 0..3)"),
    (1, "{what} 1 is this rank itself"),
    (np.int64(1), "{what} 1 is this rank itself"),
]
_BAD_TAGS = [True, -3, 2.5, np.int64(-1), None]


def _error_on_rank_1(call):
    def rank_fn(comm):
        if comm.rank != 1:
            return None
        with pytest.raises(ValueError) as exc:
            call(comm)
        return str(exc.value)

    return VirtualCluster(4, NET, verify=False).run(rank_fn)[1]


@pytest.mark.parametrize("peer, message", _BAD_PEERS, ids=repr)
def test_bad_peer_raises_the_same_message(peer, message):
    assert _error_on_rank_1(lambda comm: comm.send(peer, 1.0)) == "rank 1: " + (
        message.format(what="destination")
    )
    assert _error_on_rank_1(lambda comm: comm.recv(peer)) == "rank 1: " + (
        message.format(what="source")
    )


@pytest.mark.parametrize("tag", _BAD_TAGS, ids=repr)
def test_bad_tag_raises_the_same_message(tag):
    want = f"rank 1: invalid tag {tag!r} (tags must be integers >= 0)"
    assert _error_on_rank_1(lambda comm: comm.send(2, 1.0, tag=tag)) == want
    assert _error_on_rank_1(lambda comm: comm.recv(2, tag=tag)) == want


def test_numpy_integer_endpoints_still_match_plain_ones():
    def rank_fn(comm):
        if comm.rank == 0:
            comm.send(np.int64(1), 5.0, tag=np.int64(3))
            return comm.recv(np.int32(1), tag=np.int8(4))
        comm.send(np.int64(0), 6.0, tag=4)
        return comm.recv(0, tag=np.int64(3))

    cluster = VirtualCluster(2, NET)
    assert cluster.run(rank_fn) == [6.0, 5.0]
    assert cluster.rank_traces() == {
        0: ["send -> 1 tag=3 (8B)", "recv <- 1 tag=4 (8B)"],
        1: ["send -> 0 tag=4 (8B)", "recv <- 0 tag=3 (8B)"],
    }


# -- recv: a waiting message is not a way around an unwind ---------------


def test_recv_with_its_message_waiting_still_raises_a_pending_abort():
    """An aborted run stops at its next wait, satisfiable or not: the
    mailbox short-cut must hand an unwinding run to the engine."""

    def rank_fn(comm):
        if comm.rank == 0:
            comm.send(1, "left in the mailbox")
            return
        # Rank 0 has returned (rank 1 runs on its thread); what the
        # scheduler loop would plant while unwinding:
        comm.cluster._engine._abort = _PeerFailure("planted abort")
        comm.recv(0)

    cluster = VirtualCluster(2, NET)
    with pytest.raises(_PeerFailure, match="planted abort"):
        cluster.run(rank_fn)
    assert [len(q) for q in cluster._mailbox.values()] == [1]
    assert cluster.rank_traces([1]) == {1: []}
    assert cluster._waiting == {}
