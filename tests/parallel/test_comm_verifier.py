"""Tests for the simmpi communication verifier.

Covers the acceptance criterion: a mismatched send fails at cluster
finalize with a per-rank trace, and the runtime checks catch deadlocks
and collective-ordering mismatches.
"""

import numpy as np
import pytest

from repro.machines.network import NetworkModel
from repro.parallel.simmpi import (
    CommVerificationError,
    VirtualCluster,
    payload_bytes,
)

FAST = NetworkModel("test-net", latency_us=10, bandwidth=100e6)


def cluster(n, **kw):
    return VirtualCluster(n, FAST, **kw)


# ------------------------------------------------------------- finalize checks


def test_unmatched_send_detected_at_finalize():
    def fn(comm):
        if comm.rank == 0:
            comm.send(1, np.arange(4.0), tag=7)  # nobody receives this

    with pytest.raises(CommVerificationError) as exc:
        cluster(2).run(fn)
    msg = str(exc.value)
    assert "unmatched send" in msg
    assert "rank 0 -> rank 1 tag=7" in msg
    assert "byte conservation" in msg  # 32 sent, 0 received
    assert any("send -> 1 tag=7" in e for e in exc.value.rank_traces[0])


def test_unmatched_send_problems_are_structured():
    def fn(comm):
        if comm.rank == 0:
            comm.send(1, b"xyzw")

    with pytest.raises(CommVerificationError) as exc:
        cluster(2).run(fn)
    kinds = [p.split(":")[0] for p in exc.value.problems]
    assert "unmatched send" in kinds
    assert exc.value.rank_traces  # per-rank trace attached


def test_verify_off_lets_unmatched_send_pass():
    def fn(comm):
        if comm.rank == 0:
            comm.send(1, 1.0)
        return comm.rank

    assert cluster(2, verify=False).run(fn) == [0, 1]


def test_clean_patterns_verify_ok():
    def fn(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        got = comm.sendrecv(right, float(comm.rank), left)
        comm.barrier()
        total = comm.allreduce(got)
        return total

    res = cluster(4).run(fn)
    assert res == [6.0] * 4


def test_byte_conservation_bookkeeping_is_exact():
    def fn(comm):
        if comm.rank == 0:
            comm.send(1, np.zeros(100))
        else:
            comm.recv(0)

    cl = cluster(2)
    cl.run(fn)
    assert cl.ranks[0].sent_bytes == 800
    assert cl.ranks[1].recv_bytes == 800
    cl.verify_communication()  # explicitly re-check: clean


# -------------------------------------------------------------- runtime checks


def test_deadlock_detected_with_rank_trace():
    def fn(comm):
        # Everyone receives, nobody sends: a textbook deadlock.
        return comm.recv((comm.rank + 1) % comm.size)

    with pytest.raises(CommVerificationError) as exc:
        cluster(2).run(fn)
    msg = str(exc.value)
    assert "deadlock" in msg
    assert "rank 0 blocked in recv" in msg
    assert "rank 1 blocked in recv" in msg


def test_deadlock_rank_stranded_by_finished_peer():
    def fn(comm):
        if comm.rank == 1:
            return comm.recv(0)  # rank 0 never sends and exits
        return None

    with pytest.raises(CommVerificationError) as exc:
        cluster(2).run(fn)
    assert "deadlock" in str(exc.value)
    assert "rank 1 blocked in recv(source=0" in str(exc.value)


def test_collective_order_mismatch_detected():
    def fn(comm):
        if comm.rank == 0:
            comm.barrier()
        else:
            comm.allreduce(1.0)

    with pytest.raises(CommVerificationError) as exc:
        cluster(2).run(fn)
    assert "collective ordering mismatch" in str(exc.value)


def test_collective_count_mismatch_is_caught():
    def fn(comm):
        comm.barrier()
        if comm.rank == 0:
            comm.barrier()  # one rank calls an extra barrier

    with pytest.raises(CommVerificationError) as exc:
        cluster(2).run(fn)
    # The extra barrier can never complete: detected as a deadlock
    # (rank 0 blocked) once rank 1 finishes.
    assert "deadlock" in str(exc.value) or "incomplete collective" in str(exc.value)


def test_error_still_beats_verifier():
    # A real rank error is re-raised as the root cause, not wrapped in
    # peer-failure or verification noise.
    def fn(comm):
        if comm.rank == 0:
            raise ValueError("boom")
        comm.recv(0)

    with pytest.raises(ValueError, match="boom"):
        cluster(2).run(fn)


def test_cluster_reusable_after_clean_run():
    def fn(comm):
        return comm.allreduce(1.0)

    cl = cluster(3)
    assert cl.run(fn) == [3.0] * 3
    assert cl.run(fn) == [3.0] * 3


# ------------------------------------------------------------- payload pricing


def test_payload_bytes_bool_and_scalars():
    assert payload_bytes(True) == 1
    assert payload_bytes(False) == 1
    assert payload_bytes(np.bool_(True)) == 1
    assert payload_bytes(7) == 8
    assert payload_bytes(3.14) == 8
    assert payload_bytes(np.float64(1.0)) == 8
    assert payload_bytes(np.float32(1.0)) == 4
    assert payload_bytes(np.int32(1)) == 4
    assert payload_bytes(1 + 2j) == 16


def test_payload_bytes_zero_d_arrays():
    assert payload_bytes(np.array(1.0)) == 8
    assert payload_bytes(np.array(1, dtype=np.int16)) == 2


def test_payload_bytes_memoryview_prices_its_bytes_not_its_first_axis():
    # len() of a memoryview counts only its first axis: (3, 4) doubles
    # are 96 bytes on the wire, not 3.
    assert payload_bytes(memoryview(np.zeros((3, 4)))) == 96
    assert payload_bytes(memoryview(np.zeros(5, dtype=np.int16))) == 10
    assert payload_bytes(memoryview(b"abc")) == 3
    assert payload_bytes(b"abc") == payload_bytes(bytearray(b"abc")) == 3


def test_payload_bytes_sequences_consistent():
    # Homogeneous, mixed and nested sequences all price element-wise.
    assert payload_bytes((1.0, 2.0, 3)) == 24
    assert payload_bytes([1.0, True, np.float32(0.0)]) == 13
    assert payload_bytes([np.zeros(2), [1.0, 2.0]]) == 32
    assert payload_bytes(()) == 0
    assert payload_bytes(None) == 0


def test_payload_bytes_dicts_price_contents():
    d = {0: np.zeros(4), 1: np.zeros(2)}
    assert payload_bytes(d) == 8 + 32 + 8 + 16
