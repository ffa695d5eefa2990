"""Fault injection: plan semantics, pricing, crashes, timeouts, and the
verifier's behaviour under fault storms."""

import numpy as np
import pytest

from repro.machines.catalog import NETWORKS
from repro.machines.network import NetworkModel
from repro.obs import MetricsRegistry, scoped
from repro.parallel.faults import CrashSpec, FaultPlan, RankFailure, RecvTimeout
from repro.parallel.simmpi import (
    _TRACE_LEN,
    CommVerificationError,
    VirtualCluster,
)

ETH = NETWORKS["RoadRunner, eth-internode"]
MYR = NETWORKS["RoadRunner, myr-internode"]
FAST = NetworkModel("t", latency_us=5, bandwidth=1e9)


# -- plan validation and determinism ------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError, match="loss_rate"):
        FaultPlan(loss_rate=1.0)
    with pytest.raises(ValueError, match="loss_rate"):
        FaultPlan(loss_rate=-0.1)
    with pytest.raises(ValueError, match="retransmit"):
        FaultPlan(retransmit_timeout=-1.0)
    with pytest.raises(ValueError, match=">= 1"):
        FaultPlan(degraded_links={(0, 1): 0.5})
    with pytest.raises(ValueError, match=">= 1"):
        FaultPlan(stragglers={0: 0.9})
    with pytest.raises(ValueError, match="one CrashSpec per rank"):
        FaultPlan(
            crashes=(CrashSpec(0, at_time=1.0), CrashSpec(0, at_step=3))
        )
    with pytest.raises(ValueError, match="exactly one"):
        CrashSpec(0)
    with pytest.raises(ValueError, match="exactly one"):
        CrashSpec(0, at_time=1.0, at_step=2)
    with pytest.raises(ValueError, match="bad rank"):
        CrashSpec(-1, at_time=1.0)


def test_empty_plan_is_normalised_away():
    assert FaultPlan().is_empty
    assert not FaultPlan(loss_rate=0.1).is_empty
    assert not FaultPlan(stragglers={1: 2.0}).is_empty
    cl = VirtualCluster(2, FAST, faults=FaultPlan())
    assert cl._plan is None  # every fault branch is skipped outright
    assert VirtualCluster(2, FAST, faults=None)._plan is None
    assert VirtualCluster(2, FAST, faults=FaultPlan(loss_rate=0.1))._plan is not None


def test_retransmit_draws_are_deterministic_and_seeded():
    plan = FaultPlan(seed=42, loss_rate=0.3)
    draws = [plan.retransmits(0, 1, 7, i) for i in range(200)]
    assert draws == [plan.retransmits(0, 1, 7, i) for i in range(200)]
    assert any(draws)  # 30% loss must hit somewhere in 200 messages
    assert draws != [
        FaultPlan(seed=43, loss_rate=0.3).retransmits(0, 1, 7, i)
        for i in range(200)
    ]
    # Distinct (src, dst, tag) streams are independent.
    assert draws != [plan.retransmits(1, 0, 7, i) for i in range(200)]
    assert max(draws) <= plan.max_retransmits


def test_retransmit_delay_is_exponential_backoff():
    plan = FaultPlan(loss_rate=0.1, retransmit_timeout=0.2)
    assert plan.retransmit_delay(0) == 0.0
    assert plan.retransmit_delay(1) == pytest.approx(0.2)
    assert plan.retransmit_delay(3) == pytest.approx(0.2 * 7)  # 1 + 2 + 4


def test_loss_applies_only_to_kernel_mediated_networks():
    plan = FaultPlan(loss_rate=0.1)
    assert plan.loss_applies(ETH)
    assert not plan.loss_applies(MYR)
    assert not FaultPlan().loss_applies(ETH)


# -- zero-cost-when-off -------------------------------------------------------------


def _workload(comm):
    for i in range(5):
        if comm.rank == 0:
            comm.send(1, np.arange(256.0), tag=i)
        elif comm.rank == 1:
            comm.recv(0, tag=i)
        comm.alltoall([np.zeros(64) for _ in range(comm.size)])
        comm.allreduce(1.0)
        comm.compute(1e-4)
    st = comm.cluster.ranks[comm.rank]
    return comm.wall, comm.cpu_time, st.sent_bytes, st.recv_bytes, st.messages


def test_empty_plan_is_byte_identical():
    """The zero-cost guarantee: clocks AND accounting are byte-identical
    with faults=None, an empty FaultPlan, and no fault layer at all."""
    for net in (ETH, MYR, FAST):
        ref = VirtualCluster(3, net).run(_workload)
        assert VirtualCluster(3, net, faults=FaultPlan()).run(_workload) == ref


# -- loss pricing -------------------------------------------------------------------


def test_send_retransmits_charge_wall_cpu_and_counters():
    plan = FaultPlan(seed=11, loss_rate=0.4, retransmit_timeout=0.05)

    def rank_fn(comm):
        for i in range(30):
            if comm.rank == 0:
                comm.send(1, b"x" * 2048, tag=i)
            else:
                comm.recv(0, tag=i)
        return comm.wall, comm.cpu_time

    base = VirtualCluster(2, ETH).run(rank_fn)
    registry = MetricsRegistry()
    with scoped(registry):
        lossy = VirtualCluster(2, ETH, faults=plan).run(rank_fn)
    snap = registry.snapshot()
    nret = snap["faults.retransmits"]["value"]
    nbytes_re = snap["faults.retransmitted_bytes"]["value"]
    assert nret > 0 and nbytes_re == 2048 * nret
    assert lossy[0][0] > base[0][0]  # sender wall stalls through RTOs
    assert lossy[0][1] > base[0][1]  # kernel resend copies burn CPU
    # Replays are bit-identical.
    with scoped(MetricsRegistry()):
        assert VirtualCluster(2, ETH, faults=plan).run(rank_fn) == lossy


def test_loss_is_free_on_os_bypass_networks():
    plan = FaultPlan(seed=11, loss_rate=0.4)

    def rank_fn(comm):
        for i in range(10):
            if comm.rank == 0:
                comm.send(1, b"x" * 2048, tag=i)
            else:
                comm.recv(0, tag=i)
        comm.alltoall([b"y" * 512] * comm.size)
        return comm.wall, comm.cpu_time

    assert VirtualCluster(2, MYR, faults=plan).run(rank_fn) == VirtualCluster(
        2, MYR
    ).run(rank_fn)


def test_alltoall_wall_inflates_monotonically_with_loss():
    def rank_fn(comm):
        for _ in range(8):
            comm.alltoall([np.zeros(512) for _ in range(comm.size)])
        return comm.wall

    walls = []
    for rate in (0.0, 0.05, 0.1, 0.2):
        plan = FaultPlan(seed=3, loss_rate=rate) if rate else None
        walls.append(max(VirtualCluster(4, ETH, faults=plan).run(rank_fn)))
    assert all(b <= a for b, a in zip(walls, walls[1:]))
    assert walls[-1] > walls[0]


# -- degradation and stragglers -----------------------------------------------------


def test_degraded_link_stretches_point_to_point():
    def rank_fn(comm):
        if comm.rank == 0:
            comm.send(1, b"x" * 100_000, tag=0)
        elif comm.rank == 1:
            comm.recv(0, tag=0)
        return comm.wall

    base = VirtualCluster(2, FAST).run(rank_fn)
    slow = VirtualCluster(
        2, FAST, faults=FaultPlan(degraded_links={(0, 1): 4.0})
    ).run(rank_fn)
    assert slow[1] > base[1]
    # Symmetric lookup: (1, 0) prices the same as (0, 1).
    assert (
        VirtualCluster(
            2, FAST, faults=FaultPlan(degraded_links={(1, 0): 4.0})
        ).run(rank_fn)
        == slow
    )


def test_straggler_stretches_compute_and_drags_collectives():
    def rank_fn(comm):
        comm.compute(1.0)
        comm.barrier()
        return comm.wall

    base = VirtualCluster(2, FAST).run(rank_fn)
    slow = VirtualCluster(
        2, FAST, faults=FaultPlan(stragglers={1: 3.0})
    ).run(rank_fn)
    # Compute stretches 3x; the barrier itself stays healthy.
    assert slow[1] == pytest.approx(base[1] + 2.0, rel=1e-9)
    # The healthy rank waits at the barrier for the straggler.
    assert slow[0] == pytest.approx(slow[1], rel=1e-9)


# -- eager argument validation ------------------------------------------------------


def test_eager_validation_messages_name_the_offender():
    def rank_fn(comm):
        if comm.rank == 0:
            with pytest.raises(ValueError, match="destination 5 out of range"):
                comm.send(5, b"x")
            with pytest.raises(ValueError, match="destination -1 out of range"):
                comm.send(-1, b"x")
            with pytest.raises(ValueError, match="is this rank itself"):
                comm.send(0, b"x")
            with pytest.raises(ValueError, match="invalid tag -3"):
                comm.send(1, b"x", tag=-3)
            with pytest.raises(ValueError, match="invalid tag"):
                comm.recv(1, tag=1.5)
            with pytest.raises(ValueError, match="must be an integer rank"):
                comm.recv("1")
            with pytest.raises(ValueError, match="source 2 out of range"):
                comm.recv(2)
            # np.integer ranks are fine (mesh code indexes with them).
            comm.send(np.int64(1), b"ok", tag=np.int32(4))
        else:
            comm.recv(0, tag=4)

    VirtualCluster(2, FAST).run(rank_fn)


def test_recv_parameter_validation():
    def rank_fn(comm):
        if comm.rank == 0:
            with pytest.raises(ValueError, match="timeout"):
                comm.recv(1, timeout=0.0)
            with pytest.raises(ValueError, match="retries"):
                comm.recv(1, timeout=1.0, retries=-1)

    VirtualCluster(2, FAST).run(rank_fn)


# -- recv timeout/retry/backoff -----------------------------------------------------


def test_recv_timeout_expires_and_prices_the_wait():
    def rank_fn(comm):
        if comm.rank == 0:
            with pytest.raises(RecvTimeout) as exc:
                comm.recv(1, tag=0, timeout=0.5, retries=2, backoff=2.0)
            e = exc.value
            return e.waited, e.attempts, comm.wall, comm.cpu_time
        comm.compute(100.0)
        return None

    res = VirtualCluster(2, ETH).run(rank_fn)
    waited, attempts, wall, cpu = res[0]
    assert attempts == 3  # initial try + 2 retries
    assert waited == pytest.approx(0.5 + 1.0 + 2.0)
    assert wall == pytest.approx(waited)
    # TCP blocks in the kernel: only the busy-wait fraction burns CPU.
    assert cpu == pytest.approx(ETH.busy_wait_fraction * waited)


def test_recv_timeout_leaves_late_message_queued():
    """A message whose virtual arrival lands beyond the deadline does
    not satisfy the recv; a later untimed recv still gets it."""

    def rank_fn(comm):
        if comm.rank == 0:
            comm.compute(5.0)  # message "arrives" at t=5 on the wire
            comm.send(1, "late", tag=0)
            return None
        with pytest.raises(RecvTimeout):
            comm.recv(0, tag=0, timeout=1.0)
        got = comm.recv(0, tag=0)  # untimed: waits it out
        return got, comm.wall

    res = VirtualCluster(2, FAST).run(rank_fn)
    assert res[1][0] == "late"
    assert res[1][1] >= 5.0


def test_recv_timeout_returns_message_that_makes_the_deadline():
    def rank_fn(comm):
        if comm.rank == 0:
            comm.send(1, "in time", tag=0)
            return None
        return comm.recv(0, tag=0, timeout=10.0)

    assert VirtualCluster(2, FAST).run(rank_fn)[1] == "in time"


# -- crashes ------------------------------------------------------------------------


def test_crash_at_virtual_time_consumes_partial_compute():
    plan = FaultPlan(crashes=(CrashSpec(rank=1, at_time=0.5),))

    def rank_fn(comm):
        comm.compute(2.0)
        return comm.wall

    cl = VirtualCluster(2, FAST, faults=plan)
    res = cl.run(rank_fn)
    assert res[0] == pytest.approx(2.0)
    assert res[1] is None  # crashed rank: no result, no host error
    assert cl._crashed == {1: pytest.approx(0.5)}  # died mid-compute


def test_send_to_crashed_rank_raises_rank_failure():
    plan = FaultPlan(crashes=(CrashSpec(rank=1, at_time=0.0),))

    def rank_fn(comm):
        if comm.rank == 1:
            comm.compute(1.0)
            return "unreachable"
        comm.compute(0.1)  # let rank 1 die first (virtual ordering)
        comm.barrier()

    with pytest.raises(RankFailure) as exc:
        VirtualCluster(2, FAST, faults=plan).run(rank_fn)
    assert exc.value.rank == 1


def test_survivors_can_catch_and_continue():
    plan = FaultPlan(crashes=(CrashSpec(rank=2, at_step=0),))

    def rank_fn(comm):
        comm.mark_step()
        try:
            comm.allreduce(comm.rank)
        except RankFailure as e:
            # Survivors regroup pairwise and finish the step.
            if comm.rank == 0:
                comm.send(1, "regroup", tag=9)
                return e.rank
            return comm.recv(0, tag=9)
        return "no failure"

    res = VirtualCluster(3, FAST, faults=plan).run(rank_fn)
    assert res == [2, "regroup", None]


def test_messages_sent_before_crash_still_deliver():
    plan = FaultPlan(crashes=(CrashSpec(rank=1, at_step=1),))

    def rank_fn(comm):
        comm.mark_step()
        if comm.rank == 1:
            comm.send(0, "parting gift", tag=0)
            comm.mark_step()  # dies here
            return "unreachable"
        got = comm.recv(1, tag=0)
        with pytest.raises(RankFailure):
            comm.recv(1, tag=1)
        return got

    assert VirtualCluster(2, FAST, faults=plan).run(rank_fn)[0] == "parting gift"


# -- the verifier under fault storms ------------------------------------------------


def test_rank_traces_stay_bounded_under_fault_storm():
    plan = FaultPlan(seed=5, loss_rate=0.3, retransmit_timeout=1e-4)

    def rank_fn(comm):
        for i in range(3 * _TRACE_LEN):
            if comm.rank == 0:
                comm.send(1, b"x" * 64, tag=i)
            else:
                comm.recv(0, tag=i)
            comm.allreduce(1.0)

    cl = VirtualCluster(2, ETH, faults=plan)
    cl.run(rank_fn)
    for trace in cl.rank_traces().values():
        assert len(trace) == _TRACE_LEN


def test_byte_conservation_holds_under_loss_storm():
    """Retransmitted copies are priced but never double-counted: the
    ledger stays exact, so finalize verification passes clean."""
    plan = FaultPlan(seed=9, loss_rate=0.35, retransmit_timeout=1e-4)

    def rank_fn(comm):
        for i in range(40):
            peer = 1 - comm.rank
            if comm.rank == 0:
                comm.send(peer, b"x" * 512, tag=i)
                comm.recv(peer, tag=i)
            else:
                comm.recv(peer, tag=i)
                comm.send(peer, b"y" * 256, tag=i)
        comm.alltoall([b"z" * 128] * comm.size)

    cl = VirtualCluster(2, ETH, faults=plan)
    cl.run(rank_fn)  # verify=True: raises on any conservation drift
    st = cl.ranks
    assert sum(s.sent_bytes for s in st) == sum(s.recv_bytes for s in st)
    assert cl.verify_communication() == []  # no crash residue either


def test_crashed_rank_residue_is_crash_attributed():
    """Unmatched sends and torn collectives left by a crash are notes,
    not verifier findings — and show the crash they stem from."""
    plan = FaultPlan(crashes=(CrashSpec(rank=1, at_step=1),))

    def rank_fn(comm):
        comm.mark_step()
        if comm.rank == 1:
            comm.send(0, b"orphan" * 100, tag=77)  # never received
            comm.mark_step()  # dies
            return None
        with pytest.raises(RankFailure):
            comm.recv(1, tag=99)  # waiting on a tag the dead rank never sent
        return "survived"

    cl = VirtualCluster(2, FAST, faults=plan)
    res = cl.run(rank_fn)
    assert res[0] == "survived"
    notes = cl.verify_communication()  # must NOT raise
    assert any("crash-attributed unmatched send" in n for n in notes)
    assert any("tag=77" in n and "rank 1 crashed" in n for n in notes)


def test_fault_free_misuse_still_fails_finalize():
    """Crash attribution must not swallow real bugs: with no crash in
    the plan, an unmatched send is still a hard verifier error."""
    plan = FaultPlan(seed=1, loss_rate=0.1)

    def rank_fn(comm):
        if comm.rank == 0:
            comm.send(1, b"never read", tag=0)

    with pytest.raises(CommVerificationError, match="unmatched send"):
        VirtualCluster(2, ETH, faults=plan).run(rank_fn)
