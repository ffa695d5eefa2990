import math

import pytest

from repro.machines.catalog import NETWORKS
from repro.machines.network import NetworkModel

ETH = NETWORKS["RoadRunner, eth-internode"]
MYR = NETWORKS["RoadRunner, myr-internode"]
T3E = NETWORKS["T3E"]


def test_validation():
    with pytest.raises(ValueError):
        NetworkModel("x", -1.0, 1e6)
    with pytest.raises(ValueError):
        NetworkModel("x", 10.0, 0.0)
    with pytest.raises(ValueError):
        T3E.send_time(-1)


def test_send_time_structure():
    n = NetworkModel("t", latency_us=100, bandwidth=10e6)
    assert n.send_time(0) == pytest.approx(100e-6)
    assert n.send_time(10_000_000) == pytest.approx(100e-6 + 1.0)


def test_rendezvous_step():
    n = NetworkModel("t", 10, 100e6, eager_threshold=1024, rendezvous_extra_us=50)
    assert n.send_time(2048) - n.send_time(1024) > 50e-6


def test_pingpong_bandwidth_asymptote():
    for net in NETWORKS.values():
        bw = net.pingpong_bandwidth(64 * 1024 * 1024)
        assert bw == pytest.approx(net.bandwidth / 1e6, rel=0.05)
    assert T3E.pingpong_bandwidth(0) == 0.0


def test_claim_ethernet_high_latency_low_bandwidth():
    # Figure 7: RoadRunner ethernet has the worst latency; Fast Ethernet
    # bandwidth ceiling ~11 MB/s, half of most machines or less.
    for name, net in NETWORKS.items():
        if "eth" not in name and "Muses" not in name:
            assert ETH.latency_us > net.latency_us
    assert NETWORKS["Muses, LAM"].bandwidth < 12.5e6  # Fast Ethernet peak


def test_claim_lam_beats_mpich_after_tuning():
    assert (
        NETWORKS["Muses, LAM"].latency_us < NETWORKS["Muses, MPICH"].latency_us
    )


def test_claim_myrinet_latency_competitive():
    # "The inter-node myrinet network is comparable to the SP2-Silver
    # nodes and better than the AP3000 and SP2-Thin with respect to
    # latency."
    assert MYR.latency_us <= NETWORKS["SP2-Silver, internode"].latency_us * 1.1
    assert MYR.latency_us < NETWORKS["AP3000"].latency_us
    assert MYR.latency_us < NETWORKS["SP2-Thin2"].latency_us


def test_claim_myrinet_bandwidth_low_at_large_messages():
    # "The bandwidth recorded, though, is lower than most systems, apart
    # from the SP2-Thin2."
    big = 8 << 20
    myr = MYR.pingpong_bandwidth(big)
    assert myr < NETWORKS["SP2-Silver, internode"].pingpong_bandwidth(big)
    assert myr < NETWORKS["T3E"].pingpong_bandwidth(big)
    assert myr < NETWORKS["AP3000"].pingpong_bandwidth(big)
    assert myr > 0.9 * NETWORKS["SP2-Thin2"].pingpong_bandwidth(big)


def test_alltoall_time_grows_with_procs():
    for net in (ETH, MYR, T3E):
        t4 = net.alltoall_time(4, 10000)
        t8 = net.alltoall_time(8, 10000)
        assert t8 > t4 > 0
    assert T3E.alltoall_time(1, 100) == 0.0


def test_claim_t3e_alltoall_dominates():
    # "Apart from the T3E, which is 3 times higher than the rest..."
    m = 1 << 20
    t3e = T3E.alltoall_avg_bandwidth(8, m)
    for name in ("AP3000", "SP2-Silver, internode", "RoadRunner, myr-internode"):
        assert t3e > 2.0 * NETWORKS[name].alltoall_avg_bandwidth(8, m)


def test_claim_ethernet_alltoall_saturates():
    # Congestion: per-process Alltoall bandwidth on the ethernet cluster
    # degrades sharply as P grows; Myrinet holds steady at small P.
    m = 64 * 1024
    eth4 = ETH.alltoall_avg_bandwidth(4, m)
    eth16 = ETH.alltoall_avg_bandwidth(16, m)
    assert eth16 < 0.6 * eth4
    myr4 = MYR.alltoall_avg_bandwidth(4, m)
    myr16 = MYR.alltoall_avg_bandwidth(16, m)
    assert myr16 > 0.8 * myr4


def test_allreduce_and_barrier():
    t2 = T3E.allreduce_time(2, 8)
    t8 = T3E.allreduce_time(8, 8)
    assert t8 == pytest.approx(3 * t2, rel=1e-9)  # log2(8)/log2(2) hops
    assert T3E.barrier_time(8) == pytest.approx(t8)
    assert T3E.allreduce_time(1, 8) == 0.0


# The collective price list: each kind against the formula that lived in
# simmpi's per-collective closures (and again in critpath's fabric swap)
# before NetworkModel.collective_time replaced them.
_HALF_DUPLEX_ETH = NetworkModel(
    "half-eth", latency_us=100, bandwidth=10e6, eager_threshold=1024,
    rendezvous_extra_us=50, full_duplex=False, aggregate_capacity=40e6,
    cpu_overhead_per_byte=2e-8,
)
_FULL_DUPLEX = NetworkModel(
    "full", latency_us=10, bandwidth=100e6, eager_threshold=1024,
    rendezvous_extra_us=20,
)
_REPLACED_FORMULA = {
    "alltoall": lambda net, p, n: net.alltoall_time(p, n),
    **dict.fromkeys(
        ["barrier", "allgather", "allreduce-sum", "allreduce-max", "allreduce-min"],
        lambda net, p, n: net.allreduce_time(p, n),
    ),
    "bcast": lambda net, p, n: (
        (math.ceil(math.log2(p)) if p > 1 else 0) * net.send_time(n)
    ),
    "gather": lambda net, p, n: (p - 1) * net.send_time(n),
}


@pytest.mark.parametrize("net", [_HALF_DUPLEX_ETH, _FULL_DUPLEX], ids=lambda n: n.name)
@pytest.mark.parametrize("kind", sorted(_REPLACED_FORMULA))
def test_collective_time_is_the_formula_it_replaced(net, kind):
    for nprocs in (1, 2, 5, 64):
        for nbytes in (0, 8, 1024, 1025, 65536):  # both sides of eager_threshold
            assert net.collective_time(kind, nprocs, nbytes) == _REPLACED_FORMULA[
                kind
            ](net, nprocs, nbytes), (nprocs, nbytes)
    # A barrier is the 8-byte allreduce barrier_time already is.
    assert net.collective_time("barrier", 64, 8) == net.barrier_time(64)


def test_bcast_hops_match_the_old_fabric_swap_spelling():
    """critpath's table counted hops as ``(P - 1).bit_length()``."""
    unit = NetworkModel("unit", latency_us=1e6, bandwidth=1e6)
    for p in range(1, 1026):
        assert unit.collective_time("bcast", p, 0) == (p - 1).bit_length()


def test_collective_time_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown collective kind 'scan'"):
        T3E.collective_time("scan", 4, 8)


def test_cpu_overhead_only_on_tcp_networks():
    assert ETH.cpu_time_for_bytes(1e6) > 0
    assert MYR.cpu_time_for_bytes(1e6) == 0.0
    assert T3E.cpu_time_for_bytes(1e6) == 0.0


def test_effective_capacity_cap():
    assert ETH.effective_capacity(16) == pytest.approx(ETH.aggregate_capacity)
    assert ETH.effective_capacity(16) < 16 * ETH.bandwidth
    assert MYR.effective_capacity(4) == pytest.approx(4 * 33e6)


def test_single_rank_alltoall_charges_self_copy():
    """nprocs < 2 is not free on a kernel-mediated network: MPI still
    performs the local copy through the protocol stack."""
    assert ETH.alltoall_time(1, 65536) == pytest.approx(
        ETH.cpu_time_for_bytes(65536)
    )
    assert ETH.alltoall_time(1, 65536) > 0.0
    assert ETH.alltoall_time(1, 0) == 0.0
    # OS-bypass networks pay no protocol-stack copy cost.
    assert MYR.alltoall_time(1, 65536) == 0.0
    assert T3E.alltoall_time(1, 65536) == 0.0


def test_alltoall_avg_bandwidth_goldens():
    """Pin Figure 8's metric on the two RoadRunner fabrics: the numbers
    these exact model parameters produce.  Ethernet halves from 4 to 8
    processors (the saturation of Table 2); Myrinet's non-blocking
    fabric holds flat.  Any drift means the pricing model changed."""
    m = 65536
    assert ETH.alltoall_avg_bandwidth(4, m) == pytest.approx(
        1.833728790795541, rel=1e-12
    )
    assert ETH.alltoall_avg_bandwidth(8, m) == pytest.approx(
        0.9204701229241108, rel=1e-12
    )
    assert MYR.alltoall_avg_bandwidth(4, m) == pytest.approx(
        32.50891380813516, rel=1e-12
    )
    assert MYR.alltoall_avg_bandwidth(8, m) == pytest.approx(
        32.50891380813516, rel=1e-12
    )
