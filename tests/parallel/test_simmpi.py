import numpy as np
import pytest

from repro.machines.catalog import CPUS, NETWORKS
from repro.machines.network import NetworkModel
from repro.parallel.simmpi import VirtualCluster, payload_bytes

FAST = NetworkModel("test-net", latency_us=10, bandwidth=100e6)


def cluster(n, net=FAST, **kw):
    return VirtualCluster(n, net, **kw)


def test_validation():
    with pytest.raises(ValueError):
        VirtualCluster(0, FAST)


def test_payload_bytes():
    assert payload_bytes(np.zeros(10)) == 80
    assert payload_bytes(b"abc") == 3
    assert payload_bytes(3.14) == 8
    assert payload_bytes((1.0, 2.0, 3)) == 24
    assert payload_bytes({"a": 1}) > 0


def test_send_recv_roundtrip():
    def fn(comm):
        if comm.rank == 0:
            comm.send(1, np.arange(5.0))
            return None
        return comm.recv(0)

    cl = cluster(2)
    res = cl.run(fn)
    np.testing.assert_array_equal(res[1], np.arange(5.0))


def test_message_ordering_fifo():
    def fn(comm):
        if comm.rank == 0:
            for i in range(5):
                comm.send(1, float(i), tag=3)
            return None
        return [comm.recv(0, tag=3) for _ in range(5)]

    res = cluster(2).run(fn)
    assert res[1] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_tags_are_independent_channels():
    def fn(comm):
        if comm.rank == 0:
            comm.send(1, "a", tag=1)
            comm.send(1, "b", tag=2)
            return None
        # Receive in the opposite order of sending: must match by tag.
        b = comm.recv(0, tag=2)
        a = comm.recv(0, tag=1)
        return (a, b)

    res = cluster(2).run(fn)
    assert res[1] == ("a", "b")


def test_send_validation():
    def fn(comm):
        if comm.rank == 0:
            with pytest.raises(ValueError):
                comm.send(0, 1.0)
            with pytest.raises(ValueError):
                comm.send(5, 1.0)
            with pytest.raises(ValueError):
                comm.recv(0)
        return None

    cluster(2).run(fn)


def test_pingpong_time_matches_network_model():
    nbytes = 80000
    reps = 10

    def fn(comm):
        msg = np.zeros(nbytes // 8)
        for _ in range(reps):
            if comm.rank == 0:
                comm.send(1, msg)
                comm.recv(1)
            else:
                comm.recv(0)
                comm.send(0, msg)
        return comm.wall

    cl = cluster(2)
    res = cl.run(fn)
    expect = 2 * reps * FAST.send_time(nbytes)
    assert res[0] == pytest.approx(expect, rel=0.15)


def test_wall_includes_wait_cpu_does_not():
    def fn(comm):
        if comm.rank == 0:
            comm.compute(1.0)  # slow producer
            comm.send(1, 1.0)
            return (comm.wall, comm.cpu_time)
        comm.recv(0)  # waits ~1 s of virtual time
        return (comm.wall, comm.cpu_time)

    res = cluster(2).run(fn)
    wall1, cpu1 = res[1]
    assert wall1 > 1.0  # waited for the producer
    assert cpu1 < 0.1  # but burned no CPU


def test_tcp_networks_charge_cpu():
    eth = NETWORKS["RoadRunner, eth-internode"]

    def fn(comm):
        if comm.rank == 0:
            comm.send(1, np.zeros(100000))
        else:
            comm.recv(0)
        return comm.cpu_time

    res = VirtualCluster(2, eth).run(fn)
    assert res[0] > 0
    assert res[1] > 0


def test_compute_flops_uses_cpu_model():
    cl = cluster(1, cpu=CPUS["pentium-ii-450"])

    def fn(comm):
        comm.compute_flops(105e6)  # app rate is 105 Mflop/s
        return comm.wall

    res = cl.run(fn)
    assert res[0] == pytest.approx(1.0, rel=0.01)


def test_compute_flops_without_cpu_model():
    def fn(comm):
        with pytest.raises(RuntimeError):
            comm.compute_flops(1.0)

    cluster(1).run(fn)


def test_barrier_synchronises_clocks():
    def fn(comm):
        comm.compute(0.1 * (comm.rank + 1))
        comm.barrier()
        return comm.wall

    res = cluster(4).run(fn)
    assert max(res) - min(res) < 1e-12
    assert res[0] > 0.4  # everyone waits for the slowest (0.4 s)


def test_alltoall_correctness():
    def fn(comm):
        chunks = [
            np.full(3, 10.0 * comm.rank + d) for d in range(comm.size)
        ]
        out = comm.alltoall(chunks)
        # out[s] came from rank s and carried value 10*s + my_rank.
        for s, arr in enumerate(out):
            np.testing.assert_array_equal(arr, 10.0 * s + comm.rank)
        return comm.wall

    cluster(4).run(fn)


def test_alltoall_priced_by_model():
    m = 8000

    def fn(comm):
        chunks = [np.zeros(m // 8) for _ in range(comm.size)]
        comm.alltoall(chunks)
        return comm.wall

    res = cluster(4).run(fn)
    expect = FAST.alltoall_time(4, m)
    assert res[0] == pytest.approx(expect, rel=0.05)


def test_allreduce_ops():
    def fn(comm):
        s = comm.allreduce(float(comm.rank + 1), op="sum")
        mx = comm.allreduce(float(comm.rank), op="max")
        mn = comm.allreduce(float(comm.rank), op="min")
        arr = comm.allreduce(np.full(2, float(comm.rank)), op="sum")
        return (s, mx, mn, arr)

    res = cluster(3).run(fn)
    for s, mx, mn, arr in res:
        assert s == 6.0
        assert mx == 2.0
        assert mn == 0.0
        np.testing.assert_array_equal(arr, 3.0)


def test_allreduce_unknown_op():
    def fn(comm):
        comm.allreduce(1.0, op="prod")

    with pytest.raises(ValueError):
        cluster(2).run(fn)


def test_bcast_and_gather():
    def fn(comm):
        v = comm.bcast(42.0 if comm.rank == 0 else None, root=0)
        g = comm.gather(float(comm.rank), root=0)
        return (v, g)

    res = cluster(4).run(fn)
    assert all(v == 42.0 for v, _ in res)
    assert res[0][1] == [0.0, 1.0, 2.0, 3.0]
    assert all(g is None for _, g in res[1:])


@pytest.mark.parametrize("nprocs", [1, 3])
@pytest.mark.parametrize("collective", ["bcast", "gather"])
def test_collective_root_is_validated_before_the_rendezvous(nprocs, collective):
    """A bad root fails on the calling rank, eagerly and by name: it used
    to be a bare KeyError on the last arriver (bcast) or ``None`` on
    every rank with no error at all (gather)."""

    def fn(comm):
        call = getattr(comm, collective)
        top = comm.size - 1
        for root in (99, comm.size, -1):
            with pytest.raises(
                ValueError,
                match=rf"rank {comm.rank}: root {root} out of range "
                rf"\(valid ranks: 0\.\.{top}\)",
            ):
                call(1.0, root=root)
        for root in (True, 0.0, "0", None):
            with pytest.raises(ValueError, match="root must be an integer rank"):
                call(1.0, root=root)
        # Nothing above joined a rendezvous; the last rank is a legal
        # root, np.integer included (mesh code indexes with them).
        return call(float(comm.rank), root=np.int64(top))

    res = cluster(nprocs).run(fn)
    if collective == "bcast":
        assert res == [float(nprocs - 1)] * nprocs
    else:
        assert res[:-1] == [None] * (nprocs - 1)
        assert res[-1] == [float(r) for r in range(nprocs)]


def test_allgather():
    def fn(comm):
        return comm.allgather(np.array([float(comm.rank)]))

    res = cluster(3).run(fn)
    for r in res:
        np.testing.assert_array_equal(np.concatenate(r), [0.0, 1.0, 2.0])


def test_repeated_collectives():
    def fn(comm):
        tot = 0.0
        for i in range(10):
            tot += comm.allreduce(float(comm.rank + i), op="sum")
        return tot

    res = cluster(3).run(fn)
    expect = sum(3.0 + 3 * i for i in range(10))
    assert all(r == expect for r in res)


def test_error_propagates():
    def fn(comm):
        if comm.rank == 0:
            raise RuntimeError("boom")
        comm.recv(0)  # would deadlock without error propagation

    with pytest.raises(RuntimeError):
        cluster(2).run(fn)


def test_intranode_network_selected():
    slow = NetworkModel("slow", latency_us=1000, bandwidth=1e6)
    fast = NetworkModel("fast", latency_us=1, bandwidth=1e9)

    def fn(comm):
        if comm.rank == 0:
            comm.send(1, np.zeros(1000))  # same node
            comm.send(2, np.zeros(1000))  # other node
        elif comm.rank in (1, 2):
            comm.recv(0)
        return comm.wall

    cl = VirtualCluster(4, slow, procs_per_node=2, intranode=fast)
    res = cl.run(fn)
    assert res[1] < res[2]  # intranode delivery is much faster


def test_clock_monotonic_per_rank():
    def fn(comm):
        ws = [comm.wall]
        comm.compute(0.01)
        ws.append(comm.wall)
        comm.barrier()
        ws.append(comm.wall)
        comm.allreduce(1.0)
        ws.append(comm.wall)
        return ws

    for ws in cluster(3).run(fn):
        assert all(a <= b + 1e-15 for a, b in zip(ws, ws[1:]))
