"""Scheduler goldens: the event engine against the deleted thread oracle.

Each scenario runs one of the repo's real workloads — a NekTar-F
Fourier step, a fault-plan storm (loss + stragglers + degraded link), a
rank crash, a pairwise exchange + tree allreduce program, a sanitized
message graph, a planted deadlock — and pins its full observable state
(outcome, per-rank virtual clocks and byte ledgers, ``rank_traces()``
strings, metrics, sanitizer vector clocks) against values recorded from
the thread-per-rank engine before it was removed.
"""

import numpy as np
import pytest

from repro.assembly.space import FunctionSpace
from repro.machines.catalog import CPUS, NETWORKS
from repro.machines.network import NetworkModel
from repro.mesh.generators import rectangle_quads
from repro.ns.nektar_f import NekTarF
from repro.obs import MetricsRegistry, scoped
from repro.parallel.faults import CrashSpec, FaultPlan, RankFailure
from repro.parallel.simmpi import VirtualCluster

from ..golden import check

NET = NetworkModel(
    "parity-net",
    latency_us=10,
    bandwidth=100e6,
    cpu_overhead_per_byte=2e-9,
    busy_wait_fraction=0.25,
)

STORM = FaultPlan(
    seed=7,
    loss_rate=0.15,
    stragglers={1: 1.5},
    degraded_links={(0, 2): 2.5},
)


def run_fingerprint(nprocs, fn, *, network=NET, cpu=None, faults=None, sanitize=False):
    """Run ``fn``; return the cluster's full observable state."""
    registry = MetricsRegistry()
    cluster = VirtualCluster(
        nprocs, network, cpu=cpu, faults=faults, sanitize=sanitize
    )
    with scoped(registry):
        try:
            outcome = ["ok", cluster.run(fn)]
        except Exception as exc:
            outcome = ["raised", type(exc).__name__, str(exc)]
    fp = {
        "outcome": outcome,
        "ranks": [
            [
                st.wall,
                st.cpu,
                st.sent_bytes,
                st.recv_bytes,
                st.messages,
                st.crashed,
                st.coll_kinds,
            ]
            for st in cluster.ranks
        ],
        "rank_traces": cluster.rank_traces(),
        # scheduler.* gauges describe the host schedule, not the
        # simulated program the oracle could vouch for.
        "metrics": {
            k: v
            for k, v in registry.snapshot().items()
            if not k.startswith("scheduler.")
        },
    }
    if sanitize:
        fp["vector_clocks"] = cluster.happens_before.clocks
    return fp


# -- scenarios ---------------------------------------------------------------------


def nektar_f_step():
    """A real NekTar-F Fourier step: numerics, charges, clocks, traces."""
    mesh = rectangle_quads(2, 1, 0.0, 2 * np.pi, 0.0, np.pi)

    def rank_fn(comm):
        space = FunctionSpace(mesh, 4)
        bcs = {
            "left": (
                lambda m, x, y, t: 1.0 if m == 0 else 0.0,
                lambda m, x, y, t: 0.0,
                lambda m, x, y, t: 0.0,
            )
        }
        nf = NekTarF(
            comm,
            space,
            nz=4,
            nu=0.1,
            dt=5e-3,
            velocity_bcs=bcs,
            pressure_dirichlet=("right",),
            charge_compute=True,
        )
        nf.set_initial(
            lambda m, x, y, t: 1.0 if m == 0 else 0.0,
            lambda m, x, y, t: 0.0,
            lambda m, x, y, t: 0.0,
        )
        nf.run(1)
        return float(np.abs(nf.u_hat).sum()), comm.wall, comm.cpu_time

    return run_fingerprint(
        2,
        rank_fn,
        network=NETWORKS["RoadRunner, eth-internode"],
        cpu=CPUS["pentium-ii-450"],
    )


def fault_storm():
    """Loss + straggler + degraded link: every fault branch."""

    def rank_fn(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.compute(1e-3)
        acc = 0.0
        for i in range(3):
            comm.send(right, np.full(64, float(comm.rank)), tag=i)
            acc += float(comm.recv(left, tag=i, timeout=5.0, retries=1)[0])
        out = comm.alltoall([np.full(8, float(comm.rank))] * comm.size)
        acc += float(sum(c[0] for c in out))
        return acc, comm.wall, comm.cpu_time

    return run_fingerprint(4, rank_fn, faults=STORM)


def crash():
    """A mid-run crash: survivors observe RankFailure."""
    plan = FaultPlan(crashes=(CrashSpec(rank=2, at_time=2e-4),))

    def rank_fn(comm):
        comm.compute(1e-4)
        try:
            for _ in range(2):
                comm.barrier()
                comm.compute(2e-4)
            return "finished"
        except RankFailure as e:
            return f"lost rank {e.rank}"

    return run_fingerprint(4, rank_fn, faults=plan)


def gather_scatter():
    """Sum-assembly of shared dofs as a communication program: id
    allgather, pairwise exchanges, tree allreduce of the cross-point."""

    def rank_fn(comm):
        # dof 0 is a cross-point (all ranks); dof 10+r pairs r with r+1.
        me = comm.rank
        prev, nxt = (me - 1) % comm.size, (me + 1) % comm.size
        ids = sorted({0, 10 + me, 10 + prev})
        vals = np.arange(1.0, len(ids) + 1) * (me + 1)
        comm.allgather(np.array(ids, dtype=np.int64))
        # partner -> index of the dof shared with it, ascending partner.
        plan = sorted([(nxt, ids.index(10 + me)), (prev, ids.index(10 + prev))])
        out = vals.copy()
        for partner, i in plan:
            comm.send(partner, vals[i : i + 1], tag=71)
        for partner, i in plan:
            out[i] += comm.recv(partner, tag=71)[0]
        out[0] = comm.allreduce(vals[:1].copy(), op="sum")[0]
        return out.tolist(), comm.wall

    return run_fingerprint(4, rank_fn)


def sanitize_vector_clocks():
    """Vector clocks are a pure function of the message graph, not of
    host scheduling."""
    shared = {"x": 0.0}

    def rank_fn(comm):
        if comm.rank == 0:
            comm.shared_write(shared, label="x")
            comm.send(1, 1.0)
        elif comm.rank == 1:
            comm.recv(0)
            comm.shared_read(shared, label="x")
        comm.barrier()
        comm.allreduce(float(comm.rank))
        return comm.wall

    return run_fingerprint(3, rank_fn, sanitize=True)


def deadlock_report():
    """A planted head-to-head deadlock: both ranks receive first."""

    def rank_fn(comm):
        comm.recv((comm.rank + 1) % comm.size)
        comm.send((comm.rank + 1) % comm.size, 1.0)

    return run_fingerprint(2, rank_fn)


GOLDEN_SECTIONS = {
    "engine.nektar_f_step": nektar_f_step,
    "engine.fault_storm": fault_storm,
    "engine.crash": crash,
    "engine.gather_scatter": gather_scatter,
    "engine.sanitize_vector_clocks": sanitize_vector_clocks,
    "engine.deadlock_report": deadlock_report,
}


def test_nektar_f_step_parity():
    fp = nektar_f_step()
    check("engine.nektar_f_step", fp)
    assert fp["outcome"][0] == "ok"
    assert all(st[4] > 0 for st in fp["ranks"])  # real traffic


def test_fault_storm_parity():
    fp = fault_storm()
    check("engine.fault_storm", fp)
    assert fp["outcome"][0] == "ok"
    assert fp["metrics"]["faults.retransmits"]["value"] > 0


def test_crash_parity():
    fp = crash()
    check("engine.crash", fp)
    assert fp["outcome"][0] == "ok"
    assert fp["ranks"][2][5] is True  # rank 2 crashed


def test_gather_scatter_parity():
    fp = gather_scatter()
    check("engine.gather_scatter", fp)
    assert fp["outcome"][0] == "ok"


def test_sanitize_vector_clock_parity():
    fp = sanitize_vector_clocks()
    check("engine.sanitize_vector_clocks", fp)
    assert len(fp["vector_clocks"]) == 3


def test_deadlock_report_parity():
    """Even the failure diagnostics are pinned: the planted deadlock
    produces the recorded CommVerificationError text."""
    fp = deadlock_report()
    check("engine.deadlock_report", fp)
    assert fp["outcome"][:2] == ["raised", "CommVerificationError"]
    assert "deadlock" in fp["outcome"][2]


def test_unknown_engine_rejected():
    """The engine option is gone: it fails as any unknown keyword does."""
    with pytest.raises(TypeError, match="engine"):
        VirtualCluster(2, NET, engine="threads")
