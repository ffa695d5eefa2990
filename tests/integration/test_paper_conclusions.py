"""Section 5's six conclusions, asserted against the reproduction.

"It may be concluded that: ..." — each bullet of the paper's Discussion
and Conclusions becomes an executable check against the models and
drivers, so the headline narrative cannot silently drift as the code
evolves.
"""


from repro.apps.ale_bench import step_times as ale_times
from repro.apps.nektar_f_bench import step_times as f_times
from repro.apps.serial_bluff import table1
from repro.machines.catalog import CPUS, NETWORKS

from ..golden import check


def test_1_pc_kernel_level_competitive_but_below_t3e_p2sc():
    """"The single-processor kernel-level performance of the PC is not
    as good as the high-end supercomputers, such as the T3E or the IBM
    SP2-P2SC.  It compares well, though, to the rest of the systems." """
    pc = CPUS["pentium-ii-450"]
    for routine, n in (("dgemm", 300), ("dgemv", 100)):
        assert pc.blas_rate(routine, n) < CPUS["alpha21164-450"].blas_rate(routine, n)
    # Compares well to the rest: within 2x of every mid-range machine
    # on the dominant kernels.
    for key in ("ppc604e-332", "r10000-195", "ultrasparc-300", "power2-66"):
        for routine, n in (("daxpy", 15000), ("ddot", 400)):
            assert pc.blas_rate(routine, n) > 0.5 * CPUS[key].blas_rate(routine, n)


def test_2_ethernet_not_competitive_with_supercomputer_networks():
    """"Ethernet-based networks are not competitive to supercomputer
    networks, if latency and bandwidth are considered." """
    eth = NETWORKS["Muses, LAM"]
    for name in ("T3E", "SP2-Silver, internode", "AP3000", "Onyx2", "NCSA"):
        net = NETWORKS[name]
        assert eth.latency_us > net.latency_us
        assert eth.bandwidth < 0.5 * net.bandwidth


def test_3_myrinet_competitive_at_low_to_medium_sizes():
    """"Myrinet-based networks are competitive to supercomputer networks
    at low to medium message sizes according to the kernel level tests." """
    myr = NETWORKS["RoadRunner, myr-internode"]
    for name in ("SP2-Silver, internode", "AP3000", "SP2-Thin2"):
        net = NETWORKS[name]
        # Latency-dominated regime: within ~1.15x of the SP switch and
        # ahead of AP-Net / TB2.
        assert myr.send_time(128) < 1.15 * net.send_time(128)
    # ... but it loses at large messages (the paper's caveat).
    assert myr.send_time(4 << 20) > NETWORKS["SP2-Silver, internode"].send_time(
        4 << 20
    )


def test_4_pc_serial_superior_except_t3e_p2sc():
    """"Use of PC's for serial algorithms indicate superior performance
    of the PC's to most supercomputers, apart from the T3E and IBM
    SP2-P2SC." """
    rows = {name: t for name, t, _ in table1()}
    pc = rows["Pentium II, 450MHz"]
    faster = [name for name, t in rows.items() if t < pc]
    assert set(faster) <= {"P2SC, 160MHz", "Alpha 21164A, 450MHz (T3E)"}
    slower = [name for name, t in rows.items() if t > 1.05 * pc]
    assert len(slower) >= 4  # most supercomputers


def test_5_ethernet_parallel_inefficient_above_four_procs():
    """"Parallel simulations using ethernet-based networks indicate
    inefficiency in communications above four processors.  Internal
    timings indicate that the bottle-neck is due to MPI Alltoall." """
    t4 = f_times("RoadRunner eth.", 4)
    t16 = f_times("RoadRunner eth.", 16)
    assert t16["wall"] > 2.0 * t4["wall"]
    # The bottleneck sits in stage 2 (the Alltoall stage).
    growth = {
        s: t16["stage_wall"][s] - t4["stage_wall"][s] for s in t4["stage_wall"]
    }
    assert max(growth, key=growth.get) == "2:nonlinear"


def test_6_myrinet_parallel_competitive():
    """"Parallel simulations using myrinet-based networks are
    competitive to supercomputers" (NekTar-F weak scaling and ALE
    strong scaling)."""
    for p in (4, 16, 32):
        myr = f_times("RoadRunner myr.", p)["wall"]
        silver = f_times("SP2-Silver", p)["wall"]
        assert myr < 1.1 * silver
    # ALE at 16 processors: the PC cluster leads (Table 3).
    assert (
        ale_times("RoadRunner myr.", 16)["cpu"]
        <= ale_times("NCSA", 16)["cpu"] * 1.01
    )


def test_overall_not_by_far():
    """"PC clusters are less efficient than supercomputers, yet not by
    far."  Quantified: the PC cluster stays within 2x of the best
    supercomputer on every parallel workload we model."""
    for p in (2, 4, 8, 16, 32, 64):
        myr = f_times("RoadRunner myr.", p)["wall"]
        best = min(
            f_times(s, p)["wall"]
            for s in ("NCSA", "SP2-Silver", "SP2-Thin2")
        )
        assert myr < 2.0 * best, p


def table1_stage_flops():
    """Paper-size per-stage flops scaled up from the instrumented
    reduced run, and the Table 1 column they price to."""
    from repro.apps.pricing import price_stages, total_time
    from repro.apps.serial_bluff import (
        TABLE1_MACHINES,
        measure_reduced,
        paper_stage_flops,
    )
    from repro.machines.catalog import MACHINES

    flops = paper_stage_flops(measure_reduced())
    return {
        "stage_flops": flops,
        "table1_s": {
            m: total_time(price_stages(MACHINES[m].cpu, flops))
            for m in TABLE1_MACHINES
        },
    }


def nektar_f_step_flops():
    """Op totals and solution checksums of a short NekTar-F run."""
    import numpy as np

    from repro.assembly.space import FunctionSpace
    from repro.linalg.counters import OpCounter
    from repro.machines.network import NetworkModel
    from repro.mesh.generators import rectangle_quads
    from repro.ns.nektar_f import NekTarF
    from repro.parallel.simmpi import VirtualCluster

    def rank_fn(comm):
        space = FunctionSpace(rectangle_quads(2, 2), 3)
        one = lambda m, x, y, t: 1.0 if m == 0 else 0.0  # noqa: E731
        zero = lambda m, x, y, t: 0.0  # noqa: E731
        bcs = {t: (one, zero, zero) for t in ("left", "top", "bottom")}
        nf = NekTarF(
            comm, space, nz=4, nu=0.02, dt=1e-3, velocity_bcs=bcs,
            pressure_dirichlet=("right",),
        )
        nf.set_initial(one, zero, zero)
        with OpCounter() as c:
            nf.run(2)
        snap = c.snapshot()
        return {
            "charges": [snap.flops, snap.bytes, snap.label_charges()],
            "state": [float(np.abs(f).sum()) for f in (nf.u_hat, nf.p_hat)],
        }

    net = NetworkModel("t", latency_us=5, bandwidth=1e9)
    return VirtualCluster(1, net).run(rank_fn)[0]


GOLDEN_SECTIONS = {
    "paper.table1_stage_flops": table1_stage_flops,
    "paper.nektar_f_step_flops": nektar_f_step_flops,
}


def test_batching_leaves_cost_tables_unchanged():
    """Golden regression: the reproduced per-timestep cost model — the
    serial bluff-body stage flops, which also drive the NekTar-F
    weak-scaling table via ``nektar_f_bench._per_proc_stage_flops`` —
    is what the per-element execution path charged."""
    check("paper.table1_stage_flops", table1_stage_flops())


def test_batching_leaves_nektar_f_step_flops_unchanged():
    """Golden regression on the 3-D solver itself: identical op totals
    to the per-element path, same solution to round-off."""
    fp = nektar_f_step_flops()
    check("paper.nektar_f_step_flops/charges", fp["charges"])
    check("paper.nektar_f_step_flops/state", fp["state"], rel=1e-9, abs_tol=1e-9)
