"""Single public calls, timed alone at each workload's own shapes.

Run by ``child.py --mode isolated`` after the untraced measurement, in
the same (warm) process.  Each entry times one call into one layer so a
later change can be pinned to it: the median over at least 30 calls
after one warm-up call, or over as many calls as fit in ``BUDGET_S``
(never fewer than 3) for the set-up calls that take longer.

A workload reports only the calls it makes; every other per-layer
metric of that workload reads 0.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import statistics
import subprocess
import sys
import time
from typing import Any, Callable

import numpy as np

__all__ = ["BY_WORKLOAD"]

BUDGET_S = 0.4
MIN_CALLS = 30


def timeit(fn: Callable[[], Any], budget_s: float = BUDGET_S) -> float:
    """Median host seconds of one ``fn()`` call."""
    fn()
    samples: list[float] = []
    spent = 0.0
    while len(samples) < MIN_CALLS and (spent < budget_s or len(samples) < 3):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]
    return statistics.median(samples)


# -- shared pieces ------------------------------------------------------------


def _space_calls(out: dict[str, float], space, build: Callable[[], Any]) -> None:
    """assembly transforms and the spectral tabulation under them."""
    from repro.spectral import QuadExpansion, TriExpansion

    order = space.order
    out["spectral.expansion_build_ms"] = 1e3 * timeit(
        lambda: (QuadExpansion(order), TriExpansion(order))
    )
    out["assembly.space_build_ms"] = 1e3 * timeit(build)
    rng = np.random.default_rng(0)
    u_hat = rng.standard_normal(space.ndof)
    vals = rng.standard_normal((space.nelem, space.nq))
    out["assembly.backward_us"] = 1e6 * timeit(lambda: space.backward(u_hat))
    out["assembly.gradient_us"] = 1e6 * timeit(lambda: space.gradient(u_hat))
    out["assembly.load_vector_us"] = 1e6 * timeit(lambda: space.load_vector(vals))


def _direct_calls(out: dict[str, float], space, tags: tuple[str, ...]) -> None:
    """Condensed direct Helmholtz: set-up, solves, and the banded kernel."""
    from repro.assembly.condensation import CondensedOperator
    from repro.linalg.banded import BandedSPDSolver
    from repro.solvers.helmholtz import HelmholtzDirect

    lam = 100.0
    out["solvers.helmholtz_direct_setup_ms"] = 1e3 * timeit(
        lambda: HelmholtzDirect(space, lam, tags)
    )
    solver = HelmholtzDirect(space, lam, tags)
    mats = solver.elem_mats
    out["assembly.condensed_setup_ms"] = 1e3 * timeit(
        lambda: CondensedOperator(space, mats, solver.dirichlet_dofs)
    )
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal((6, space.ndof))
    out["solvers.helmholtz_direct_solve_rhs_us"] = 1e6 * timeit(
        lambda: solver.solve_rhs(rhs[0])
    )
    six = timeit(lambda: solver.solve_rhs(rhs))
    out["solvers.helmholtz_direct_solve_rhs6_us"] = 1e6 * six
    out["assembly.condensed_solve_us_per_rhs"] = 1e6 * six / 6
    # The boundary system's banded kernel, on a synthetic diagonally
    # dominant matrix of the workload's own size and bandwidth.
    n, kd = solver.op.solver.n, solver.op.solver.kd
    ab = np.full((kd + 1, n), 0.25 / max(1, kd))
    ab[kd] = 1.0
    out["linalg.banded_factor_ms"] = 1e3 * timeit(lambda: BandedSPDSolver.from_banded(ab))
    banded = BandedSPDSolver.from_banded(ab)
    b = rng.standard_normal((6, n))
    out["linalg.banded_solve_us"] = 1e6 * timeit(lambda: banded.solve(b[0]))
    out["linalg.banded_solve_many_us_per_rhs"] = 1e6 * timeit(
        lambda: banded.solve_many(b)
    ) / 6


def _bluff(shape: dict) -> Any:
    from repro.mesh.generators import bluff_body_mesh

    return bluff_body_mesh(m=shape["m"], nr=shape["nr"], refine=shape.get("refine", 1))


# -- per workload --------------------------------------------------------------


def paper_artifacts(h) -> dict[str, float]:
    from repro.apps.pricing import price_stages
    from repro.apps.serial_bluff import paper_stage_flops
    from repro.machines.catalog import MACHINES, NETWORKS

    out: dict[str, float] = {}
    # Cold import cost, split by `-X importtime` (cumulative microseconds).
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.apps"],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    cumulative = {
        m.group(2).strip(): int(m.group(1))
        for m in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \|( *\S+)", proc.stderr)
    }
    out["apps.import_s"] = cumulative.get("repro.apps", 0) / 1e6
    out["mesh.import_networkx_ms"] = cumulative.get("networkx", 0) / 1e3
    flops = paper_stage_flops()
    cpu = MACHINES["Muses"].cpu
    out["machines.price_stages_us"] = 1e6 * timeit(lambda: price_stages(cpu, flops))
    net = NETWORKS["RoadRunner, myr-internode"]
    out["machines.alltoall_time_us"] = 1e6 * timeit(lambda: net.alltoall_time(64, 4096))
    return out


def serial_bluff(h) -> dict[str, float]:
    from repro.assembly.space import FunctionSpace

    out: dict[str, float] = {}
    s = h.shape
    out["mesh.bluff_build_ms"] = 1e3 * timeit(lambda: _bluff(s))
    mesh = _bluff(s)
    build = lambda: FunctionSpace(mesh, s["order"], sumfact=False)  # noqa: E731
    space = build()
    _space_calls(out, space, build)
    _direct_calls(out, space, ("inflow", "wall"))
    return out


def nektar_f_weak(h) -> dict[str, float]:
    from repro.assembly.space import FunctionSpace
    from repro.fourier.pipeline import FusedFourierPipeline
    from repro.fourier.transforms import fft_z, ifft_z, mode_blocks
    from repro.machines.catalog import NETWORKS
    from repro.parallel.simmpi import VirtualCluster

    out: dict[str, float] = {}
    s = h.shape
    out["mesh.bluff_build_ms"] = 1e3 * timeit(lambda: _bluff(s))
    mesh, tags = _bluff(s), ("inflow", "side", "wall")
    build = lambda: FunctionSpace(mesh, s["order"])  # noqa: E731
    space = build()
    _space_calls(out, space, build)
    _direct_calls(out, space, tags)

    nz, nprocs = s["nz"], s["nprocs"]
    npts = space.nelem * space.nq
    rng = np.random.default_rng(2)
    phys = rng.standard_normal((npts // nprocs, nz))
    out["fourier.fft_z_us"] = 1e6 * timeit(lambda: fft_z(phys))
    modes = fft_z(phys)
    out["fourier.ifft_z_us"] = 1e6 * timeit(lambda: ifft_z(modes, nz))

    def stage2(comm):
        """to_physical + products + to_modal on the step's 12 fields."""
        my = mode_blocks(nz // 2, comm.size)[comm.rank]
        r = np.random.default_rng(comm.rank)
        fields = [
            r.standard_normal((len(my), npts)) + 1j * r.standard_normal((len(my), npts))
            for _ in range(12)
        ]
        pipe = FusedFourierPipeline()
        times = []
        for _ in range(8):
            comm.barrier()
            t0 = time.perf_counter()
            p = pipe.to_physical(comm, fields, nz)
            prods = [
                -(p[0] * p[3 * k + 3] + p[1] * p[3 * k + 4] + p[2] * p[3 * k + 5])
                for k in range(3)
            ]
            pipe.to_modal(comm, prods, npts, nz)
            comm.barrier()
            times.append(time.perf_counter() - t0)
        return statistics.median(times[1:])

    cluster = VirtualCluster(nprocs, NETWORKS["RoadRunner, myr-internode"])
    out["fourier.stage2_ms"] = 1e3 * cluster.run(stage2)[0]
    return out


def ale_cg(h) -> dict[str, float]:
    from repro.assembly.space import FunctionSpace
    from repro.mesh.generators import wing_mesh
    from repro.solvers.helmholtz import HelmholtzCG

    out: dict[str, float] = {}
    s = h.shape
    out["mesh.wing_build_ms"] = 1e3 * timeit(lambda: wing_mesh(m=s["m"], nr=s["nr"]))
    mesh = wing_mesh(m=s["m"], nr=s["nr"])
    build = lambda: FunctionSpace(mesh, s["order"])  # noqa: E731
    space = build()
    _space_calls(out, space, build)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((6, space.ndof))
    lam = 100.0
    out["assembly.operator_apply_us"] = 1e6 * timeit(
        lambda: space.operator_apply("helmholtz", u[0], lam)
    )
    out["assembly.operator_apply_block_us"] = 1e6 * timeit(
        lambda: space.operator_apply("helmholtz", u, lam)
    )
    out["assembly.operator_diagonal_ms"] = 1e3 * timeit(
        lambda: space.operator_diagonal("helmholtz", lam)
    )
    tags = ("inflow", "wall")
    out["solvers.helmholtz_cg_setup_ms"] = 1e3 * timeit(
        lambda: HelmholtzCG(space, lam, tags, tol=1e-9)
    )
    solver = HelmholtzCG(space, lam, tags, tol=1e-9)
    rhs = space.load_vector(rng.standard_normal((space.nelem, space.nq)))
    solve_s = timeit(lambda: solver.solve_rhs(rhs))
    out["solvers.helmholtz_cg_solve_ms"] = 1e3 * solve_s
    out["linalg.pcg_us_per_iter"] = 1e6 * solve_s / max(1, solver.last_iterations)
    return out


def simmpi_scale(h) -> dict[str, float]:
    from repro import obs
    from repro.apps import scaling_bench as sb
    from repro.parallel.simmpi import VirtualCluster

    out: dict[str, float] = {}
    ranks = [p for p, _ in h.shape["ring"]]
    for p in ranks:
        out[f"parallel.cluster_start_ms.{p}"] = 1e3 * timeit(
            lambda: VirtualCluster(p, network=sb.NETWORK).run(lambda comm: None)
        )
    big = ranks[-1]
    # One Alltoall at the largest rank count: P*(P-1) pair messages.
    t0 = time.perf_counter()
    VirtualCluster(big, network=sb.NETWORK).run(sb.alltoall_program((64,)))
    out[f"parallel.alltoall_us_per_rank_call.{big}"] = (
        1e6 * (time.perf_counter() - t0) / big
    )
    out["machines.alltoall_time_us"] = 1e6 * timeit(
        lambda: sb.NETWORK.alltoall_time(256, 4096)
    )

    # Observers on / off over the same program; base = the bare cluster.
    mid = ranks[len(ranks) // 2]

    def program(comm):
        sb._ring_program(4)(comm)
        return sb.alltoall_program((64,))(comm)

    def cost(**observers) -> float:
        return timeit(
            lambda: VirtualCluster(mid, network=sb.NETWORK, **observers).run(program)
        )

    bare = cost(verify=False)
    out["parallel.verify_overhead_ratio"] = cost(verify=True) / bare
    out["parallel.sanitize_overhead_ratio"] = cost(verify=False, sanitize=True) / bare
    out["obs.tracer_overhead_ratio"] = cost(verify=False, trace=obs.Trace()) / bare
    recorder = obs.CritPathRecorder()
    out["obs.critpath_overhead_ratio"] = cost(verify=False, critpath=recorder) / bare
    cluster = VirtualCluster(mid, network=sb.NETWORK, verify=False)
    cluster.run(program)
    out["parallel.idle_virtual_s"] = sum(st.wall - st.cpu for st in cluster.ranks)
    return out


def campaign_sweep(h) -> dict[str, float]:
    from repro import obs
    from repro.campaign.workloads import WORKLOADS as SHAPES
    from repro.campaign.cache import OperatorCache
    from repro.machines.catalog import MACHINES, NETWORKS
    from repro.obs.critpath import EventGraph
    from repro.parallel.simmpi import VirtualCluster

    out: dict[str, float] = {}
    s = h.shape
    nx, ny, order = s["helmholtz"]
    params = {"nx": nx, "ny": ny, "order": order, "lam": 1.0}
    # The build a cache miss pays (and 5 of 6 helmholtz jobs skip).
    out["solvers.helmholtz_direct_setup_ms"] = 1e3 * timeit(
        lambda: SHAPES["helmholtz"](params, "RoadRunner", OperatorCache())
    )
    # One recorded job graph: analysis, re-pricing, serialisation.
    recorder = obs.CritPathRecorder()
    rank_fn = SHAPES["alltoall"]({"ndoubles": [64, 512, 64, 512]}, "RoadRunner", None)
    VirtualCluster(
        s["nprocs"], network=NETWORKS[s["networks"][0]],
        cpu=MACHINES["RoadRunner"].cpu, critpath=recorder,
    ).run(rank_fn)
    graph = recorder.graph
    other = NETWORKS[s["networks"][-1]]
    out["obs.analyze_ms_per_graph"] = 1e3 * timeit(lambda: obs.analyze(graph))
    out["obs.swap_network_us_per_graph"] = 1e6 * timeit(
        lambda: obs.swap_network(graph, other, cpu_scale=1.0)
    )
    out["obs.graph_roundtrip_ms"] = 1e3 * timeit(
        lambda: EventGraph.from_dict(json.loads(json.dumps(graph.to_dict())))
    )
    # The ledger: appends, then a scan of as many records as the sweep has jobs.
    ledger = obs.RunLedger(h.tmpdir() / "isolated-ledger.jsonl")
    njobs = len(s["machines"]) * len(s["networks"]) * len(s["fault_plans"]) * 3
    serial = itertools.count()
    append = lambda: ledger.append(  # noqa: E731
        "isolated", {"job": next(serial)}, values={"x": 1.0}, timings={"elapsed_s": 0.1}
    )
    for _ in range(njobs):
        append()
    out["obs.ledger_append_us"] = 1e6 * timeit(append)
    out["obs.ledger_scan_ms"] = 1e3 * timeit(lambda: ledger.records())
    return out


BY_WORKLOAD: dict[str, Callable[[Any], dict[str, float]]] = {
    "paper_artifacts": paper_artifacts,
    "serial_bluff": serial_bluff,
    "nektar_f_weak": nektar_f_weak,
    "ale_cg": ale_cg,
    "simmpi_scale": simmpi_scale,
    "campaign_sweep": campaign_sweep,
}

