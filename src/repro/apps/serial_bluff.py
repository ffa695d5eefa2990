"""Table 1 / Figure 12 driver: serial bluff-body DNS cost per timestep.

Protocol:

1. Run the *real* serial solver (:class:`repro.ns.NavierStokes2D`) on a
   reduced bluff-body mesh for a few timesteps with full per-stage
   flop instrumentation.
2. Scale the per-stage flop counts to the paper's configuration (902
   elements, polynomial order 8, ~230k dof): vector/transform stages
   scale with the dof count; the banded-solve stages scale with
   dof x bandwidth, with the paper-size bandwidth obtained from the
   RCM-reordered sparsity pattern of the *actual* paper-size dof map.
3. Price the paper-size stages on every machine's CPU model
   (:mod:`repro.apps.pricing`) — Table 1; the per-stage shares are
   Figure 12.

Run as a script: ``python -m repro.apps.serial_bluff [--breakdown]``.
"""

from __future__ import annotations

import numpy as np

from ..assembly.dofmap import DofMap
from ..assembly.space import FunctionSpace
from ..machines.catalog import MACHINES
from ..mesh.generators import bluff_body_mesh
from ..ns.nektar2d import NavierStokes2D
from ..ns.stages import STAGES
from ..reporting.tables import ascii_table, format_percentages
from .pricing import price_stages, total_time

__all__ = [
    "PAPER_CONFIG",
    "TABLE1_PAPER",
    "TABLE1_MACHINES",
    "measure_reduced",
    "paper_stage_flops",
    "table1",
    "figure12",
    "main",
]

# Section 4.1: 902 elements, order 8, 230k dof (all fields), inflow u=1.
PAPER_CONFIG = {"elements": 902, "order": 8, "dofs": 230_000}

# Table 1 of the paper (seconds per time step).
TABLE1_PAPER = {
    "AP3000": 1.22,
    "Onyx2": 1.03,
    "Muses": 0.81,  # "Pentium II, 450Mhz"
    "SP2-Thin2": 1.44,
    "SP2-Silver": 1.3,
    "T3E": 0.82,
    "P2SC": 0.71,
}
TABLE1_MACHINES = list(TABLE1_PAPER)


def reduced_solver(m: int = 3, nr: int = 1, order: int = 5, dt: float = 5e-3):
    """The reduced-size bluff-body run (same physics, tractable size).

    The Table-1 flop-scaling protocol is calibrated against the
    tabulated (dense) elemental evaluation — the 1999 code's operator
    profile — so the sum-factorised fast path stays off here.
    """
    mesh = bluff_body_mesh(m=m, nr=nr)
    space = FunctionSpace(mesh, order, sumfact=False)
    one = lambda x, y, t: 1.0  # noqa: E731
    zero = lambda x, y, t: 0.0  # noqa: E731
    ns = NavierStokes2D(
        space,
        nu=0.01,
        dt=dt,
        velocity_bcs={"inflow": (one, zero), "wall": (zero, zero)},
        pressure_dirichlet=("outflow",),
    )
    ns.set_initial(one, zero)
    return ns


def measure_reduced(steps: int = 3, warmup: int = 2, **kw) -> dict:
    """Instrumented reduced run: per-step per-stage flops + geometry.

    Warm-up steps run first so the startup-ramp factorisations (one-time
    setup, outside the production time loop) are excluded.
    """
    ns = reduced_solver(**kw)
    ns.run(warmup)
    ns.reset_instrumentation()
    ns.run(steps)
    flops = {s: f / steps for s, f in ns.stage_flops().items()}
    return {
        "stage_flops": flops,
        "ndof": ns.space.ndof,
        "order": ns.space.order,
        "elements": ns.space.nelem,
        "bandwidth": ns.vel_solver.op.bandwidth,
        "solver": ns,
    }


def _paper_dofmap_stats(order: int = 8) -> dict:
    """Statistics of the actual paper-size discretisation.

    Builds the real ~900-element mesh and dof map at order 8, assembles
    the *sparsity pattern* of the statically condensed boundary system,
    and measures its RCM bandwidth — no matrices, so this is cheap.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    mesh = bluff_body_mesh(m=8, nr=4, refine=2)  # lands near 900 elements
    dm = DofMap(mesh, order)
    nb = dm.nboundary
    rows, cols = [], []
    for e in range(mesh.nelements):
        exp = dm.expansion(e)
        d = dm.elem_dofs[e][: len(exp.boundary_modes)]
        n = d.size
        rows.append(np.repeat(d, n))
        cols.append(np.tile(d, n))
    pat = sp.coo_matrix(
        (
            np.ones(sum(r.size for r in rows)),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(nb, nb),
    ).tocsr()
    perm = np.asarray(reverse_cuthill_mckee(pat, symmetric_mode=True))
    p = pat[np.ix_(perm, perm)].tocoo()
    kd = int(np.abs(p.row - p.col).max())
    nmodes = (order + 1) ** 2
    ni = (order - 1) ** 2
    nbe = nmodes - ni
    return {
        "ndof": dm.ndof,
        "nboundary": nb,
        "kd": kd,
        "elements": mesh.nelements,
        "nmodes": nmodes,
        "ni": ni,
        "nbe": nbe,
        "nq": (order + 2) ** 2,
    }


def _solve_flops(stats: dict) -> float:
    """Flops of one condensed direct solve: banded boundary sweep plus
    per-element condensation/back-substitution (4 ni^2 + 4 ni nbe)."""
    banded = 4.0 * stats["nboundary"] * stats["kd"]
    per_elem = stats["elements"] * (
        4.0 * stats["ni"] ** 2 + 4.0 * stats["ni"] * stats["nbe"]
    )
    return banded + per_elem


_CACHE: dict = {}


def paper_stage_flops(measured: dict | None = None) -> dict[str, float]:
    """Per-stage flops of one paper-size timestep.

    Transform/gradient-heavy stages (1, 2, 4, 6) scale with elements x
    modes x quadrature points; the pure-vector stage 3 with quadrature
    points; the solve stages use the analytic condensed-solve count at
    both sizes (validated against the measured reduced-run counts).
    """
    default_run = measured is None
    if default_run:
        if "paper_flops" in _CACHE:
            return dict(_CACHE["paper_flops"])
        measured = _CACHE.setdefault("measured", measure_reduced())
    stats_p = _CACHE.setdefault("paper_stats", _paper_dofmap_stats())
    ns = measured["solver"]
    order_r = measured["order"]
    stats_r = {
        "elements": measured["elements"],
        "nmodes": (order_r + 1) ** 2,
        "ni": (order_r - 1) ** 2,
        "nbe": (order_r + 1) ** 2 - (order_r - 1) ** 2,
        "nq": (order_r + 2) ** 2,
        "nboundary": ns.space.dofmap.nboundary,
        "kd": measured["bandwidth"],
    }
    work = lambda s: s["elements"] * s["nmodes"] * s["nq"]  # noqa: E731
    pts = lambda s: s["elements"] * s["nq"]  # noqa: E731
    ratios = {
        "1:transform": work(stats_p) / work(stats_r),
        "2:nonlinear": work(stats_p) / work(stats_r),
        "3:average": pts(stats_p) / pts(stats_r),
        "4:pressure-rhs": work(stats_p) / work(stats_r),
        "6:viscous-rhs": work(stats_p) / work(stats_r),
    }
    solve_ratio = _solve_flops(stats_p) / _solve_flops(stats_r)
    out = {}
    for stage, flops in measured["stage_flops"].items():
        if stage in ("5:pressure-solve", "7:viscous-solve"):
            out[stage] = flops * solve_ratio
        else:
            out[stage] = flops * ratios[stage]
    if default_run:
        _CACHE["paper_flops"] = out
    return dict(out)


def table1(normalize: bool = True) -> list[tuple]:
    """Rows: (machine, model s/step, paper s/step)."""
    flops = paper_stage_flops()
    rows = []
    model_times = {}
    for mkey in TABLE1_MACHINES:
        cpu = MACHINES[mkey].cpu
        model_times[mkey] = total_time(price_stages(cpu, flops))
    scale = TABLE1_PAPER["Muses"] / model_times["Muses"] if normalize else 1.0
    for mkey in TABLE1_MACHINES:
        rows.append(
            (
                MACHINES[mkey].cpu.name,
                round(model_times[mkey] * scale, 3),
                TABLE1_PAPER[mkey],
            )
        )
    return rows


def figure12(machines=("Onyx2", "Muses")) -> dict[str, dict[str, float]]:
    """Per-stage percentage breakdown per machine (Figure 12)."""
    flops = paper_stage_flops()
    out = {}
    for mkey in machines:
        cpu = MACHINES[mkey].cpu
        secs = price_stages(cpu, flops)
        tot = total_time(secs)
        out[cpu.name] = {s: 100.0 * secs[s] / tot for s in STAGES}
    return out


def main(argv=None) -> str:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--breakdown", action="store_true", help="Figure 12")
    args = parser.parse_args(argv)
    out = []
    out.append(
        ascii_table(
            ["Machine", "model s/step (normalised)", "paper s/step"],
            table1(),
            title="Table 1: CPU time for serial algorithm bluff body simulation",
        )
    )
    if args.breakdown:
        out.append("")
        out.append(
            format_percentages(
                figure12(),
                title="Figure 12: percentage of each stage within a time step",
            )
        )
    text = "\n".join(out)
    print(text)
    return text


if __name__ == "__main__":
    main()
