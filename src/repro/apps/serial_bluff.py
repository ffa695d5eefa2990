"""Table 1 / Figure 12 driver: serial bluff-body DNS cost per timestep.

Protocol:

1. Run the *real* serial solver (:class:`repro.ns.NavierStokes2D`) on a
   reduced bluff-body mesh for a few timesteps with full per-stage
   flop instrumentation.
2. Scale the per-stage flop counts to the paper's size (902 elements,
   polynomial order 8, ~230k dof) through the statistics of an actual
   paper-size dof map — a 1 216-element bluff-body mesh at order 8:
   vector/transform stages scale with the dof count; the banded-solve
   stages scale with dof x bandwidth, the bandwidth obtained from the
   RCM-reordered sparsity pattern of that dof map.
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


def reduced_solver(m: int = 3, nr: int = 1, order: int = 5):
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
        dt=5e-3,
        velocity_bcs={"inflow": (one, zero), "wall": (zero, zero)},
        pressure_dirichlet=("outflow",),
    )
    ns.set_initial(one, zero)
    return ns


def measure_reduced() -> dict:
    """Instrumented reduced run: per-step per-stage flops + geometry.

    Two warm-up steps run first so the startup-ramp factorisations
    (one-time setup, outside the production time loop) are excluded;
    the flops are the mean of the three steps after them.
    """
    ns = reduced_solver()
    ns.run(2)
    ns.reset_instrumentation()
    steps = 3
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


def _boundary_dofs(dm: DofMap) -> list[np.ndarray]:
    """Per element kind, the (n, nb_e) stack of its elements' boundary
    (vertex + edge) dofs."""
    return [st.dofs[:, : len(st.exp.boundary_modes)] for st in dm.stacks]


def _condensed_pattern(dm: DofMap):
    """Sparsity pattern of the statically condensed boundary system.

    It is the union of one dense clique per element over the element's
    boundary dofs, i.e. ``E^T E`` for the element x boundary-dof
    incidence matrix ``E`` (entries count the elements sharing a pair);
    returned in canonical CSR form (sorted indices).
    """
    import scipy.sparse as sp

    bdofs = _boundary_dofs(dm)
    nbe = np.concatenate([np.full(b.shape[0], b.shape[1]) for b in bdofs])
    indptr = np.concatenate(([0], np.cumsum(nbe)))
    cols = np.concatenate([b.ravel() for b in bdofs])
    incidence = sp.csr_matrix(
        (np.ones(cols.size), cols, indptr), shape=(nbe.size, dm.nboundary)
    )
    # E^T E is symmetric, so the product's CSC arrays are its CSR ones:
    # transposing is free where a CSC -> CSR conversion is not.
    pattern = (incidence.T @ incidence).T.tocsr()
    pattern.sort_indices()
    return pattern


def _rcm_bandwidth(pattern, bdofs: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """RCM permutation of ``pattern`` and the half-bandwidth it leaves.

    The pattern is a union of element cliques, so the widest entry of
    the permuted matrix is the largest spread of one element's boundary
    dofs in the new numbering: a min/max per element, no permuted copy.
    """
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    perm = np.asarray(reverse_cuthill_mckee(pattern, symmetric_mode=True))
    new = np.empty_like(perm)
    new[perm] = np.arange(perm.size, dtype=perm.dtype)
    kd = max(int((new[b].max(axis=1) - new[b].min(axis=1)).max()) for b in bdofs)
    return perm, kd


def _paper_dofmap_stats(order: int = 8) -> dict:
    """Statistics of the actual paper-size discretisation.

    Builds the real 1 216-element mesh (78 592 dof per field at order
    8) and its dof map, forms the ~1.06M-entry sparsity pattern of the
    statically condensed boundary system, and measures its RCM
    bandwidth, all as whole-array operations over the dof map's
    per-kind stacks.
    """
    # 1 216 elements: Table 1 is scaled from this mesh, Table 2 prices
    # the paper's 902 (EXPERIMENTS, "Known deviations" 5).
    mesh = bluff_body_mesh(m=8, nr=4, refine=2)
    dm = DofMap(mesh, order)
    nb = dm.nboundary
    _perm, kd = _rcm_bandwidth(_condensed_pattern(dm), _boundary_dofs(dm))
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


def paper_stage_flops() -> dict[str, float]:
    """Per-stage flops of one paper-size timestep, scaled from
    :func:`measure_reduced` (both measured once per process).

    Transform/gradient-heavy stages (1, 2, 4, 6) scale with elements x
    modes x quadrature points; the pure-vector stage 3 with quadrature
    points; the solve stages use the analytic condensed-solve count at
    both sizes (validated against the measured reduced-run counts).
    """
    if "paper_flops" in _CACHE:
        return dict(_CACHE["paper_flops"])
    measured = measure_reduced()
    stats_p = _paper_dofmap_stats()
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
    _CACHE["paper_flops"] = out
    return dict(out)


def table1() -> list[tuple]:
    """Rows: (machine, model s/step, paper s/step), the model times
    normalised to the paper's Muses time."""
    flops = paper_stage_flops()
    rows = []
    model_times = {}
    for mkey in TABLE1_MACHINES:
        cpu = MACHINES[mkey].cpu
        model_times[mkey] = total_time(price_stages(cpu, flops))
    scale = TABLE1_PAPER["Muses"] / model_times["Muses"]
    for mkey in TABLE1_MACHINES:
        rows.append(
            (
                MACHINES[mkey].cpu.name,
                round(model_times[mkey] * scale, 3),
                TABLE1_PAPER[mkey],
            )
        )
    return rows


def figure12() -> dict[str, dict[str, float]]:
    """Per-stage percentage breakdown on the Onyx2 and the PC (Figure 12)."""
    flops = paper_stage_flops()
    out = {}
    for mkey in ("Onyx2", "Muses"):
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
