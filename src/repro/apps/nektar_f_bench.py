"""Table 2 / Figures 13-14 driver: NekTar-F weak scaling.

The paper runs the bluff-body turbulent simulation with the number of
Fourier planes adjusted so every processor holds exactly two planes
(one complex mode, ~461k dof/processor); with the per-processor
workload fixed, per-step timings should be constant — the departure
from constancy is pure communication (the Alltoall transposes of the
non-linear step).

The model composes (a) the per-processor compute cost — the serial
paper-size per-stage flops of :mod:`repro.apps.serial_bluff`, scaled to
three velocity components on a real/imaginary plane pair — with (b) the
communication cost of the six per-step MPI_Alltoall exchanges (three
velocity fields to the point decomposition and three non-linear fields
back) with the paper's message size Gamma/P x Nz/P, priced by each
system's network model.  TCP protocol overhead inflates *CPU* time on
the Ethernet clusters, which is why Table 2's RoadRunner-ethernet CPU
and wall columns diverge.

Run: ``python -m repro.apps.nektar_f_bench [--breakdown]``.
"""

from __future__ import annotations

from ..machines.catalog import MACHINES, MachineSpec
from ..ns.stages import STAGES
from ..reporting.tables import ascii_table, format_percentages
from .pricing import price_stages
from .serial_bluff import paper_stage_flops

__all__ = [
    "TABLE2_PAPER",
    "TABLE2_SYSTEMS",
    "PAPER_F",
    "step_times",
    "table2",
    "figure13_14",
    "main",
]

# Section 4.2.1: same 2-D mesh, spanwise length 2 pi, 2 planes/proc,
# 461k dof per processor.
PAPER_F = {
    "elements": 902,
    "order": 8,
    "dof_per_proc": 461_000,
    "planes_per_proc": 2,
    # Quadrature points per plane (the Alltoall payload unit).
    "nxy": 902 * (8 + 2) ** 2,
    # Alltoall exchanges per step: u, v, w out; Nu, Nv, Nw back.
    "exchanges": 6,
}

# Table 2 of the paper: P -> {system: (cpu, wall)}.
TABLE2_PAPER = {
    2: {
        "AP3000": (4.23, 4.31),
        "NCSA": (3.62, 3.63),
        "SP2-Silver": (4.92, 4.93),
        "SP2-Thin2": (5.74, 5.81),
        "RoadRunner eth.": (5.28, 5.81),
        "RoadRunner myr.": (3.99, 3.99),
        "Muses": (4.32, 4.757),
    },
    4: {
        "AP3000": (4.52, 4.59),
        "NCSA": (4.96, 4.99),
        "SP2-Silver": (5.94, 5.96),
        "SP2-Thin2": (5.91, 5.98),
        "RoadRunner eth.": (6.99, 8.27),
        "RoadRunner myr.": (4.15, 4.15),
        "Muses": (5.59, 6.2),
    },
    8: {
        "AP3000": (4.71, 4.79),
        "NCSA": (4.17, 4.2),
        "SP2-Silver": (6.53, 6.56),
        "SP2-Thin2": (6.18, 6.23),
        "RoadRunner eth.": (9.92, 11.47),
        "RoadRunner myr.": (4.27, 4.27),
    },
    16: {
        "AP3000": (4.63, 4.74),
        "NCSA": (5.12, 5.15),
        "SP2-Silver": (6.71, 6.74),
        "SP2-Thin2": (6.3, 6.39),
        "RoadRunner eth.": (18.47, 22.13),
        "RoadRunner myr.": (4.64, 4.66),
    },
    32: {
        "NCSA": (4.85, 4.88),
        "SP2-Silver": (6.95, 6.99),
        "RoadRunner eth.": (12.81, 23.865),
        "RoadRunner myr.": (4.606, 4.606),
    },
    64: {
        "NCSA": (4.24, 4.26),
        "SP2-Silver": (6.93, 6.93),
        "RoadRunner eth.": (13.13, 30.21),
        "RoadRunner myr.": (7.71, 7.71),
    },
    128: {
        "NCSA": (5.12, 5.16),
        "RoadRunner myr.": (11.14, 11.14),
    },
}

# System label -> (machine key, network kind).
TABLE2_SYSTEMS = {
    "AP3000": ("AP3000", "default"),
    "NCSA": ("NCSA", "default"),
    "SP2-Silver": ("SP2-Silver", "internode"),
    "SP2-Thin2": ("SP2-Thin2", "default"),
    "RoadRunner eth.": ("RoadRunner", "ethernet"),
    "RoadRunner myr.": ("RoadRunner", "myrinet"),
    "Muses": ("Muses", "lam"),
}


def _per_proc_stage_flops() -> dict[str, float]:
    """Per-processor per-step flops: the serial 2-D per-plane cost scaled
    to a real/imaginary plane pair of three velocity components.

    Vector/transform stages scale by 3 (3 components x 2 planes vs the
    serial 2 components x 1 plane); the pressure solve by 2 (re + im,
    one scalar field); the viscous solves by 3 (3 components x re/im
    over 2 planes sharing the factorisation).
    """
    serial = paper_stage_flops()
    factors = {
        "1:transform": 3.0,
        "2:nonlinear": 3.0,
        "3:average": 3.0,
        "4:pressure-rhs": 3.0,
        "5:pressure-solve": 2.0,
        "6:viscous-rhs": 3.0,
        "7:viscous-solve": 3.0,
    }
    return {s: f * factors[s] for s, f in serial.items()}


def message_bytes(nprocs: int) -> int:
    """Per-pair Alltoall message: (Gamma/P) x (Nz/P) doubles, with
    Gamma = Nxy quadrature points and Nz = 2P planes."""
    nxy = PAPER_F["nxy"]
    nz = PAPER_F["planes_per_proc"] * nprocs
    return int(nxy / nprocs * nz / nprocs * 8)


def step_times(system: str, nprocs: int) -> dict:
    """Model CPU and wall seconds per step for one system at P procs."""
    mkey, nkind = TABLE2_SYSTEMS[system]
    spec: MachineSpec = MACHINES[mkey]
    net = spec.network(nkind)
    stage_secs = price_stages(spec.cpu, _per_proc_stage_flops())
    m = message_bytes(nprocs)
    comm_wall = PAPER_F["exchanges"] * net.alltoall_time(nprocs, m)
    bytes_moved = PAPER_F["exchanges"] * 2.0 * (nprocs - 1) * m
    comm_cpu = (
        net.cpu_time_for_bytes(bytes_moved)
        + net.busy_wait_fraction * comm_wall
    )
    stage_cpu = dict(stage_secs)
    stage_wall = dict(stage_secs)
    stage_cpu["2:nonlinear"] += comm_cpu
    stage_wall["2:nonlinear"] += comm_wall + comm_cpu
    return {
        "cpu": sum(stage_cpu.values()),
        "wall": sum(stage_wall.values()),
        "stage_cpu": stage_cpu,
        "stage_wall": stage_wall,
    }


def _normalisation() -> float:
    """Anchor the model to the paper's NCSA 2-processor CPU time."""
    model = step_times("NCSA", 2)["cpu"]
    return TABLE2_PAPER[2]["NCSA"][0] / model


def table2() -> list[tuple]:
    """Rows: (P, system, model cpu/wall, paper cpu/wall)."""
    scale = _normalisation()
    rows = []
    for p in sorted(TABLE2_PAPER):
        for system, (pc, pw) in TABLE2_PAPER[p].items():
            t = step_times(system, p)
            rows.append(
                (
                    p,
                    system,
                    f"{t['cpu'] * scale:.2f}/{t['wall'] * scale:.2f}",
                    f"{pc}/{pw}",
                )
            )
    return rows


def figure13_14(nprocs: int = 4) -> dict[str, dict[str, float]]:
    """Per-stage CPU and wall percentages (Figures 13 and 14)."""
    out = {}
    for system in ("NCSA", "SP2-Silver", "RoadRunner eth.", "RoadRunner myr."):
        t = step_times(system, nprocs)
        for kind in ("cpu", "wall"):
            stages = t[f"stage_{kind}"]
            tot = sum(stages.values())
            out[f"{system} ({kind})"] = {
                s: 100.0 * stages[s] / tot for s in STAGES
            }
    return out


def main(argv=None) -> str:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--breakdown", action="store_true")
    parser.add_argument("--procs", type=int, default=4)
    args = parser.parse_args(argv)
    out = [
        ascii_table(
            ["P", "system", "model cpu/wall (s)", "paper cpu/wall (s)"],
            table2(),
            title="Table 2: NekTar-F CPU/wall-clock time per step (bluff body)",
        )
    ]
    if args.breakdown:
        out.append("")
        out.append(
            format_percentages(
                figure13_14(nprocs=args.procs),
                title=f"Figures 13-14: stage shares, {args.procs} processors",
            )
        )
    text = "\n".join(out)
    print(text)
    return text


if __name__ == "__main__":
    main()
