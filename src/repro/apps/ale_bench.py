"""Table 3 / Figures 15-16 driver: NekTar-ALE flapping-wing scaling.

The paper's strong-scaling case: a flapping NACA 4420 wing, 15,870
elements at polynomial order 4, 4,062,720 degrees of freedom, Re=1000.
The paper's solver is iterative (diagonally preconditioned CG) behind
a gather-scatter interface: per CG iteration the only communication is
a pairwise/binary-tree interface exchange plus two allreduce inner
products; *no Alltoall* (Section 4.2.2).  This module prices that
communication pattern as a closed formula.  It runs no solver,
partitioner or message, and its stage fractions and iteration counts
are typed in from the figures (EXPERIMENTS.md "Calibration inventory").

Model composition per step and processor:

* compute = TOTAL_FLOPS / P at the machine's application rate,
  inflated by a memory-pressure penalty when the per-processor working
  set exceeds node RAM (the paper: AP3000 and SP2-Thin2 "have such
  performance, due to marginal memory resources");
* communication = (CG iterations per step) x (two 8-byte allreduces +
  pairwise neighbour exchanges of the partition-interface dofs).

Stage grouping follows Figures 15-16: a = steps 1-4 and 6 (vector
work), b = step 5 (pressure CG), c = step 7 (velocity + mesh-velocity
CG).  TOTAL_FLOPS is calibrated once, to the NCSA 16-processor entry
(which per the paper's footnote ran on the 195 MHz Origins; 32-128
used the 250 MHz processors — the model switches CPU accordingly).

Run: ``python -m repro.apps.ale_bench [--breakdown 16|64]``.
"""

from __future__ import annotations

from ..machines.catalog import CPUS, MACHINES
from ..reporting.tables import ascii_table, format_percentages

__all__ = [
    "PAPER_ALE",
    "TABLE3_PAPER",
    "TABLE3_SYSTEMS",
    "step_times",
    "table3",
    "figure15_16",
    "main",
]

PAPER_ALE = {
    "elements": 15_870,
    "order": 4,
    "dofs": 4_062_720,
    "re": 1000,
    # Modes per tetrahedral element at order 4: (P+1)(P+2)(P+3)/6.
    "nmodes": 35,
    # CG iterations per timestep (pressure / 3 velocity / mesh velocity);
    # calibrated to the b:c split of Figures 15-16.
    "iters": {"pressure": 120, "viscous": 105, "mesh": 40},
    # Fraction of compute in the a/b/c stage groups (Figures 15-16).
    "fractions": {"a": 0.08, "b": 0.41, "c": 0.51},
    # Total flops per timestep, calibrated to NCSA@16 = 25.71 s.
    "total_flops": 33.7e9,
    # Working set: bytes per dof (fields, histories, geometric factors,
    # elemental operators) — sets the memory-pressure penalty.
    "bytes_per_dof": 800.0,
    # Non-scaling (replicated/serial) work per step as a fraction of the
    # one-processor compute: fitting T = C/P + sigma to the paper's own
    # NCSA column (32/64/128) gives ~1%.
    "serial_fraction": 0.01,
    # Face-coupled dofs per interface face at order 4 (tet faces).
    "dofs_per_face": 15,
    "neighbors": 6,
}

# Table 3 of the paper: P -> {system: (cpu, wall)}.
TABLE3_PAPER = {
    16: {
        "AP3000": (43.23, 43.674),
        "NCSA": (25.71, 25.79),
        "SP2-Silver": (29.59, 29.71),
        "SP2-Thin2": (65.47, 69.21),
        "RoadRunner myr.": (25.38, 25.4),
    },
    32: {
        "NCSA": (9.87, 10.08),
        "SP2-Silver": (15.82, 15.85),
        "RoadRunner myr.": (13.57, 13.58),
    },
    64: {
        "NCSA": (6.97, 6.99),
        "SP2-Silver": (9.37, 9.4),
        "RoadRunner myr.": (9.83, 9.87),
    },
    128: {
        "NCSA": (5.72, 6.04),
    },
}

TABLE3_SYSTEMS = {
    "AP3000": ("AP3000", "default"),
    "NCSA": ("NCSA", "default"),
    "SP2-Silver": ("SP2-Silver", "internode"),
    "SP2-Thin2": ("SP2-Thin2", "default"),
    "RoadRunner myr.": ("RoadRunner", "myrinet"),
}


def _ncsa_cpu(nprocs: int):
    """The paper's footnote: 16-processor NCSA runs used the 195 MHz
    Origins; 32-128 processor runs the 250 MHz ones."""
    return CPUS["r10000-195"] if nprocs <= 16 else CPUS["r10000-250"]


def _iface_bytes(nprocs: int) -> float:
    """Partition-interface payload per neighbour per exchange: surface
    scaling (elements/P)^(2/3) faces x dofs/face x 8 bytes."""
    faces = (PAPER_ALE["elements"] / nprocs) ** (2.0 / 3.0)
    return faces * PAPER_ALE["dofs_per_face"] * 8.0


def step_times(system: str, nprocs: int) -> dict:
    """Model CPU and wall seconds per ALE step for one system."""
    mkey, nkind = TABLE3_SYSTEMS[system]
    spec = MACHINES[mkey]
    cpu_model = _ncsa_cpu(nprocs) if system == "NCSA" else spec.cpu
    net = spec.network(nkind)

    required = PAPER_ALE["dofs"] * PAPER_ALE["bytes_per_dof"] / nprocs
    available = 0.75 * spec.ram_per_proc  # OS and code leave ~75% usable
    penalty = max(1.0, required / available)
    single = cpu_model.app_time(PAPER_ALE["total_flops"])
    compute = (
        single / nprocs * penalty + PAPER_ALE["serial_fraction"] * single
    )

    iters = sum(PAPER_ALE["iters"].values())
    per_iter = 2.0 * net.allreduce_time(nprocs, 8) + PAPER_ALE[
        "neighbors"
    ] * net.send_time(int(_iface_bytes(nprocs)))
    comm_wall = iters * per_iter
    comm_cpu = net.busy_wait_fraction * comm_wall + net.cpu_time_for_bytes(
        iters * PAPER_ALE["neighbors"] * _iface_bytes(nprocs) * 2.0
    )

    frac = PAPER_ALE["fractions"]
    it = PAPER_ALE["iters"]
    comm_b = comm_wall * it["pressure"] / iters
    comm_c = comm_wall * (it["viscous"] + it["mesh"]) / iters
    stage_cpu = {
        "a": compute * frac["a"],
        "b": compute * frac["b"] + comm_cpu * it["pressure"] / iters,
        "c": compute * frac["c"] + comm_cpu * (it["viscous"] + it["mesh"]) / iters,
    }
    stage_wall = {
        "a": compute * frac["a"],
        "b": compute * frac["b"] + comm_b,
        "c": compute * frac["c"] + comm_c,
    }
    return {
        "cpu": sum(stage_cpu.values()),
        "wall": sum(stage_wall.values()),
        "stage_cpu": stage_cpu,
        "stage_wall": stage_wall,
        "penalty": penalty,
    }


def _normalisation() -> float:
    return TABLE3_PAPER[16]["NCSA"][0] / step_times("NCSA", 16)["cpu"]


def table3() -> list[tuple]:
    scale = _normalisation()
    rows = []
    for p in sorted(TABLE3_PAPER):
        for system, (pc, pw) in TABLE3_PAPER[p].items():
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


def figure15_16(nprocs: int = 16) -> dict[str, dict[str, float]]:
    """Stage-group (a/b/c) percentage shares, CPU and wall (Figs 15-16)."""
    out = {}
    for system in ("NCSA", "RoadRunner myr."):
        t = step_times(system, nprocs)
        for kind in ("cpu", "wall"):
            stages = t[f"stage_{kind}"]
            tot = sum(stages.values())
            out[f"{system} ({kind})"] = {
                g: 100.0 * v / tot for g, v in stages.items()
            }
    return out


def main(argv=None) -> str:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--breakdown", type=int, default=0, metavar="P")
    args = parser.parse_args(argv)
    out = [
        ascii_table(
            ["P", "system", "model cpu/wall (s)", "paper cpu/wall (s)"],
            table3(),
            title="Table 3: NekTar-ALE 3D flapping-wing CPU/wall time per step",
        )
    ]
    if args.breakdown:
        out.append("")
        out.append(
            format_percentages(
                figure15_16(args.breakdown),
                title=f"Figures 15-16: ALE stage shares, {args.breakdown} processors",
            )
        )
    text = "\n".join(out)
    print(text)
    return text


if __name__ == "__main__":
    main()
