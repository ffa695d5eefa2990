"""Section 5 quantified: cost-effectiveness of PC clusters vs supercomputers.

The paper's conclusion is economic: "Low number of processor
ethernet-based networks are slower, yet provide better
cost-effectiveness than myrinet-based networks, which are cost-effective
for high number of processor simulations."  This driver turns the
reproduced Table 1/2 performance into performance-per-dollar using
documented 1999 list-price estimates.

Prices (``PRICES_1999``, kept in :mod:`repro.machines.catalog` beside
the machines they price) are order-of-magnitude 1999 figures (the paper
gives only the Muses number, "less than $10,000"): commodity nodes
~$2.5k each, a Myrinet NIC+switch share ~$1.8k/node, and supercomputers
at their published per-node system prices.  The point of the exercise is the
*ratio structure* — PC clusters win by an order of magnitude on
price/performance — which is robust to these estimates.

Run: ``python -m repro.apps.cost_of_ownership``.
"""

from __future__ import annotations

from ..machines.catalog import MACHINES, PRICES_1999
from ..reporting.tables import ascii_table
from .nektar_f_bench import step_times
from .serial_bluff import paper_stage_flops
from .pricing import price_stages, total_time

__all__ = ["PRICES_1999", "serial_cost_table", "parallel_cost_table", "main"]


def serial_cost_table() -> list[tuple]:
    """Single-processor DNS throughput per dollar (Table 1 workload)."""
    flops = paper_stage_flops()
    rows = []
    entries = {
        "Muses": "Muses",
        "SP2-Thin2": "SP2-Thin2",
        "SP2-Silver": "SP2-Silver",
        "P2SC": "P2SC",
        "Onyx2": "Onyx2",
        "AP3000": "AP3000",
        "T3E": "T3E",
    }
    for label, mkey in entries.items():
        cpu = MACHINES[mkey].cpu
        t = total_time(price_stages(cpu, flops))
        steps_per_s = 1.0 / t
        price = PRICES_1999[label]
        rows.append((cpu.name, round(t, 3), price, round(1e6 * steps_per_s / price, 2)))
    rows.sort(key=lambda r: -r[-1])
    return rows


def parallel_cost_table(nprocs: int = 4) -> list[tuple]:
    """NekTar-F throughput per dollar at P processors (Table 2 workload)."""
    cases = {
        "Muses": ("Muses", "Muses"),
        "RoadRunner eth.": ("RoadRunner eth.", "RoadRunner-eth"),
        "RoadRunner myr.": ("RoadRunner myr.", "RoadRunner-myr"),
        "SP2-Silver": ("SP2-Silver", "SP2-Silver"),
        "SP2-Thin2": ("SP2-Thin2", "SP2-Thin2"),
        "NCSA": ("NCSA", "NCSA"),
        "AP3000": ("AP3000", "AP3000"),
    }
    rows = []
    for label, (system, price_key) in cases.items():
        if label == "Muses" and nprocs > 4:
            continue
        t = step_times(system, nprocs)["wall"]
        price = nprocs * PRICES_1999[price_key]
        rows.append(
            (label, nprocs, round(t, 2), price, round(1e6 / (t * price), 2))
        )
    rows.sort(key=lambda r: -r[-1])
    return rows


def main(argv=None) -> str:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--procs", type=int, default=4)
    args = parser.parse_args(argv)
    out = [
        ascii_table(
            ["Machine", "s/step", "est. $(1999)/proc", "steps/s per M$"],
            serial_cost_table(),
            title="Serial DNS cost-effectiveness (Table 1 workload)",
        ),
        "",
        ascii_table(
            ["System", "P", "wall s/step", "est. $(1999)", "steps/s per M$"],
            parallel_cost_table(args.procs),
            title=f"NekTar-F cost-effectiveness at P = {args.procs}",
        ),
        "",
        "Section 5's conclusion in numbers: the PC clusters lead on",
        "price/performance by roughly an order of magnitude; Ethernet is",
        "the most cost-effective at small P, Myrinet at larger P.",
    ]
    text = "\n".join(out)
    print(text)
    return text


if __name__ == "__main__":
    main()
