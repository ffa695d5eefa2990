"""Top-level entry point: ``python -m repro`` lists the reproduction
commands; ``python -m repro all`` regenerates every table and figure.
"""

from __future__ import annotations

import sys

MENU = """\
repro — "DNS of Turbulence with a PC/Linux Cluster: Fact or Fiction?" (SC '99)

Regenerate the paper's artifacts:

  python -m repro.apps.kernel_report --figure N    Figures 1-8 (N = 1..8)
  python -m repro.apps.matrix_structure            Figures 9-11
  python -m repro.apps.serial_bluff --breakdown    Table 1, Figure 12
  python -m repro.apps.nektar_f_bench --breakdown  Table 2, Figures 13-14
  python -m repro.apps.ale_bench --breakdown 16    Table 3, Figures 15-16
  python -m repro.apps.trace_report                per-rank Perfetto trace
  python -m repro.apps.trace_report --critical-path  + makespan attribution
  python -m repro.apps.perf_report --ledger RUNLOG.jsonl  run-ledger trajectories
  python -m repro all                              everything at once

Examples (real solver runs):

  python examples/quickstart.py
  python examples/cylinder_wake.py
  python examples/flapping_wing_ale.py
  python examples/spanwise_turbulence_3d.py
  python examples/cluster_comparison.py

Tests and benchmarks:

  pytest tests/
  python benchmarks/e2e/run.py --smoke
"""


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "all":
        from .apps import ale_bench, nektar_f_bench, serial_bluff

        serial_bluff.main(["--breakdown"])
        print()
        nektar_f_bench.main(["--breakdown"])
        print()
        ale_bench.main(["--breakdown", "16"])
        return 0
    print(MENU)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
