"""Shared CLI exit-code convention for every bench/report entry point.

Every ``repro.apps`` CLI distinguishes three outcomes with distinct
exit codes, so CI scripts and campaign drivers can tell "the gate
fired" apart from "you invoked me wrong" without parsing output:

* ``EXIT_OK`` (0)    — ran to completion, no gate failure;
* ``EXIT_GATE`` (1)  — ran, but a gate/acceptance check failed
  (a harness's own acceptance shape, failed campaign jobs, an
  infeasible search target);
* ``EXIT_USAGE`` (2) — never ran: bad arguments or unreadable/corrupt
  input artifacts.  Matches argparse's own exit code for bad flags.

:func:`usage_error` prints to stderr and returns ``EXIT_USAGE`` so
``main`` bodies can ``return usage_error(...)`` in one line.
"""

from __future__ import annotations

import sys

__all__ = ["EXIT_OK", "EXIT_GATE", "EXIT_USAGE", "usage_error"]

EXIT_OK = 0
EXIT_GATE = 1
EXIT_USAGE = 2


def usage_error(message: str) -> int:
    """Report a usage error on stderr; returns :data:`EXIT_USAGE`."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE
