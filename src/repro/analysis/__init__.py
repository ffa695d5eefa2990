"""Static-analysis suite for the reproduction codebase.

The cost tables (Tables 1-3) are priced from invariants the rest of the
code enforces only by convention, and the golden tests depend on runs
being bitwise-reproducible.  One AST-based linter (stdlib only,
:mod:`repro.analysis.linter`) machine-checks both with six rules that
no runtime check can stand in for:

* the **invariants** — REPRO001 accounting, REPRO002 virtual-time
  purity, REPRO003 counted-BLAS usage;
* the **determinism rules** — REPRO004 (unseeded RNG), REPRO005
  (host-clock reads in priced code) and REPRO006 (unordered iteration
  over rank-keyed collections).

Communication defects are caught at run time instead, by the
finalize-time verifier and the race detector under
:mod:`repro.parallel`; those carry their own diagnostic codes, and
nothing under :mod:`repro.parallel` imports this package.

``python -m repro.analysis src`` runs everything from the command line
(``--format json``, ``--select``), and the tier-1 suite runs it over
the whole tree.
"""

from .linter import (
    RULES,
    WAIVER_CODE,
    Diagnostic,
    lint_files,
    lint_paths,
    name_for,
)

__all__ = [
    "RULES",
    "WAIVER_CODE",
    "Diagnostic",
    "name_for",
    "lint_files",
    "lint_paths",
]
