"""Static-analysis suite for the reproduction codebase.

The cost tables (Tables 1-3) are priced from invariants the rest of the
code enforces only by convention, and the golden tests depend on runs
being bitwise-reproducible.  Three engines machine-check both (stdlib
only, AST-based):

* the **invariant linter** (:mod:`repro.analysis.linter`) — REPRO001
  accounting, REPRO002 virtual-time purity, REPRO003 counted-BLAS
  usage;
* the **determinism sanitizer** — static rules REPRO004 (unseeded
  RNG), REPRO005 (host-clock reads in priced code) and REPRO006
  (unordered iteration over rank-keyed collections), with a runtime
  race-detector twin in :mod:`repro.parallel.sanitizer` driven by
  ``VirtualCluster(sanitize=True)``;
* the **communication-protocol checker**
  (:mod:`repro.analysis.protocol`) — REPRO010 tag pairing, REPRO011
  rank-conditional collectives, REPRO012 unguarded recv in
  fault-bearing code, REPRO013 uncounted payloads — sharing one
  diagnostic vocabulary (:mod:`repro.analysis.vocab`) with the
  finalize-time communication verifier so static findings and runtime
  failures cite the same codes.

``python -m repro.analysis src`` runs everything from the command line
(``--format json``, ``--select``), and the tier-1 suite runs it over
the whole tree.
"""

from .linter import (
    RULES,
    Diagnostic,
    lint_file,
    lint_files,
    lint_paths,
    lint_source,
)
from .vocab import RUNTIME_CODES, WAIVER_CODE, code_for, name_for

__all__ = [
    "RULES",
    "RUNTIME_CODES",
    "WAIVER_CODE",
    "Diagnostic",
    "code_for",
    "name_for",
    "lint_file",
    "lint_files",
    "lint_paths",
    "lint_source",
]
