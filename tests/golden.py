"""The repo's pin for every deterministic value outside the e2e harness.

``goldens.json`` holds one section per scenario.  Integers and strings
must match exactly; floats to 1e-12 relative unless a test says why it
is looser (or tighter: the ``smoke.*`` sections are compared with
``rel=0.0``).  Two kinds of section live here:

* frozen oracles (``engine.*``, ``nektar_f.*``, ``space.*``,
  ``paper.*``): recorded at the last commit that still had the thread
  scheduler engine, the per-element ``FunctionSpace`` path and
  NekTar-F's per-field / per-RHS loops, each from the oracle its test
  module is about;
* bench smoke reports (``smoke.*``): every virtual clock, counter and
  critical-path attribution the scaling, resilience and campaign
  harnesses print, host timings dropped.

Host *time* is not pinned here: ``benchmarks/e2e`` measures it.

A test module lists its scenarios in ``GOLDEN_SECTIONS`` (section name
-> zero-argument function returning a JSON-able fingerprint) and
asserts ``check(name, fn())``.  After an intended change to a pinned
quantity, ``python -m tests.golden`` re-records every section from the
working tree; review the diff of ``goldens.json`` like code.
"""

import functools
import importlib
import json
import math
from pathlib import Path

PATH = Path(__file__).with_name("goldens.json")

# Modules that define GOLDEN_SECTIONS.
MODULES = (
    "tests.parallel.test_engine_parity",
    "tests.ns.test_blocked_solves",
    "tests.assembly.test_batched_equivalence",
    "tests.ns.test_ale",
    "tests.integration.test_paper_conclusions",
    "tests.apps.test_smoke_goldens",
    "tests.obs.test_critpath_reprice",
    "tests.assembly.test_dofmap_oracle",
)


@functools.cache
def load() -> dict:
    return json.loads(PATH.read_text())


def jsonable(obj):
    """What ``obj`` looks like after a JSON round trip (tuples become
    lists, int keys become strings, floats survive exactly)."""
    return json.loads(json.dumps(obj))


def _diff(actual, golden, tol, path, out):
    if isinstance(golden, dict) and isinstance(actual, dict):
        if sorted(actual) != sorted(golden):
            out.append(f"{path}: keys {sorted(actual)} != {sorted(golden)}")
            return
        for key in golden:
            _diff(actual[key], golden[key], tol, f"{path}.{key}", out)
    elif isinstance(golden, list) and isinstance(actual, list):
        if len(actual) != len(golden):
            out.append(f"{path}: length {len(actual)} != {len(golden)}")
            return
        for i, (a, g) in enumerate(zip(actual, golden)):
            _diff(a, g, tol, f"{path}[{i}]", out)
    elif isinstance(golden, float) and isinstance(actual, float):
        if not math.isclose(actual, golden, rel_tol=tol[0], abs_tol=tol[1]):
            out.append(f"{path}: {actual!r} != {golden!r} (rel, abs = {tol})")
    elif type(actual) is not type(golden) or actual != golden:
        out.append(f"{path}: {actual!r} != {golden!r}")


def check(section: str, actual, rel: float = 1e-12, abs_tol: float = 0.0) -> None:
    """Compare ``actual`` with a section, or with ``section/key/...``
    inside one (for the few values that need their own tolerance)."""
    golden = load()
    for part in section.split("/"):
        golden = golden[part]
    problems: list[str] = []
    _diff(jsonable(actual), golden, (rel, abs_tol), section, problems)
    assert not problems, "\n".join(problems[:20])


def record() -> None:
    data = {}
    for name in MODULES:
        sections = importlib.import_module(name).GOLDEN_SECTIONS
        for section, fn in sections.items():
            data[section] = jsonable(fn())
    PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
