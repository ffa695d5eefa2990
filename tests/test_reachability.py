"""``src/`` ships only what a run reaches.

Walks the static import graph from the programs a user or the benchmark
starts — ``repro.apps.*``, the two ``__main__``s, ``examples/*.py`` and
the non-test files of ``benchmarks/e2e/`` — and requires every module
under ``src/repro`` to be on it.  ``from ..pkg import name`` is followed
through the package ``__init__`` to the module that defines ``name``,
so a re-export alone keeps nothing alive; imports inside function
bodies count.  A module only its own tests call fails here: delete it,
give it a caller, or move it under ``tests/``.

The same rule holds name by name inside a shipped module: every public
top-level function and class, and every public method of a public
class, must be used — as a ``Name``, an ``Attribute`` or an imported
name — by a file that walk reaches.  A use inside the name's own body,
a package ``__init__``'s re-export and an ``__all__`` string do not
count; a method name counts wherever it appears, whatever its owner.
A reference only the tests use moves into ``tests/``; an entry point
nobody calls goes.

And option by option: every defaulted parameter of a public function,
method or class ``__init__`` in a shipped module must be passed by some
call in a reached file.  A default no run overrides is a configuration
only the tests exercise: it becomes a constant, and a branch it alone
selects goes with it.

The benchmark's tracer also pins names *inside* modules: its
``WRAP_TABLE`` lists the functions and methods it wraps with ``getattr``,
so a rename under ``src/`` breaks the traced smoke.  The table is read
here as a literal (no import of the harness), every entry resolved, and
each entry counts as a use.

Those three rules read source.  The fourth runs it: every root of
:data:`REACH_ROOTS` runs as a subprocess that records each function
under ``src/repro`` it enters (``sys.setprofile`` call events), and a
``def`` no process entered fails, nested ones included.  Exempt by
category, never by name:

* a method of an exception class (a builtin exception among its bases,
  directly or through other classes);
* a raise-only helper: every statement raises, or is an ``if`` whose
  branches only raise;
* an abstract stub: ``@abstractmethod``, or a body of ``pass``, ``...``
  or ``raise NotImplementedError``;
* the scheduler's stall and unwind paths: a def in
  ``parallel/scheduler.py`` that raises ``SchedulerDeadlock``, or that an
  ``except`` handler there calls;
* a ``WRAP_TABLE`` pin.

Everything else that no run enters moves to
``tests/``, goes, or is listed in ``ALLOWED_NAMES`` — the one allowlist
of the name rule and the execution rule, each entry with its reason.
The roots take minutes, so that check is marked ``reach`` and runs in
CI (``python -m pytest -m reach tests/test_reachability.py``); a tiny
synthetic package keeps its machinery under tier-1.
"""

import ast
import builtins
import importlib
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from concurrent.futures import ThreadPoolExecutor
from functools import cache, reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Unreached or never entered on purpose: ``module:qualname`` -> why it stays.
ALLOWED_NAMES = {
    "repro.mesh.mesh2d:Mesh2D.dual_graph": "networkx's one importer; ROADMAP item 9 (i) "
    "drops it with the benchmark metric that keeps the import alive",
    "repro.assembly.space:FunctionSpace._dense_batch_mats": "the triangle element kind "
    "stays (Figs 9-10, the paper's hybrid discretisation); only the mixed-mesh tests "
    "apply an operator on a triangle",
    "repro.spectral.expansions:TriExpansion.collapse": "the triangle's Duffy map, for "
    "its basis off the quadrature grid (a triangle space's boundary edges): the same "
    "decision as _dense_batch_mats",
    "repro.parallel.simmpi:VirtualComm._declare": "the race sanitizer's user API "
    "(shared_read / shared_write): a rank program declares the state it shares, and "
    "no shipped program shares any",
    "repro.obs.critpath:CritPathRecorder._access": "replays those declarations into "
    "the race query's access table",
    "repro.obs.critpath:CritPathRecorder._timeout": "replays an expired virtual recv "
    "timeout: no observed run lets one expire, the fault tests do",
    "repro.analysis.linter:_diag": "the linter's finding path: a clean tree has no "
    "findings, the linter tests plant them",
    "repro.analysis.linter:Diagnostic.format": "the text form of a finding, printed "
    "by the CLI (see _diag)",
    "repro.apps.perf_report:_findings_lines": "the ledger report's drift and "
    "regression lines: a finding needs a history the roots' fresh ledgers lack",
    "repro.assembly.boundary:DirichletPlan.project": "one function's projection over "
    "all tagged sides: only the project_dirichlet harness pin reaches it, which ROADMAP "
    "item 9 removes",
}


def _module(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@cache
def _files() -> dict[str, Path]:
    """Every module and package (as its ``__init__``) under ``src/repro``."""
    return {_module(p): p for p in (SRC / "repro").rglob("*.py")}


@cache
def _imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name or None)`` for every import statement in the file."""
    package = list(path.relative_to(SRC).parts[:-1]) if SRC in path.parents else []
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            target = ".".join(base + (node.module.split(".") if node.module else []))
            found += [(target, alias.name) for alias in node.names]
    return found


def _defining(module: str, name: str | None) -> str | None:
    """The ``src/repro`` module an import of ``name`` from ``module`` runs for."""
    path = _files().get(module)
    if path is None or name is None or path.name != "__init__.py":
        return module if path else None
    if f"{module}.{name}" in _files():
        return f"{module}.{name}"
    for target, exported in _imports(path):
        if exported == name:
            return _defining(target, name)
    return module


def _roots() -> list[Path]:
    return [
        *(SRC / "repro" / "apps").glob("*.py"),
        SRC / "repro" / "__main__.py",
        SRC / "repro" / "analysis" / "__main__.py",
        *(ROOT / "examples").glob("*.py"),
        *(p for p in (ROOT / "benchmarks" / "e2e").glob("*.py") if not p.name.startswith("test_")),
    ]


@cache
def _reached() -> set[str]:
    roots = _roots()
    seen = {_module(p) for p in roots if SRC in p.parents}
    todo = list(roots)
    while todo:
        for target, name in _imports(todo.pop()):
            module = _defining(target, name)
            if module and module not in seen:
                seen.add(module)
                # A package's __init__ is walked only through the names
                # asked of it (in _defining), never wholesale.
                if _files()[module].name != "__init__.py":
                    todo.append(_files()[module])
    return seen


def _shipped() -> set[str]:
    return {m for m, p in _files().items() if p.name != "__init__.py"}


def test_every_module_is_reached_by_an_app_an_example_or_the_benchmark():
    unreached = _shipped() - _reached()
    assert not unreached, f"no app, example or benchmark file imports: {sorted(unreached)}"


def _wrapped() -> list[tuple[str, str]]:
    """``(module, name)`` of every entry of the tracer's ``WRAP_TABLE``."""
    tree = ast.parse((ROOT / "benchmarks" / "e2e" / "tracing.py").read_text())
    (table,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "WRAP_TABLE"
    )
    return [
        (module, name)
        for modules in table.values()
        for module, names in modules.items()
        for name in names
    ]


def test_every_name_the_benchmark_tracer_wraps_resolves():
    pinned = _wrapped()
    assert pinned
    missing = []
    for module, name in pinned:
        try:
            reduce(getattr, name.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(f"{module}:{name}")
    assert not missing, f"benchmarks/e2e/tracing.py wraps names src/ no longer has: {missing}"


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(module: str) -> list[tuple[str, str]]:
    """``(qualname, bare name)`` of every public top-level function and
    class and every public method of a public class."""
    found = []
    for node in ast.parse(_files()[module].read_text()).body:
        if isinstance(node, _DEFS) and not node.name.startswith("_"):
            found.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, _DEFS[:2]) and not item.name.startswith("_")
                ]
    return found


def _uses(path: Path, module: str | None) -> list[tuple[str, frozenset]]:
    """Every ``(name, enclosing)`` use in the file — a ``Name``, an
    ``Attribute`` or an imported name — with the ``module:qualname`` of
    each definition it sits inside.  A package ``__init__``'s imports are
    re-exports and are skipped."""
    reexports = path.name == "__init__.py"
    found = []

    def visit(nodes, scope: tuple[str, ...], enclosing: frozenset) -> None:
        for node in nodes:
            if isinstance(node, _DEFS):
                # Decorators, bases, defaults and annotations run outside the body.
                outside = [
                    *node.decorator_list,
                    *getattr(node, "bases", ()),
                    *getattr(node, "keywords", ()),
                    *filter(None, (getattr(node, "args", None), getattr(node, "returns", None))),
                ]
                visit(outside, scope, enclosing)
                inner = (*scope, node.name)
                visit(node.body, inner, enclosing | {f"{module}:{'.'.join(inner)}"})
                continue
            if isinstance(node, ast.Name):
                found.append((node.id, enclosing))
            elif isinstance(node, ast.Attribute):
                found.append((node.attr, enclosing))
            elif isinstance(node, ast.ImportFrom) and not reexports:
                found.extend((alias.name, enclosing) for alias in node.names)
            visit(ast.iter_child_nodes(node), scope, enclosing)

    visit(ast.parse(path.read_text()).body, (), frozenset())
    return found


@cache
def _unreached_names() -> set[str]:
    files = {p: None for p in _roots() if SRC not in p.parents}
    files.update({_files()[m]: m for m in _reached()})
    used: dict[str, list[frozenset]] = {}
    for path, module in files.items():
        for name, enclosing in _uses(path, module):
            used.setdefault(name, []).append(enclosing)
    # A wrapped ``Class.method`` uses both parts.
    wrapped = {part for _module, name in _wrapped() for part in name.split(".")}
    unreached = set()
    for module in sorted(_shipped()):
        for qualname, name in _definitions(module):
            key = f"{module}:{qualname}"
            if name not in wrapped and all(key in enclosing for enclosing in used.get(name, ())):
                unreached.add(key)
    return unreached


def test_every_public_name_is_used_by_a_reached_file():
    unreached = _unreached_names() - set(ALLOWED_NAMES)
    assert not unreached, f"defined in src/ but used by no reached file: {sorted(unreached)}"


def test_name_allowlist_is_not_stale():
    """Every entry names a def under ``src/``.  Whether one is still needed
    (by this name check, or because no run enters it) is decided where the
    runs are: ``test_every_def_is_entered_by_a_run``."""
    defs = {name for name, _category in _defs(SRC, set()).values()}
    gone = set(ALLOWED_NAMES) - defs
    assert not gone, f"allowlisted but gone: {sorted(gone)}"
    assert len(ALLOWED_NAMES) <= 10, "give a name a caller, move it to tests/ or delete it"


# --- Options -------------------------------------------------------------
#
# The same walk, parameter by parameter: a defaulted parameter of a public
# function, method or class that no reached call ever passes is a
# configuration only the tests run.  A call is matched by the callee's
# terminal name; ``Class(...)``, ``cls(...)`` inside the class,
# ``super().__init__(...)`` and a subclass without its own ``__init__``
# call ``Class.__init__``; ``functools.partial(f, ...)`` calls ``f``.  A
# ``**d`` splat of a module-level dict literal sets that dict's keys; any
# other splat sets every parameter.  Out of scope: ``argv``, names in
# ``ALLOWED_NAMES`` and names no reached file calls.

#: Unset on purpose: ``module:qualname(parameter)`` (``Class(parameter)`` for
#: ``__init__``) -> why it stays.
ALLOWED_OPTIONS = {
    "repro.ns.nektar2d:NavierStokes2D(time_order)": "the temporal-order tests sweep "
    "it; ROADMAP item 3 decides whether order 3 stays",
    "repro.obs.metrics:scoped(registry)": "tests measure into a registry of their "
    "own; ROADMAP item 7 replaces the process-global scope",
    "repro.solvers.helmholtz:HelmholtzCG(maxiter)": "the only route to CG's "
    "non-convergence error, which is safety code",
    "repro.obs.critpath:EventGraph.add_node(stage)": "hand-built graphs of the "
    "critical-path unit tests and the frozen oracle tag their stages through it",
    "repro.assembly.dofmap:DofMap.boundary_dofs(tags)": "one side's dofs: the dof-map "
    "and periodic-seam tests compare tagged sides through it",
}

#: Set by every call (a ``*args`` or an unknown ``**kw`` splat).
_ALL = None

#: Class name -> (terminal names of its bases, defines ``__init__``).
Classes = dict[str, tuple[list[str], bool]]


def _classes_in(trees: list[ast.Module]) -> Classes:
    found = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = [
                    b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", "")
                    for b in node.bases
                ]
                init = any(isinstance(i, _DEFS[:2]) and i.name == "__init__" for i in node.body)
                found[node.name] = (bases, init)
    return found


def _init_callees(name: str, classes: Classes) -> set[str]:
    """The names a call of class ``name``'s ``__init__`` goes by: the class
    and, transitively, every subclass that defines no ``__init__``."""
    names, todo = {name}, [name]
    while todo:
        base = todo.pop()
        for sub, (bases, init) in classes.items():
            if base in bases and not init and sub not in names:
                names.add(sub)
                todo.append(sub)
    return names


def _option_defs(tree: ast.Module, classes: Classes) -> list[tuple[str, set[str], list]]:
    """``(qualname, callee names, [(parameter, position or None)])`` of
    every public function, public method and public class ``__init__``
    with defaulted parameters (``Class`` stands for ``Class.__init__``);
    positions count the arguments a call spells (no ``self``/``cls``)."""

    def defaulted(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
        static = any(getattr(d, "id", "") == "staticmethod" for d in fn.decorator_list)
        skip = int(bound and not static)
        args = fn.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        found = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
        found += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        return found

    found = []
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, _DEFS[:2]):
                    continue
                if item.name == "__init__":
                    callees = _init_callees(node.name, classes)
                    found.append((node.name, callees, defaulted(item, True)))
                elif not item.name.startswith("_"):
                    found.append((f"{node.name}.{item.name}", {item.name}, defaulted(item, True)))
        else:
            found.append((node.name, {node.name}, defaulted(node, False)))
    return [(name, callees, params) for name, callees, params in found if params]


def _calls(tree: ast.Module, classes: Classes) -> list[tuple[str, float, set[str] | None]]:
    """``(callee, positional arguments spelled, keywords set or _ALL)`` of
    every call in the module."""
    literals = {
        target.id: {k.value for k in node.value.keys if isinstance(k, ast.Constant)}
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
        and None not in node.value.keys
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = []

    def callee(func: ast.expr, owner: ast.ClassDef | None) -> list[str]:
        if isinstance(func, ast.Name):
            return [owner.name if func.id == "cls" and owner else func.id]
        if not isinstance(func, ast.Attribute):
            return []
        inner = func.value
        if (
            func.attr == "__init__" and owner and isinstance(inner, ast.Call)
            and getattr(inner.func, "id", "") == "super"
        ):
            return classes[owner.name][0]
        return [func.attr]

    def record(names: list[str], args: list[ast.expr], keywords: list[ast.keyword]) -> None:
        npos = float("inf") if any(isinstance(a, ast.Starred) for a in args) else len(args)
        keys: set[str] | None = set()
        for kw in keywords:
            if kw.arg is not None:
                keys.add(kw.arg)
            elif isinstance(kw.value, ast.Name) and kw.value.id in literals:
                keys |= literals[kw.value.id]
            else:
                keys = _ALL
                break
        found.extend((name, npos, keys) for name in names)

    def visit(node: ast.AST, owner: ast.ClassDef | None) -> None:
        if isinstance(node, ast.Call):
            names = callee(node.func, owner)
            if names == ["partial"] and node.args:
                record(callee(node.args[0], owner), node.args[1:], node.keywords)
            record(names, node.args, node.keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, node if isinstance(node, ast.ClassDef) else owner)

    visit(tree, None)
    return found


def _unset(
    modules: dict[str, ast.Module], callers: list[ast.Module], classes: Classes, exempt: set[str]
) -> tuple[frozenset, frozenset]:
    """``(every public defaulted parameter, those no call in ``callers``
    sets)`` of the ``modules``, as ``module:qualname(parameter)`` keys;
    ``exempt`` names ``module:qualname`` definitions out of scope."""
    calls: dict[str, list[tuple[float, set[str] | None]]] = {}
    for tree in callers:
        for name, npos, keys in _calls(tree, classes):
            calls.setdefault(name, []).append((npos, keys))
    every, unset = set(), set()
    for module, tree in sorted(modules.items()):
        for qualname, callees, params in _option_defs(tree, classes):
            made = [call for name in callees for call in calls.get(name, ())]
            for param, pos in params:
                key = f"{module}:{qualname}({param})"
                every.add(key)
                if param == "argv" or not made or f"{module}:{qualname}" in exempt:
                    continue
                if not any(
                    keys is _ALL or param in keys or (pos is not None and pos < npos)
                    for npos, keys in made
                ):
                    unset.add(key)
    return frozenset(every), frozenset(unset)


@cache
def _options() -> tuple[frozenset, frozenset]:
    """:func:`_unset` over the shipped modules and the reached files."""
    parse = lambda path: ast.parse(path.read_text())  # noqa: E731
    callers = [p for p in _roots() if SRC not in p.parents] + [_files()[m] for m in _reached()]
    classes = _classes_in([parse(p) for p in _files().values()])
    modules = {m: parse(_files()[m]) for m in _shipped()}
    return _unset(modules, [parse(p) for p in callers], classes, set(ALLOWED_NAMES))


def test_every_public_option_is_set_by_a_reached_call():
    unset = _options()[1] - set(ALLOWED_OPTIONS)
    assert not unset, (
        "a default no app, example or benchmark call overrides (make it a constant): "
        f"{sorted(unset)}"
    )


def test_option_allowlist_is_not_stale():
    stale = {key for key in ALLOWED_OPTIONS if key not in _options()[1]}
    assert not stale, f"allowlisted but set by a reached call or gone: {sorted(stale)}"
    assert len(ALLOWED_OPTIONS) <= 8, "give an option a caller or make it a constant"


def test_option_check_flags_an_unset_knob_and_nothing_a_call_sets():
    module = ast.parse(
        "class Base:\n"
        "    def __init__(self, n, grade=1.0): ...\n"
        "class Leaf(Base): ...\n"
        "class Own(Base):\n"
        "    def __init__(self, tag='w'):\n"
        "        super().__init__(3, grade=2.0)\n"
        "def mesh(m=1, nr=2, *, curved=False, knob=0.5): ...\n"
        "def solve(f, tol=1e-9, argv=None): ...\n"
        "def _private(x=1): ...\n"
        "def uncalled(x=1): ...\n"
    )
    caller = ast.parse(
        "import functools\n"
        "SHAPE = {'m': 3}\n"
        "Leaf(2)\n"
        "Own()\n"
        "mesh(**SHAPE, curved=True)\n"
        "functools.partial(solve, 1.0, 1e-6)\n"
    )
    classes = _classes_in([module])
    every, unset = _unset({"pkg.mod": module}, [module, caller], classes, set())
    assert len(every) == 9
    assert unset == {"pkg.mod:mesh(nr)", "pkg.mod:mesh(knob)", "pkg.mod:Own(tag)"}
    # ``*args`` sets every positional parameter, an unknown ``**kw`` every
    # parameter; an exempt name is skipped.
    splat = ast.parse("mesh(*shape)\nmesh(**opts)\n")
    callers = [module, caller, splat]
    assert _unset({"pkg.mod": module}, callers, classes, set())[1] == {"pkg.mod:Own(tag)"}
    assert not _unset({"pkg.mod": module}, callers, classes, {"pkg.mod:Own"})[1]



# --- Execution -----------------------------------------------------------
#
# The module docstring gives the rule and its exempt categories.  The
# roots take minutes, so the check is marked ``reach``: CI runs it, tier-1
# runs its synthetic self-test.

#: The programs a user, CI or the benchmark starts, as chains: the commands
#: of one chain run in order in one scratch directory (a later one reads
#: what an earlier one wrote), and the chains run two at a time.  A command
#: must exit 0, or the code its leading int names; then ``-m`` names a
#: module, ``-c`` a snippet, anything else a script of the checkout.
#: ``{src}`` / ``{root}`` are the checkout's ``src`` and the checkout.
#: ``examples/*.py`` are added as found, each with its defaults.  The
#: campaign chain is CI's: killed
#: mid-queue, resumed, searched, searched again over a truncated artifact
#: (a usage error), reported.
REACH_ROOTS: tuple[tuple[tuple[str | int, ...], ...], ...] = (
    (("benchmarks/e2e/run.py", "--smoke", "--trace", "0", "--out", "results.json"),),
    (("benchmarks/e2e/run.py", "--smoke", "--trace", "1", "--out", "results.json"),),
    (("-m", "repro", "all"),),
    tuple(("-m", "repro.apps.kernel_report", "--figure", str(n)) for n in range(1, 9)),
    (("-m", "repro.apps.matrix_structure"), ("-m", "repro.apps.cost_of_ownership")),
    (
        ("-m", "repro.apps.scaling_bench", "--smoke", "--ledger", "RUNLOG.jsonl"),
        ("-m", "repro.apps.resilience_bench", "--smoke", "--ledger", "RUNLOG.jsonl"),
        ("-m", "repro.apps.perf_report", "--ledger", "RUNLOG.jsonl"),
    ),
    (
        ("-m", "repro.apps.trace_report", "--out", "TRACE.json"),
        ("-m", "repro.apps.trace_report", "--trace", "TRACE.json"),
        ("-m", "repro.apps.trace_report", "--critical-path"),
        ("-m", "repro.apps.trace_report", "--pattern", "alltoall", "--procs", "64"),
    ),
    (
        ("-m", "repro.apps.campaign", "run", "--smoke", "--ledger", "C.jsonl",
         "--artifacts", "graphs", "--stop-after", "9"),
        ("-m", "repro.apps.campaign", "run", "--smoke", "--ledger", "C.jsonl",
         "--artifacts", "graphs", "--out", "BENCH_campaign.json"),
        ("-m", "repro.apps.campaign", "search", "--ledger", "C.jsonl",
         "--artifacts", "graphs", "--target", "1.0"),
        ("-c", "import shutil, pathlib; shutil.copytree('graphs', 'torn'); "
         "p = sorted(pathlib.Path('torn').glob('graph-*.json'))[0]; "
         "p.write_bytes(p.read_bytes()[:100])"),
        (2, "-m", "repro.apps.campaign", "search", "--ledger", "C.jsonl",
         "--artifacts", "torn", "--target", "1.0"),
        ("-m", "repro.apps.perf_report", "--ledger", "C.jsonl"),
    ),
    (
        ("-m", "repro.analysis", "{src}"),
        ("-m", "repro.analysis", "--list-rules"),
        ("-m", "repro.analysis", "--select", "REPRO004", "{root}/tests",
         "{root}/benchmarks", "{root}/examples"),
    ),
)

#: A def as a trace sees it: (path below ``src``, first line, decorators included).
DefKey = tuple[str, int]


def _chains(checkout: Path) -> list:
    examples = sorted((checkout / "examples").glob("*.py"))
    return [*REACH_ROOTS, *(((str(p.relative_to(checkout)),),) for p in examples)]


def _entered(checkout: Path, work: Path, chains) -> set[DefKey]:
    """Run every chain against ``checkout``'s ``src/``; what its processes
    entered under ``src/repro``."""
    src, user, dumps = checkout / "src", work / "user", work / "entered"
    site = Path(sysconfig.get_path("purelib", f"{os.name}_user", vars={"userbase": str(user)}))
    site.mkdir(parents=True)
    dumps.mkdir()
    shutil.copy(Path(__file__).with_name("_reach_probe.py"), site / "usercustomize.py")
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        PYTHONUSERBASE=str(user),
        REPRO_REACH_SRC=str(src / "repro") + os.sep,
        REPRO_REACH_OUT=str(dumps),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    env.pop("PYTHONNOUSERSITE", None)

    def run(index: int, chain) -> list[str]:
        cwd = work / f"root{index}"
        cwd.mkdir()
        failed = []
        for command in chain:
            code, command = (command[0], command[1:]) if isinstance(command[0], int) else (0, command)
            args = [a.format(src=src, root=checkout) for a in command]
            if args[0] not in ("-m", "-c"):
                args[0] = str(checkout / args[0])
            proc = subprocess.run(
                [sys.executable, *args], cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True,
            )
            if proc.returncode != code:
                failed.append(f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return failed

    with ThreadPoolExecutor(2) as pool:
        failed = sum(pool.map(run, range(len(chains)), chains), [])
    assert not failed, "a root failed:\n" + "\n".join(failed)
    entered = set()
    for dump in dumps.glob("*.json"):
        for file, _qualname, line in json.loads(dump.read_text()):
            entered.add((Path(file).relative_to(src).as_posix(), line))
    assert entered, "no process loaded the probe: is the user site directory disabled?"
    return entered


def _exception_classes(trees) -> set[str]:
    """Names of the classes deriving from a builtin exception, directly or
    through each other."""
    bases = {
        node.name: [getattr(b, "attr", getattr(b, "id", "")) for b in node.bases]
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def derives(name: str, seen: frozenset = frozenset()) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return name not in seen and any(derives(b, seen | {name}) for b in bases.get(name, ()))

    return {name for name in bases if derives(name)}


def _body(fn: ast.FunctionDef) -> list[ast.stmt]:
    """The statements after the docstring."""
    first = fn.body[0]
    doc = isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
    return fn.body[1:] if doc and isinstance(first.value.value, str) else fn.body


def _raises_only(body: list[ast.stmt]) -> bool:
    return bool(body) and all(
        isinstance(s, ast.Raise)
        or (isinstance(s, ast.If) and _raises_only(s.body) and (not s.orelse or _raises_only(s.orelse)))
        for s in body
    )


def _stub(body: list[ast.stmt]) -> bool:
    return all(
        isinstance(s, ast.Pass)
        or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        or (isinstance(s, ast.Raise) and "NotImplementedError" in ast.unparse(s))
        for s in body
    )


def _scheduler_paths(tree: ast.Module) -> set[str]:
    """Names of the scheduler's stall and unwind paths: the defs that raise
    ``SchedulerDeadlock`` and the callees of its ``except`` handlers."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            found |= {
                getattr(c.func, "attr", getattr(c.func, "id", ""))
                for c in ast.walk(node)
                if isinstance(c, ast.Call)
            }
        elif isinstance(node, _DEFS[:2]) and any(
            isinstance(r, ast.Raise) and "SchedulerDeadlock(" in ast.unparse(r)
            for r in ast.walk(node)
        ):
            found.add(node.name)
    return found


def _defs(src: Path, wrapped: set[str]) -> dict[DefKey, tuple[str, str | None]]:
    """``(path below src, first line) -> (module:qualname, the category that
    exempts it or None)`` for every ``def`` under ``src/repro``."""
    paths = sorted((src / "repro").rglob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in paths}
    exceptions = _exception_classes(trees.values())
    found = {}

    def category(fn: ast.FunctionDef, owner: str | None, name: str, scheduler: set[str]):
        body = _body(fn)
        if name in wrapped:
            return "harness pin"
        if owner in exceptions:
            return "exception class"
        if fn.name in scheduler:
            return "scheduler stall or unwind"
        decorators = {getattr(d, "attr", getattr(d, "id", "")) for d in fn.decorator_list}
        if "abstractmethod" in decorators or _stub(body):
            return "abstract stub"
        if _raises_only(body):
            return "raise-only helper"
        return None

    def visit(nodes, module, rel, prefix, owner, scheduler) -> None:
        for node in nodes:
            if isinstance(node, ast.ClassDef):
                visit(node.body, module, rel, f"{prefix}{node.name}.", node.name, scheduler)
            elif isinstance(node, _DEFS[:2]):
                name = f"{module}:{prefix}{node.name}"
                first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                found[(rel, first)] = (name, category(node, owner, name, scheduler))
                visit(node.body, module, rel, f"{prefix}{node.name}.<locals>.", None, scheduler)
            elif isinstance(node, ast.stmt):
                visit(ast.iter_child_nodes(node), module, rel, prefix, owner, scheduler)

    for path, tree in trees.items():
        rel = path.relative_to(src).as_posix()
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        scheduler = _scheduler_paths(tree) if rel == "repro/parallel/scheduler.py" else set()
        visit(tree.body, module, rel, "", None, scheduler)
    return found


def _never_entered(src: Path, entered: set[DefKey], wrapped: set[str]) -> dict[str, str | None]:
    """``module:qualname -> exempting category or None`` of every def no
    root entered."""
    return {name: cat for key, (name, cat) in _defs(src, wrapped).items() if key not in entered}


def _reach_verdict(never: dict, allowed, ast_unreached) -> tuple[set, set]:
    """``(never-entered defs neither exempt nor allowlisted, allowlist
    entries neither check needs)``."""
    flagged = {name for name, cat in never.items() if cat is None}
    return flagged - set(allowed), set(allowed) - flagged - set(ast_unreached)


@pytest.mark.reach
def test_every_def_is_entered_by_a_run(tmp_path):
    wrapped = {f"{module}:{name}" for module, name in _wrapped()}
    never = _never_entered(SRC, _entered(ROOT, tmp_path, _chains(ROOT)), wrapped)
    unlisted, stale = _reach_verdict(never, ALLOWED_NAMES, _unreached_names())
    exempt = sum(cat is not None for cat in never.values())
    report = os.environ.get("REPRO_REACH_REPORT")
    if report:
        Path(report).write_text(
            f"{len(never)} (exempt {exempt}, allowlisted {len(never) - exempt - len(unlisted)})\n"
        )
    assert not unlisted, f"no run enters (delete, move to tests/ or allowlist): {sorted(unlisted)}"
    assert not stale, f"allowlisted but entered by a run, exempt or gone: {sorted(stale)}"


def test_reach_check_flags_what_no_run_enters(tmp_path):
    """The execution rule on a tiny package: one subprocess root, each
    category exempting one def, and both failures the check reports."""
    pkg = tmp_path / "src" / "repro"
    (pkg / "parallel").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "parallel" / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import abc\n"
        "class Fault(ValueError):\n"
        "    def __init__(self, why):\n"
        "        super().__init__(why)\n"
        "class Base(abc.ABC):\n"
        "    @abc.abstractmethod\n"
        "    def area(self): ...\n"
        "    def name(self):\n"
        "        raise NotImplementedError\n"
        "def _check(n):\n"
        "    if n < 0:\n"
        "        raise Fault('negative')\n"
        "def used(n):\n"
        "    def inner():\n"
        "        return n\n"
        "    return inner()\n"
        "def unused(n):\n"
        "    return n + 1\n"
        "def pinned(n):\n"
        "    return n\n"
        "def kept(n):\n"
        "    return n\n"
    )
    (pkg / "parallel" / "scheduler.py").write_text(
        "class SchedulerDeadlock(RuntimeError): ...\n"
        "def _stall():\n"
        "    x = 1\n"
        "    raise SchedulerDeadlock(x)\n"
        "def _unwind(exc):\n"
        "    return exc\n"
        "def run(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except BaseException as exc:\n"
        "        _unwind(exc)\n"
        "        raise\n"
    )
    (tmp_path / "main.py").write_text(
        "from repro.mod import used\nfrom repro.parallel.scheduler import run\nrun(lambda: used(2))\n"
    )
    (tmp_path / "work").mkdir()
    entered = _entered(tmp_path, tmp_path / "work", [(("main.py",),)])
    never = _never_entered(tmp_path / "src", entered, {"repro.mod:pinned"})
    assert never == {
        "repro.mod:Fault.__init__": "exception class",
        "repro.mod:Base.area": "abstract stub",
        "repro.mod:Base.name": "abstract stub",
        "repro.mod:_check": "raise-only helper",
        "repro.mod:unused": None,
        "repro.mod:pinned": "harness pin",
        "repro.mod:kept": None,
        "repro.parallel.scheduler:_stall": "scheduler stall or unwind",
        "repro.parallel.scheduler:_unwind": "scheduler stall or unwind",
    }
    allowed = {"repro.mod:kept": "why", "repro.mod:used": "stale", "repro.mod:_check": "stale"}
    assert _reach_verdict(never, allowed, set()) == (
        {"repro.mod:unused"},
        {"repro.mod:used", "repro.mod:_check"},
    )
    # An entry the name check needs is not stale.
    assert _reach_verdict(never, {"repro.mod:used": "why"}, {"repro.mod:used"})[1] == set()
