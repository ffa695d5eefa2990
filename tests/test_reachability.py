"""``src/`` ships only what a run reaches.

Walks the static import graph from the programs a user or the benchmark
starts — ``repro.apps.*``, the two ``__main__``s, ``examples/*.py`` and
the non-test files of ``benchmarks/e2e/`` — and requires every module
under ``src/repro`` to be on it.  ``from ..pkg import name`` is followed
through the package ``__init__`` to the module that defines ``name``,
so a re-export alone keeps nothing alive; imports inside function
bodies count.  A module only its own tests call fails here: delete it,
give it a caller, or allowlist it with the reason.

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
"""

import ast
import importlib
from functools import cache, reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Unreached on purpose: module -> why it stays.
ALLOWED = {
    "repro.ns.exact": "exact solutions: fixtures of seven test files and the "
    "consumer named by ROADMAP's external-truth item",
}

#: Unreached on purpose: ``module:name`` (``Class.method`` for a method) -> why it stays.
ALLOWED_NAMES = {
    "repro.parallel.simmpi:VirtualComm.shared_read": "the race sanitizer's user API: "
    "a rank program declares the shared state it reads",
    "repro.parallel.simmpi:VirtualComm.shared_write": "the race sanitizer's user API: "
    "a rank program declares the shared state it writes",
    "repro.obs.critpath:whatif": "the one-counterfactual API of DESIGN section 16.2",
    "repro.analysis.linter:lint_source": "the linter's string entry point",
    "repro.benchkernels.blas_bench:host_measure": "this host's BLAS curves, which "
    "ROADMAP item 8 (b) fits a CPUModel to",
    "repro.mesh.mesh2d:Mesh2D.dual_graph": "networkx's one importer; ROADMAP item 9 (i) "
    "drops it with the benchmark metric that keeps the import alive",
    "repro.mesh.generators:rectangle_tris": "the only triangle mesh for the shipped "
    "triangle-element paths",
    "repro.mesh.generators:annulus_mesh": "the only annulus mesh for the shipped "
    "curved-element path",
    "repro.linalg.counters:active_counter": "the read side of the thread's counter slot "
    "that OpCounter sets and charge() reads",
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
    unreached = _shipped() - _reached() - set(ALLOWED)
    assert not unreached, f"no app, example or benchmark file imports: {sorted(unreached)}"


def test_allowlist_is_not_stale():
    stale = {m for m in ALLOWED if m not in _shipped() or m in _reached()}
    assert not stale, f"allowlisted but reached or gone: {sorted(stale)}"


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
    for module in sorted(_shipped() - set(ALLOWED)):
        for qualname, name in _definitions(module):
            key = f"{module}:{qualname}"
            if name not in wrapped and all(key in enclosing for enclosing in used.get(name, ())):
                unreached.add(key)
    return unreached


def test_every_public_name_is_used_by_a_reached_file():
    unreached = _unreached_names() - set(ALLOWED_NAMES)
    assert not unreached, f"defined in src/ but used by no reached file: {sorted(unreached)}"


def test_name_allowlist_is_not_stale():
    stale = {key for key in ALLOWED_NAMES if key not in _unreached_names()}
    assert not stale, f"allowlisted but used or gone: {sorted(stale)}"
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
    "repro.mesh.generators:wing_mesh(curved)": "the curved wing: the flapping wing "
    "moves its wall vertices, which a fixed profile curve cannot follow",
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
    modules = {m: parse(_files()[m]) for m in _shipped() - set(ALLOWED)}
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
