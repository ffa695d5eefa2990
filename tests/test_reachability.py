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
