"""``src/`` ships only what a run reaches.

Walks the static import graph from the programs a user or the benchmark
starts — ``repro.apps.*``, the two ``__main__``s, ``examples/*.py`` and
the non-test files of ``benchmarks/e2e/`` — and requires every module
under ``src/repro`` to be on it.  ``from ..pkg import name`` is followed
through the package ``__init__`` to the module that defines ``name``,
so a re-export alone keeps nothing alive; imports inside function
bodies count.  A module only its own tests call fails here: delete it,
give it a caller, or allowlist it with the reason.

The benchmark's tracer also pins names *inside* modules: its
``WRAP_TABLE`` lists the functions and methods it wraps with ``getattr``,
so a rename under ``src/`` breaks the traced smoke.  The table is read
here as a literal (no import of the harness) and every entry resolved.
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


@cache
def _reached() -> set[str]:
    roots = [
        *(SRC / "repro" / "apps").glob("*.py"),
        SRC / "repro" / "__main__.py",
        SRC / "repro" / "analysis" / "__main__.py",
        *(ROOT / "examples").glob("*.py"),
        *(p for p in (ROOT / "benchmarks" / "e2e").glob("*.py") if not p.name.startswith("test_")),
    ]
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


def test_every_name_the_benchmark_tracer_wraps_resolves():
    tree = ast.parse((ROOT / "benchmarks" / "e2e" / "tracing.py").read_text())
    (table,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "WRAP_TABLE"
    )
    pinned = [
        (module, name)
        for modules in table.values()
        for module, names in modules.items()
        for name in names
    ]
    assert pinned
    missing = []
    for module, name in pinned:
        try:
            reduce(getattr, name.split("."), importlib.import_module(module))
        except (ImportError, AttributeError):
            missing.append(f"{module}:{name}")
    assert not missing, f"benchmarks/e2e/tracing.py wraps names src/ no longer has: {missing}"
