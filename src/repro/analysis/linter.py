"""AST-based invariant linter (stdlib only).

Six repo-specific rules, each scoped to the packages where its
invariant is load-bearing and no runtime check can stand in for it.
Communication defects (unmatched sends, deadlocks, collective
mismatches, lost bytes) are not here: the finalize-time verifier
(:meth:`repro.parallel.simmpi.VirtualCluster.verify_communication`)
catches them on every run and tags them with its own runtime codes.

``accounting`` (REPRO001)
    In ``linalg/``, ``spectral/``, ``assembly/`` and ``fourier/``, any
    function that evaluates a numpy compute primitive (``np.dot``,
    ``@``, ``np.einsum``, ``np.linalg.solve`` ...) must also charge the
    ambient :class:`~repro.linalg.counters.OpCounter` — by calling
    ``charge()`` or one of the counted :mod:`repro.linalg.blas` kernels
    — so the work it does shows up in the priced cost tables.

``virtual-time`` (REPRO002)
    In ``ns/`` and ``parallel/``, and in any *rank function* (first
    parameter named ``comm`` or annotated ``VirtualComm``) anywhere in
    the tree, real wall-clock primitives (``time.time``,
    ``time.perf_counter``, ``datetime.now`` ...) and raw ``threading``
    primitives are forbidden: virtual-time code must read the rank's
    virtual clocks.

``raw-numpy`` (REPRO003)
    In ``ns/`` and ``parallel/`` and in rank functions, raw numpy
    linear algebra (``np.dot``, ``np.matmul``, ``np.einsum``, the ``@``
    operator) sidesteps the counted BLAS substrate and is flagged.

``unseeded-rng`` (REPRO004)
    Anywhere under ``repro``, draws from the process-global RNGs
    (``np.random.rand``, ``random.random`` ...) and unseeded generator
    constructions (``np.random.default_rng()`` with no argument) are
    forbidden: every random number that can reach a priced quantity or
    a golden trajectory must come from an explicitly seeded generator.

``wall-clock`` (REPRO005)
    In the deterministic numeric core (``linalg/``, ``spectral/``,
    ``assembly/``, ``fourier/``, ``solvers/``, ``machines/``,
    ``mesh/``, ``io/``), host-clock reads are forbidden outright —
    priced numbers must be pure functions of their inputs.  (``ns/``
    and ``parallel/`` are covered by the stricter ``virtual-time``
    rule; ``util/`` hosts the sanctioned ``StageTimer``.)

``unordered-iteration`` (REPRO006)
    In ``ns/``, ``parallel/`` and ``fourier/`` and in rank functions,
    iterating a set, or a dict that dataflow shows is keyed by rank
    (``d[comm.rank] = ...``, ``d.setdefault(peer, ...)``), without a
    ``sorted()`` wrapper is flagged: arrival order of per-rank entries
    depends on host thread scheduling, so unordered iteration is a
    bitwise-determinism hazard.

Waivers
-------
A violation that is intentional is silenced with a waiver comment that
must carry a reason::

    x = a @ b  # repro: waive[raw-numpy] complex-valued; charged explicitly

The comment may sit on any line of the flagged *statement* (including
the closing line of a wrapped call), the line above the statement, or
on (or above) the enclosing ``def`` — including above its decorators.
Rules may be named by name or by code (``waive[REPRO003]``).  A whole
file opts out of one rule with a comment on any line of it::

    # repro: waive-file[virtual-time] virtual-time substrate implementation

A waiver with an unknown rule name or an empty reason is itself a
diagnostic (REPRO000), and so is a *stale* waiver — one that no longer
suppresses anything — so waivers stay auditable and get cleaned up.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "RULES",
    "WAIVER_CODE",
    "Diagnostic",
    "name_for",
    "lint_files",
    "lint_paths",
]

#: Diagnostic code for meta-problems: malformed/unknown/stale waivers
#: and syntax errors — problems with the analysis inputs themselves.
WAIVER_CODE = "REPRO000"

#: rule name -> (code, one-line summary).
RULES: dict[str, tuple[str, str]] = {
    "accounting": (
        "REPRO001",
        "hot-path kernels must charge the ambient OpCounter",
    ),
    "virtual-time": (
        "REPRO002",
        "virtual-time rank code must not touch real clocks or raw threads",
    ),
    "raw-numpy": (
        "REPRO003",
        "hot paths must use the counted repro.linalg.blas kernels",
    ),
    "unseeded-rng": (
        "REPRO004",
        "random draws must come from an explicitly seeded generator",
    ),
    "wall-clock": (
        "REPRO005",
        "priced numeric code must not read host clocks",
    ),
    "unordered-iteration": (
        "REPRO006",
        "rank-keyed dicts and sets must be iterated in sorted order",
    ),
}

_CODE_TO_NAME = {code: name for name, (code, _) in RULES.items()}


def name_for(token: str) -> str | None:
    """Normalise a waiver token (rule name or REPROxxx code) to a rule
    name, or None if it names no known rule."""
    if token in RULES:
        return token
    return _CODE_TO_NAME.get(token)


ACCOUNTING_PACKAGES = {"linalg", "spectral", "assembly", "fourier"}
VIRTUAL_TIME_PACKAGES = {"ns", "parallel"}
RAW_NUMPY_PACKAGES = {"ns", "parallel"}
# Deterministic numeric core: host-clock reads banned outright.
DETERMINISM_PACKAGES = {
    "linalg",
    "spectral",
    "assembly",
    "fourier",
    "solvers",
    "machines",
    "mesh",
    "io",
}
# Rank-keyed collections must be iterated in sorted order here.
ORDERED_ITERATION_PACKAGES = {"ns", "parallel", "fourier"}

# numpy compute primitives that represent priced floating-point work.
_NUMPY_COMPUTE = {"dot", "vdot", "matmul", "einsum", "tensordot"}
_NUMPY_LINALG = {
    "solve",
    "inv",
    "cholesky",
    "lstsq",
    "pinv",
    "eig",
    "eigh",
    "eigvals",
    "eigvalsh",
    "svd",
    "qr",
    "matrix_power",
}
_SCIPY_LINALG = {
    "solve",
    "cholesky",
    "cho_factor",
    "cho_solve",
    "cholesky_banded",
    "cho_solve_banded",
    "solve_banded",
    "solveh_banded",
    "lu_factor",
    "lu_solve",
    "eigh_tridiagonal",
}
_CLOCK_CALLS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "monotonic",
    "monotonic_ns",
    "thread_time",
    "thread_time_ns",
    "clock",
    "sleep",
}
_DATETIME_CALLS = {"now", "utcnow", "today"}
_THREADING_NAMES = {
    "Thread",
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "Timer",
    "local",
}
# Draws on the process-global numpy RNG (hidden, unseeded-by-default
# shared state).  np.random.seed is included: seeding the global RNG is
# still global state — the repo convention is a local default_rng(seed).
_NP_RANDOM_DRAWS = {
    "rand",
    "randn",
    "random",
    "randint",
    "random_integers",
    "random_sample",
    "ranf",
    "sample",
    "uniform",
    "normal",
    "standard_normal",
    "choice",
    "shuffle",
    "permutation",
    "bytes",
    "beta",
    "binomial",
    "exponential",
    "gamma",
    "poisson",
    "seed",
}
_PY_RANDOM_DRAWS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "gauss",
    "normalvariate",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "betavariate",
    "expovariate",
    "triangular",
    "vonmisesvariate",
    "getrandbits",
    "seed",
}
# Generator constructors that are fine *with* a seed argument but are
# unseeded (OS-entropy) when called bare.
_SEEDABLE_CTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
}
# Includes the batched (stacked) kernels: they charge identical flops and
# bytes to the per-element calls they replace, so they are counted
# substrate for the accounting and raw-numpy rules alike.
_BLAS_KERNELS = {
    "dcopy",
    "daxpy",
    "ddot",
    "ddot_batched",
    "dnrm2",
    "dgemv",
    "dgemv_batched",
    "dgemm",
    "dgemm_batched",
    "dtrsm_batched",
    "dvmul",
}
# Counted non-blas kernels: the z-direction real FFT pair charges the
# ambient counter itself (split rfft/irfft pricing), so calling it is
# charging compute just like a blas call.
_FOURIER_KERNELS = {"fft_z", "ifft_z"}

# Names that (by this repo's conventions) hold a rank index.
_RANKISH_NAMES = {
    "rank",
    "src",
    "dst",
    "dest",
    "source",
    "peer",
    "partner",
    "me",
    "dead",
    "root",
}
# Iterating inside these calls is order-insensitive (or re-ordered).
_ORDER_INSENSITIVE_WRAPPERS = {
    "sorted",
    "min",
    "max",
    "sum",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
}

_WAIVER_RE = re.compile(
    r"#\s*repro:\s*waive(?P<file>-file)?\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*)"
)


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One linter finding, formatted ``path:line:col: CODE [rule] msg``."""

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} [{self.rule}] {self.message}"


@dataclass
class _WaiverEntry:
    line: int
    col: int
    rules: set[str]
    raw: str
    is_file: bool
    used: set[str] = field(default_factory=set)


@dataclass
class _Waivers:
    entries: list[_WaiverEntry] = field(default_factory=list)
    problems: list[tuple[int, int, str]] = field(default_factory=list)

    def __post_init__(self):
        self._by_line: dict[int, list[_WaiverEntry]] = {}
        self._file_entries: list[_WaiverEntry] = []

    def add(self, entry: _WaiverEntry) -> None:
        self.entries.append(entry)
        if entry.is_file:
            self._file_entries.append(entry)
        else:
            self._by_line.setdefault(entry.line, []).append(entry)

    def covers(self, rule: str, lines) -> bool:
        """True iff a waiver for ``rule`` sits on one of ``lines`` (or is
        file-wide).  Every matching waiver is credited as used, so two
        waivers that both cover one finding don't read as stale."""
        hit = False
        for e in self._file_entries:
            if rule in e.rules:
                e.used.add(rule)
                hit = True
        for ln in lines:
            for e in self._by_line.get(ln, ()):
                if rule in e.rules:
                    e.used.add(rule)
                    hit = True
        return hit

    def stale(self) -> list[_WaiverEntry]:
        return [e for e in self.entries if not e.used]


def _parse_waivers(source: str) -> _Waivers:
    w = _Waivers()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (t.start[0], t.start[1], t.string)
            for t in tokens
            if t.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        comments = []
    for line, col, text in comments:
        m = _WAIVER_RE.search(text)
        if m is None:
            continue
        tokens_ = [r.strip() for r in m.group("rules").split(",") if r.strip()]
        names = {name_for(t) for t in tokens_}
        unknown = sorted(t for t in tokens_ if name_for(t) is None)
        names.discard(None)
        if unknown or not tokens_:
            w.problems.append(
                (line, col, f"waiver names unknown rule(s): {unknown or '(none)'}")
            )
        if not m.group("reason").strip():
            w.problems.append((line, col, "waiver must carry a reason"))
            continue
        if names:
            w.add(
                _WaiverEntry(
                    line=line,
                    col=col,
                    rules=set(names),
                    raw=m.group("rules").strip(),
                    is_file=bool(m.group("file")),
                )
            )
    return w


def _repro_package(path: str) -> str | None:
    """Sub-package under ``repro`` that a file belongs to, or None."""
    parts = Path(path).parts
    for i, part in enumerate(parts):
        if part == "repro" and i + 1 < len(parts):
            return parts[i + 1] if parts[i + 1].endswith(".py") is False else ""
    return None


class _ImportTable:
    """Maps local names to canonical dotted modules/objects."""

    def __init__(self, tree: ast.AST):
        self.modules: dict[str, str] = {}  # alias -> canonical module
        self.objects: dict[str, str] = {}  # name -> canonical dotted object
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    self.modules[name] = alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom):
                self._import_from(node)

    def _import_from(self, node: ast.ImportFrom) -> None:
        mod = node.module or ""
        for alias in node.names:
            name = alias.asname or alias.name
            if mod in ("time", "threading", "datetime", "numpy", "random"):
                self.objects[name] = f"{mod}.{alias.name}"
            elif mod == "numpy.linalg":
                self.objects[name] = f"numpy.linalg.{alias.name}"
            elif mod == "numpy.random":
                self.objects[name] = f"numpy.random.{alias.name}"
            elif mod in ("scipy.linalg", "scipy"):
                self.objects[name] = f"scipy.linalg.{alias.name}"
            elif alias.name == "blas" and (mod.endswith("linalg") or mod == ""):
                # from ..linalg import blas / from . import blas
                self.modules[name] = "repro.linalg.blas"
            elif mod.endswith("linalg.blas") or mod == "blas":
                if alias.name in _BLAS_KERNELS:
                    self.objects[name] = f"repro.linalg.blas.{alias.name}"
            elif alias.name == "charge" and (
                mod.endswith("counters") or mod.endswith("linalg")
            ):
                self.objects[name] = "repro.linalg.counters.charge"
            elif alias.name in _BLAS_KERNELS and mod.endswith("linalg"):
                self.objects[name] = f"repro.linalg.blas.{alias.name}"
            elif alias.name in _FOURIER_KERNELS and (
                mod.endswith("transforms") or mod.endswith("fourier")
            ):
                self.objects[name] = f"repro.fourier.transforms.{alias.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Canonical dotted name of an attribute/name chain, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        head = node.id
        if head in self.modules:
            return ".".join([self.modules[head], *parts])
        if head in self.objects:
            return ".".join([self.objects[head], *parts])
        return ".".join([head, *parts])


@dataclass
class _Finding:
    line: int
    col: int
    desc: str
    kind: str  # "compute" | "clock" | "thread" | "rawnp" | "rng"


def _classify_call(dotted: str) -> list[str]:
    """Trigger kinds of one resolved call name."""
    parts = dotted.split(".")
    kinds: list[str] = []
    if parts[0] == "numpy":
        rest = parts[1:]
        if len(rest) == 1 and rest[0] in _NUMPY_COMPUTE:
            kinds += ["compute", "rawnp"]
        elif len(rest) == 2 and rest[0] == "linalg" and rest[1] in _NUMPY_LINALG:
            kinds.append("compute")
        elif len(rest) == 2 and rest[0] == "random" and rest[1] in _NP_RANDOM_DRAWS:
            kinds.append("rng")
        elif len(rest) >= 1 and rest[0] == "fft":
            kinds.append("compute")
    elif parts[0] == "scipy" and len(parts) >= 3 and parts[1] == "linalg":
        if parts[2] in _SCIPY_LINALG:
            kinds.append("compute")
    elif parts[0] == "time" and len(parts) == 2 and parts[1] in _CLOCK_CALLS:
        kinds.append("clock")
    elif parts[0] == "datetime":
        if parts[-1] in _DATETIME_CALLS:
            kinds.append("clock")
    elif parts[0] == "threading" and len(parts) == 2 and parts[1] in _THREADING_NAMES:
        kinds.append("thread")
    elif parts[0] == "random" and len(parts) == 2 and parts[1] in _PY_RANDOM_DRAWS:
        kinds.append("rng")
    return kinds


def _is_charging_call(node: ast.Call, table: _ImportTable) -> bool:
    func = node.func
    # Convention: a helper named charge* / _charge* IS a charging wrapper.
    if isinstance(func, ast.Attribute) and func.attr.lstrip("_").startswith("charge"):
        return True
    dotted = table.resolve(func)
    if dotted is None:
        return False
    last = dotted.rsplit(".", 1)[-1]
    if last.lstrip("_").startswith("charge"):
        return True
    if dotted.startswith("repro.linalg.blas."):
        return True
    if (
        dotted.startswith("repro.fourier.transforms.")
        and dotted.rsplit(".", 1)[-1] in _FOURIER_KERNELS
    ):
        return True
    return False


@dataclass
class _FunctionReport:
    name: str
    def_line: int
    rank_ctx: bool
    charges: bool = False
    findings: list[_Finding] = field(default_factory=list)


def _is_rank_function(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = list(fn.args.posonlyargs) + list(fn.args.args)
    if args and args[0].arg in ("self", "cls"):
        args = args[1:]
    if args and args[0].arg == "comm":
        return True
    for a in args:
        if a.annotation is not None and "VirtualComm" in ast.unparse(a.annotation):
            return True
    return False


def _own_nodes(fn: ast.AST):
    """Descendants of ``fn`` that are not inside a nested def."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _analyze_function(
    fn: ast.AST, name: str, def_line: int, rank_ctx: bool, table: _ImportTable
) -> _FunctionReport:
    rep = _FunctionReport(name=name, def_line=def_line, rank_ctx=rank_ctx)
    for node in _own_nodes(fn):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            rep.findings.append(
                _Finding(node.lineno, node.col_offset, "'@' (matrix multiply)", "compute")
            )
            rep.findings.append(
                _Finding(node.lineno, node.col_offset, "'@' (matrix multiply)", "rawnp")
            )
        elif isinstance(node, ast.Call):
            if _is_charging_call(node, table):
                rep.charges = True
                continue
            dotted = table.resolve(node.func)
            if dotted is None:
                continue
            if dotted in _SEEDABLE_CTORS and not node.args and not node.keywords:
                rep.findings.append(
                    _Finding(
                        node.lineno,
                        node.col_offset,
                        f"{dotted}() without a seed",
                        "rng",
                    )
                )
                continue
            for kind in _classify_call(dotted):
                rep.findings.append(
                    _Finding(node.lineno, node.col_offset, f"{dotted}()", kind)
                )
    return rep


def _collect_functions(
    tree: ast.Module, table: _ImportTable
) -> list[_FunctionReport]:
    reports: list[_FunctionReport] = []

    def visit(node: ast.AST, rank_ctx: bool, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                ctx = rank_ctx or _is_rank_function(child)
                qual = f"{prefix}{child.name}"
                reports.append(
                    _analyze_function(child, qual, child.lineno, ctx, table)
                )
                visit(child, ctx, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, rank_ctx, f"{prefix}{child.name}.")

    visit(tree, False, "")
    # Module-level statements form a pseudo-function (e.g. a module-level
    # wall-clock call in a solver module is still a violation).
    module_body = ast.Module(
        body=[
            stmt
            for stmt in tree.body
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ],
        type_ignores=[],
    )
    reports.append(_analyze_function(module_body, "<module>", 1, False, table))
    return reports


# ------------------------------------------------------- REPRO006 dataflow


def _terminal_name(node: ast.expr) -> str | None:
    """Last identifier of a name/attribute chain (``cl._crashed`` ->
    ``_crashed``), or None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _expr_is_rankish(node: ast.expr, rankish_locals: set[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "rank":
            return True
        if isinstance(sub, ast.Name) and (
            sub.id in _RANKISH_NAMES or sub.id in rankish_locals
        ):
            return True
    return False


def _rank_keyed_names(tree: ast.Module) -> set[str]:
    """Identifiers of dicts that dataflow shows are keyed by rank.

    A container is rank-keyed when it is subscript-assigned (or
    ``setdefault``-ed) with a key expression that mentions a rank —
    ``d[comm.rank] = v``, ``d.setdefault(partner, []).append(x)``, or a
    key variable itself assigned from a rank expression.  Tracking is by
    terminal identifier (``self.pair_plan`` and ``pair_plan`` share one
    entry): per-rank entries land in these containers in arrival order,
    which is host-scheduling dependent, so iteration must be sorted.
    """
    rankish_locals: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            tgt = node.targets[0]
            if isinstance(tgt, ast.Name) and _expr_is_rankish(node.value, set()):
                rankish_locals.add(tgt.id)
    keyed: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for tgt in targets:
                if isinstance(tgt, ast.Subscript) and _expr_is_rankish(
                    tgt.slice, rankish_locals
                ):
                    name = _terminal_name(tgt.value)
                    if name is not None:
                        keyed.add(name)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "setdefault"
                and node.args
                and _expr_is_rankish(node.args[0], rankish_locals)
            ):
                name = _terminal_name(func.value)
                if name is not None:
                    keyed.add(name)
    return keyed


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _classify_iteration(node: ast.expr, rank_keyed: set[str]) -> str | None:
    """What a loop over ``node`` iterates, if hazardous."""
    if _is_set_expr(node):
        return "a set (implementation-defined order)"
    name = _terminal_name(node)
    if name in rank_keyed:
        return f"rank-keyed dict '{name}' (arrival order)"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
    ):
        base = _terminal_name(node.func.value)
        if base in rank_keyed:
            return f"rank-keyed dict '{base}.{node.func.attr}()' (arrival order)"
    return None


def _iteration_findings(tree: ast.Module) -> list[_Finding]:
    rank_keyed = _rank_keyed_names(tree)
    findings: list[_Finding] = []
    exempt_comps: set[int] = set()
    for node in ast.walk(tree):
        # sum(... for ... in s) / sorted({...}) etc. are order-insensitive.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_INSENSITIVE_WRAPPERS
        ):
            for arg in node.args:
                if isinstance(
                    arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
                ):
                    exempt_comps.add(id(arg))
    for node in ast.walk(tree):
        iters: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(
            node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            if id(node) in exempt_comps:
                continue
            iters.extend(g.iter for g in node.generators)
        for it in iters:
            desc = _classify_iteration(it, rank_keyed)
            if desc is not None:
                findings.append(
                    _Finding(it.lineno, it.col_offset, desc, "iter")
                )
    return findings


# ------------------------------------------------------------ file context


class _FileContext:
    """Parsed state of one file shared by every rule pass."""

    def __init__(self, path: str, source: str):
        self.path = path
        self.pkg = _repro_package(path)
        self.waivers = _parse_waivers(source)
        self.tree: ast.Module | None = None
        self.syntax_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.syntax_error = exc
            self.table = None
            self._stmts: list[tuple[int, int]] = []
            self._defs: list[tuple[int, int, int, int]] = []
            return
        self.table = _ImportTable(self.tree)
        self._stmts = [
            (node.lineno, node.end_lineno or node.lineno)
            for node in ast.walk(self.tree)
            if isinstance(node, ast.stmt)
        ]
        # (span_start incl. decorators, header_end, body_start, body_end)
        self._defs = []
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dec_start = min(
                    [d.lineno for d in node.decorator_list], default=node.lineno
                )
                body_start = node.body[0].lineno
                self._defs.append(
                    (dec_start, body_start - 1, node.lineno, node.end_lineno or node.lineno)
                )

    def waiver_lines(self, line: int) -> set[int]:
        """Lines on which a waiver comment covers a finding at ``line``:
        the innermost enclosing statement's extent plus the line above
        it, and the enclosing def's decorator/header block plus the line
        above that."""
        lines = {line, line - 1}
        best: tuple[int, int] | None = None
        for s, e in self._stmts:
            if s <= line <= e and (best is None or (e - s) < (best[1] - best[0])):
                best = (s, e)
        if best is not None:
            lines.update(range(best[0] - 1, best[1] + 1))
        innermost: tuple[int, int, int, int] | None = None
        for dec_start, header_end, def_line, end in self._defs:
            if dec_start <= line <= end and (
                innermost is None or dec_start >= innermost[0]
            ):
                innermost = (dec_start, header_end, def_line, end)
        if innermost is not None:
            lines.update(range(innermost[0] - 1, innermost[1] + 1))
        return lines

    def covered(self, rule: str, line: int) -> bool:
        return self.waivers.covers(rule, self.waiver_lines(line))


# ------------------------------------------------------------- rule driver


def _diag(ctx: _FileContext, line: int, col: int, rule: str, message: str) -> Diagnostic:
    return Diagnostic(ctx.path, line, col, RULES[rule][0], rule, message)


def _lint_ctx(ctx: _FileContext, select: set[str] | None) -> list[Diagnostic]:
    """Every rule over one file."""
    diags: list[Diagnostic] = []
    for line, col, msg in ctx.waivers.problems:
        diags.append(Diagnostic(ctx.path, line, col, WAIVER_CODE, "waiver", msg))
    if ctx.syntax_error is not None:
        exc = ctx.syntax_error
        diags.append(
            Diagnostic(
                ctx.path, exc.lineno or 1, exc.offset or 0, WAIVER_CODE, "syntax", str(exc.msg)
            )
        )
        return diags
    assert ctx.tree is not None and ctx.table is not None
    pkg = ctx.pkg

    def on(rule: str, natural: bool) -> bool:
        if select is not None:
            # A selected rule is forced onto every analyzed file (audits
            # over tests/ and benchmarks/ ride on this).
            return rule in select
        return natural

    reports = _collect_functions(ctx.tree, ctx.table)

    in_acct = pkg in ACCOUNTING_PACKAGES
    in_vtime = pkg in VIRTUAL_TIME_PACKAGES
    in_rawnp = pkg in RAW_NUMPY_PACKAGES
    in_det = pkg in DETERMINISM_PACKAGES
    in_repro = pkg is not None

    for rep in reports:
        computes = [f for f in rep.findings if f.kind == "compute"]
        if on("accounting", in_acct) and computes and not rep.charges:
            first = min(computes, key=lambda f: (f.line, f.col))
            if not ctx.covered("accounting", first.line):
                diags.append(
                    _diag(
                        ctx,
                        first.line,
                        first.col,
                        "accounting",
                        f"function '{rep.name}' computes with {first.desc} but never "
                        "charges the ambient OpCounter (call charge() or a counted "
                        "repro.linalg.blas kernel, or add "
                        "'# repro: waive[accounting] <reason>')",
                    )
                )
        for f in rep.findings:
            if f.kind == "clock":
                if on("virtual-time", in_vtime or rep.rank_ctx) and (
                    in_vtime or rep.rank_ctx or select is not None
                ):
                    if not ctx.covered("virtual-time", f.line):
                        diags.append(
                            _diag(
                                ctx,
                                f.line,
                                f.col,
                                "virtual-time",
                                f"real wall-clock primitive {f.desc} in virtual-time "
                                f"code (function '{rep.name}'): use the rank's virtual "
                                "clocks (comm.wall / comm.cpu_time) or simmpi primitives",
                            )
                        )
                elif on("wall-clock", in_det):
                    if not ctx.covered("wall-clock", f.line):
                        diags.append(
                            _diag(
                                ctx,
                                f.line,
                                f.col,
                                "wall-clock",
                                f"host-clock read {f.desc} in deterministic numeric "
                                f"code (function '{rep.name}'): priced quantities must "
                                "be pure functions of their inputs",
                            )
                        )
            elif f.kind == "thread":
                if on("virtual-time", in_vtime or rep.rank_ctx):
                    if not ctx.covered("virtual-time", f.line):
                        diags.append(
                            _diag(
                                ctx,
                                f.line,
                                f.col,
                                "virtual-time",
                                f"raw threading primitive {f.desc} in virtual-time "
                                f"code (function '{rep.name}'): use the rank's virtual "
                                "clocks (comm.wall / comm.cpu_time) or simmpi primitives",
                            )
                        )
            elif f.kind == "rawnp":
                if on("raw-numpy", in_rawnp or rep.rank_ctx):
                    if not ctx.covered("raw-numpy", f.line):
                        diags.append(
                            _diag(
                                ctx,
                                f.line,
                                f.col,
                                "raw-numpy",
                                f"raw numpy linear algebra {f.desc} in hot path "
                                f"(function '{rep.name}') sidesteps the counted "
                                "repro.linalg.blas kernels",
                            )
                        )
            elif f.kind == "rng":
                if on("unseeded-rng", in_repro):
                    if not ctx.covered("unseeded-rng", f.line):
                        diags.append(
                            _diag(
                                ctx,
                                f.line,
                                f.col,
                                "unseeded-rng",
                                f"unseeded random draw {f.desc} in "
                                f"function '{rep.name}': use a seeded "
                                "np.random.default_rng(seed) so runs replay "
                                "bit-for-bit",
                            )
                        )

    in_order = pkg in ORDERED_ITERATION_PACKAGES
    rank_fn_spans = [
        (d, e)
        for (d, _h, _dl, e), node_rank in zip(ctx._defs, _def_rank_flags(ctx.tree))
        if node_rank
    ]
    for f in _iteration_findings(ctx.tree):
        natural = in_order or any(s <= f.line <= e for s, e in rank_fn_spans)
        if not on("unordered-iteration", natural):
            continue
        if ctx.covered("unordered-iteration", f.line):
            continue
        diags.append(
            _diag(
                ctx,
                f.line,
                f.col,
                "unordered-iteration",
                f"iteration over {f.desc} is not wrapped in sorted(): "
                "per-rank arrival order depends on host thread scheduling, "
                "which breaks bitwise determinism",
            )
        )
    return diags


def _def_rank_flags(tree: ast.Module) -> list[bool]:
    """Rank-context flag per def, in ``ast.walk`` order (matches the
    construction order of ``_FileContext._defs``)."""
    flags = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            flags.append(_is_rank_function(node))
    return flags


def _normalize_select(select) -> set[str] | None:
    if select is None:
        return None
    names: set[str] = set()
    for token in select:
        name = name_for(token)
        if name is None:
            raise ValueError(f"unknown rule: {token}")
        names.add(name)
    return names


def _run(ctxs: list[_FileContext], select: set[str] | None) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for ctx in ctxs:
        diags.extend(_lint_ctx(ctx, select))
    if select is None:
        # Stale-waiver detection needs the full rule set to have run.
        for ctx in ctxs:
            for e in ctx.waivers.stale():
                diags.append(
                    Diagnostic(
                        ctx.path,
                        e.line,
                        e.col,
                        WAIVER_CODE,
                        "waiver",
                        f"stale waiver: waive{'-file' if e.is_file else ''}"
                        f"[{e.raw}] no longer suppresses anything — remove it",
                    )
                )
    diags.sort()
    return diags


def lint_files(files, select=None) -> list[Diagnostic]:
    """Lint the given files."""
    ctxs = [
        _FileContext(str(p), Path(p).read_text(encoding="utf-8")) for p in files
    ]
    return _run(ctxs, _normalize_select(select))


def _iter_python_files(paths):
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if any(
                    part in ("__pycache__",) or part.endswith(".egg-info")
                    for part in f.parts
                ):
                    continue
                yield f
        elif p.suffix == ".py":
            yield p


def lint_paths(paths, select=None) -> list[Diagnostic]:
    """Lint every ``.py`` file under the given files/directories."""
    return lint_files(list(_iter_python_files(paths)), select)
