"""Benchmark-side layer tracer: spans around calls into each ``repro`` layer.

Nothing under ``src/`` knows about this module.  :class:`LayerTracer`
replaces a declared table of public callables (:data:`WRAP_TABLE`) with
thin wrappers that record one span per call, and puts the originals back
in :meth:`LayerTracer.uninstall`.  Spans stay in memory (one tuple per
call, appended under the GIL) and are written out once, at the end.

Self time is **thread CPU time**, not wall time.  Rank threads of a
``VirtualCluster`` block inside comm calls while other ranks hold the
run token, so the wall duration of a comm span covers other ranks' work;
its CPU duration covers only the simulator's own matching and pricing.
A span's self time is its CPU duration minus that of its same-thread
children, and a layer's self time over a window is the sum over every
span of that layer, on any thread, inside the window; a span that
straddles the window's edge counts by the share of it that is inside.

What no thread's CPU accounts for (token hand-off latency, GIL waits,
file I/O) is the window's *remainder*: wall minus attributed CPU.  In a
window with spans on more than one thread it is charged to ``parallel``
(hand-offs between rank threads are the scheduler's cost); otherwise to
``driver``.  ``driver`` also takes the window root's own self time, i.e.
benchmark code between calls into the program.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple

__all__ = ["LAYERS", "WRAP_TABLE", "Span", "LayerTracer", "layer_self_times"]

#: ``src/repro`` packages reported as layers, in bottom-up order.
LAYERS = (
    "spectral",
    "mesh",
    "linalg",
    "assembly",
    "solvers",
    "fourier",
    "ns",
    "machines",
    "parallel",
    "obs",
    "campaign",
    "apps",
)

#: layer -> module -> names to wrap (``Class.method`` or ``function``).
#: Module-level functions are patched in every loaded ``repro`` module
#: that imported them by name, so ``from ..linalg.cg import pcg`` call
#: sites are traced too.  Per-message calls (``VirtualComm.send/recv``,
#: ``NetworkModel.send_time``, the recorder's ``on_send``/``on_recv``)
#: are left out on purpose: a wrapper costs about what they do, which
#: doubled the traced campaign.  Their time lands in the caller's layer,
#: which on a rank thread is ``parallel``.
WRAP_TABLE: dict[str, dict[str, tuple[str, ...]]] = {
    "spectral": {
        "repro.spectral.expansions": ("Expansion2D.__init__",),
        "repro.spectral.quadrature": ("quad_rule", "tri_rule"),
    },
    "mesh": {
        "repro.mesh.generators": (
            "body_fitted_mesh",
            "rectangle_quads",
            "attach_circular_wall",
        ),
        "repro.mesh.curved": ("make_element_map",),
        "repro.mesh.mapping": ("GeomFactors.compute",),
    },
    "linalg": {
        "repro.linalg.banded": (
            "BandedSPDSolver.from_dense",
            "BandedSPDSolver.from_banded",
            "BandedSPDSolver.solve",
            "BandedSPDSolver.solve_many",
        ),
        "repro.linalg.cg": ("pcg", "pcg_block"),
    },
    "assembly": {
        "repro.assembly.space": (
            "FunctionSpace.__init__",
            "FunctionSpace.batches",
            "FunctionSpace.backward",
            "FunctionSpace.forward",
            "FunctionSpace.gradient",
            "FunctionSpace.load_vector",
            "FunctionSpace.grad_load_vector",
            "FunctionSpace.integrate",
            "FunctionSpace.elemental_matrices",
            "FunctionSpace.operator_apply",
            "FunctionSpace.operator_diagonal",
        ),
        "repro.assembly.dofmap": ("DofMap.__init__",),
        "repro.assembly.condensation": (
            "CondensedOperator.__init__",
            "CondensedOperator.solve",
        ),
        "repro.assembly.boundary": ("build_edge_quadrature",),
        "repro.assembly.global_system": ("project_dirichlet",),
    },
    "solvers": {
        "repro.solvers.helmholtz": (
            "HelmholtzDirect.__init__",
            "HelmholtzDirect.solve",
            "HelmholtzDirect.solve_rhs",
            "HelmholtzCG.__init__",
            "HelmholtzCG.solve",
            "HelmholtzCG.solve_rhs",
        ),
    },
    "fourier": {
        "repro.fourier.pipeline": (
            "FusedFourierPipeline.to_physical",
            "FusedFourierPipeline.to_modal",
        ),
        "repro.fourier.transforms": ("fft_z", "ifft_z"),
        "repro.fourier.mapping": ("transpose_to_points", "transpose_to_modes"),
    },
    "ns": {
        "repro.ns.nektar2d": (
            "NavierStokes2D.__init__",
            "NavierStokes2D.set_initial",
            "NavierStokes2D.step",
            "NavierStokes2D.kinetic_energy",
            "NavierStokes2D.divergence_norm",
        ),
        "repro.ns.nektar_f": (
            "NekTarF.__init__",
            "NekTarF.set_initial",
            "NekTarF.step",
            "NekTarF.kinetic_energy",
        ),
        "repro.ns.ale": (
            "ALENavierStokes2D.__init__",
            "ALENavierStokes2D.set_initial",
            "ALENavierStokes2D.step",
        ),
    },
    "machines": {
        "repro.machines.network": (
            "NetworkModel.alltoall_time",
            "NetworkModel.allreduce_time",
            "NetworkModel.barrier_time",
        ),
        "repro.machines.cpu": (
            "CPUModel.stage_rate",
            "CPUModel.app_time",
            "CPUModel.blas_rate",
        ),
    },
    "parallel": {
        "repro.parallel.simmpi": (
            "VirtualCluster.__init__",
            "VirtualCluster.run",
            "VirtualComm.alltoall",
            "VirtualComm.allreduce",
            "VirtualComm.allgather",
            "VirtualComm.bcast",
            "VirtualComm.barrier",
        ),
    },
    "obs": {
        "repro.obs.critpath": (
            "analyze",
            "swap_network",
            "aggregate_analyses",
            "EventGraph.to_dict",
            "EventGraph.from_dict",
            "CritPathRecorder.on_run_begin",
            "CritPathRecorder.on_run_finish",
        ),
        "repro.obs.runlog": (
            "RunLedger.append",
            "RunLedger.records",
            "RunLedger.completed",
        ),
    },
    "campaign": {
        "repro.campaign.engine": (
            "CampaignEngine.__init__",
            "CampaignEngine.run",
            "campaign_report",
        ),
        "repro.campaign.cache": ("OperatorCache.get_or_build",),
        "repro.campaign.matrix": ("expand_matrix",),
        "repro.campaign.search": ("load_graphs", "search_catalog"),
    },
    "apps": {
        "repro.apps.serial_bluff": (
            "main",
            "table1",
            "figure12",
            "paper_stage_flops",
            "measure_reduced",
            "reduced_solver",
            "_paper_dofmap_stats",
        ),
        "repro.apps.nektar_f_bench": ("main", "table2", "figure13_14"),
        "repro.apps.ale_bench": ("main", "table3", "figure15_16"),
        "repro.apps.kernel_report": ("report",),
        "repro.apps.pricing": ("price_stages",),
    },
}


class Span(NamedTuple):
    """One recorded call.  ``parent`` is the enclosing span on the same
    thread (-1 at the bottom of a thread's stack)."""

    id: int
    parent: int
    name: str
    layer: str
    thread: int
    start: float  # host wall, time.perf_counter()
    end: float
    cpu_start: float  # this thread's CPU clock, time.thread_time()
    cpu_end: float


def layer_self_times(
    spans: Iterable[Span],
    windows: Iterable[tuple[float, float]],
    roots: Iterable[int] = (),
) -> dict[str, float]:
    """Per-layer self seconds, summed over disjoint wall-clock windows.

    Counts every span, on any thread, that overlaps a window.  A span
    that straddles a window's edge (a rank still inside ``barrier`` when
    rank 0 closes the unit) is counted by the share of its wall duration
    that lies inside; its children are spans of their own and are
    counted by their own overlap.  ``roots`` are the harness spans that
    delimit the windows; they are booked to ``driver``.  Returns the
    layer sums plus ``driver`` and, for the consistency checks,
    ``_wall`` (the windows' total length), ``_remainder`` (wall minus
    attributed CPU, before it was folded into ``parallel`` or
    ``driver``; negative when threads really ran at once) and
    ``_straddling`` (the CPU that was counted by share).
    """
    windows = sorted(windows)
    starts = [w[0] for w in windows]
    roots = set(roots)
    spans = list(spans)
    child_cpu: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_cpu[s.parent] += s.cpu_end - s.cpu_start
    out: dict[str, float] = defaultdict(float)
    threads, straddling = set(), 0.0
    for s in spans:
        inside = 0.0  # share of the span's duration inside any window
        i = max(0, bisect.bisect_right(starts, s.start) - 1)
        while i < len(windows) and windows[i][0] <= s.end:
            t0, t1 = windows[i]
            if s.end > s.start:
                inside += max(0.0, min(s.end, t1) - max(s.start, t0)) / (s.end - s.start)
            elif t0 <= s.start <= t1:
                inside = 1.0
            i += 1
        if inside <= 0.0:
            continue
        own = (s.cpu_end - s.cpu_start) - child_cpu.get(s.id, 0.0)
        if inside < 1.0:
            own *= inside
            straddling += own
        out["driver" if s.id in roots else s.layer] += own
        threads.add(s.thread)
    wall = sum(t1 - t0 for t0, t1 in windows)
    remainder = wall - sum(out.values())
    out["parallel" if len(threads) > 1 else "driver"] += max(0.0, remainder)
    result = {layer: out.get(layer, 0.0) for layer in (*LAYERS, "driver")}
    result["_wall"] = wall
    result["_remainder"] = remainder
    result["_straddling"] = straddling
    return result


class LayerTracer:
    """Installs span-recording wrappers over :data:`WRAP_TABLE`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        # (owner, attribute, original) for every replaced binding.
        self._patched: list[tuple[Any, str, Any]] = []
        self._wrapped: set[tuple[int, str]] = set()

    # -- recording -------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        tls, spans, ids = self._tls, self.spans, self._ids
        perf, cpu, ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = tls.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            c0 = cpu()
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                spans.append(Span(sid, parent, name, layer, ident(), t0, t1, c0, c1))

        return traced

    def span(self, name: str, layer: str = "driver") -> "_ManualSpan":
        """Context manager for a harness-side span (window roots)."""
        return _ManualSpan(self, name, layer)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> int:
        """Wrap every table entry whose module is already imported.

        Safe to call again after more of the program has been imported:
        bindings that are already wrapped are left alone.  Returns the
        number of bindings replaced by this call.
        """
        before = len(self._patched)
        for layer, modules in WRAP_TABLE.items():
            for modname, names in modules.items():
                module = sys.modules.get(modname)
                if module is None:
                    continue
                for dotted in names:
                    self._install_one(module, dotted, layer)
        return len(self._patched) - before

    def _install_one(self, module: Any, dotted: str, layer: str) -> None:
        label = f"{module.__name__.removeprefix('repro.')}.{dotted}"
        if "." in dotted:
            clsname, attr = dotted.split(".")
            owner = getattr(module, clsname)
            raw = owner.__dict__[attr]
            self._replace(owner, attr, raw, label, layer)
            return
        fn = getattr(module, dotted)
        fn = getattr(fn, "__wrapped_original__", fn)
        # Every loaded repro module that holds this function under any
        # name gets the traced version.
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._replace(mod, attr, fn, label, layer)

    def _replace(self, owner: Any, attr: str, raw: Any, label: str, layer: str) -> None:
        key = (id(owner), attr)
        if key in self._wrapped:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            traced: Any = type(raw)(self._wrap(raw.__func__, label, layer))
        else:
            traced = self._wrap(raw, label, layer)
            traced.__wrapped_original__ = raw
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, raw))
        self._wrapped.add(key)

    def uninstall(self) -> None:
        """Put every original binding back (reverse order)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)
        self._wrapped.clear()

    # -- output ----------------------------------------------------------

    def write(self, path, meta: dict[str, Any]) -> None:
        """Write all spans as JSON (columns named once, rows as lists)."""
        with open(path, "w") as fh:
            json.dump(
                {"meta": meta, "columns": list(Span._fields), "spans": self.spans},
                fh,
            )
            fh.write("\n")

    def total(self, name: str) -> tuple[float, int]:
        """(summed wall seconds, calls) of every span called ``name``."""
        hits = [s.end - s.start for s in self.spans if s.name == name]
        return sum(hits), len(hits)


class _ManualSpan:
    def __init__(self, tracer: LayerTracer, name: str, layer: str):
        self._tracer, self._name, self._layer = tracer, name, layer
        self.id = -1
        self.window = (0.0, 0.0)

    def __enter__(self) -> "_ManualSpan":
        tr = self._tracer
        try:
            stack = tr._tls.stack
        except AttributeError:
            stack = tr._tls.stack = []
        self.id = next(tr._ids)
        self._parent = stack[-1] if stack else -1
        stack.append(self.id)
        self._c0 = time.thread_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        c1 = time.thread_time()
        tr = self._tracer
        tr._tls.stack.pop()
        self.window = (self._t0, t1)
        tr.spans.append(
            Span(
                self.id, self._parent, self._name, self._layer,
                threading.get_ident(), self._t0, t1, self._c0, c1,
            )
        )
