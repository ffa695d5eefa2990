"""Child process: one workload, one set-up, one window of timed units.

``run.py`` starts this file once per repeat so that imports, caches and
peak memory are per workload.  Protocol on standard output, one JSON
object per line: ``{"event": "ready"}`` when set-up is done (the parent
stamps its own clock then, so ``setup_s`` includes interpreter start),
and ``{"event": "result", ...}`` at the end.  Whatever the program
itself prints is not on this channel: the workloads capture it.

Beside every timed part the child times three small reference kernels
(:class:`HostClock`); the parent divides unit time by their time, so a
stretch in which the shared host runs everything slower cancels out.

Modes: ``plain`` measures and nothing else; ``traced`` does the same
under :class:`tracing.LayerTracer` and reports per-layer self times;
``isolated`` measures untraced (the base of the tracing-overhead ratio)
and then times single public calls at the workload's shapes.
"""

from __future__ import annotations

import time

T_ENTRY = time.perf_counter()  # before any heavy import: child entry

import argparse
import bisect
import contextlib
import importlib
import json
import os
import random
import resource
import shutil
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"


class HostClock:
    """Three reference kernels, timed beside the units.

    The sandbox's speed drifts by tens of percent over tens of seconds,
    and not equally for all code: in the same minute a streaming sum ran
    2x slower than at its best and an interpreter loop 1.3x.  So the
    kernels are one of each kind - a small dense product (``blas``), a
    bytecode loop (``py``) and a sum over 2 MB (``mem``) - each 0.07-0.15
    ms when the host is quiet; the parent takes the geometric mean of
    their slow-downs.
    """

    KERNELS = ("blas", "py", "mem")

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((160, 160))
        self._v = rng.standard_normal(250_000)
        self.samples: dict[str, list[float]] = {k: [] for k in self.KERNELS}

    def tick(self) -> None:
        """Four rounds of the three kernels, about 2 ms, right after a
        timed part - caches as the part left them."""
        clock, (blas, py, mem) = time.perf_counter, self.samples.values()
        a, v = self._a, self._v
        for _ in range(4):
            t0 = clock()
            a @ a
            t1 = clock()
            acc = 0
            for i in range(3000):
                acc += i * i
            t2 = clock()
            v.sum()
            t3 = clock()
            blas.append(t1 - t0)
            py.append(t2 - t1)
            mem.append(t3 - t2)


class Harness:
    """What a workload sees: its inputs, the unit clock, the findings."""

    def __init__(self, name: str, seed: int, smoke: bool, window_s: float, tracer, emit):
        from workloads import SHAPES

        self.shape = SHAPES[name]["smoke" if smoke else "full"]
        if self.shape.get("one_cpu"):
            # The last allowed CPU: interrupts tend to land on the first.
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.rng = random.Random(seed)
        self.window_s = window_s
        self.tracer = tracer
        self.clock = HostClock()
        self._emit = emit
        self.t_ready = 0.0
        # Host seconds of every timed part, by part name; and of whole units.
        self.parts: dict[str, list[float]] = {}
        self.unit_s: list[float] = []
        self.unit_scale = 1.0  # units per timed block (a block of N jobs: 1/N)
        # The issue's named rates: name -> (work per block, prefix of the
        # parts that do it); the parent divides by those parts' time.
        self.rates: dict[str, tuple[float, str]] = {}
        self._timed = True
        self._parts_recorded = 0
        self.unit_windows: list[tuple[tuple[float, float], int]] = []
        self.units_done = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.golden_any: dict = {}
        self.golden_seed: dict = {}
        self.repeatable: dict = {}
        self.layer: dict[str, float] = {}
        self._tmp: Path | None = None

    # -- the unit clock --------------------------------------------------

    def ready(self) -> None:
        """Set-up is over: the next thing that happens is a unit."""
        if self.tracer is not None:
            self.tracer.install()  # catch modules imported lazily by set-up
        self.t_ready = time.perf_counter()
        self._emit({"event": "ready"})

    def keep_going(self) -> bool:
        done = self.units_done
        if done >= self.shape.get("max_units", 1 << 30):
            return False
        if done <= self.shape.get("check_at", -1):
            return True
        return time.perf_counter() - self.t_ready < self.window_s

    def at_check(self) -> bool:
        return self.units_done == self.shape.get("check_at", -1)

    @contextlib.contextmanager
    def unit(self, timed: bool = True):
        """One unit.  Its time is recorded part by part (:meth:`part`);
        a unit that names no part is one part, ``unit``.  The check unit
        passes ``timed=False``: it counts as done but records nothing."""
        span = (
            self.tracer.span("unit") if self.tracer is not None and timed
            else contextlib.nullcontext()
        )
        self._timed, had = timed, self._parts_recorded
        t0 = time.perf_counter()
        with span:
            yield
        t1 = time.perf_counter()
        self.units_done += 1
        self.attempted += 1
        if timed:
            if self._parts_recorded == had:
                self.parts.setdefault("unit", []).append(t1 - t0)
                self.clock.tick()
            self.unit_s.append(t1 - t0)
            if self.tracer is not None:
                self.unit_windows.append((span.window, span.id))

    @contextlib.contextmanager
    def unrecorded(self):
        """Run parts without recording them (warm-up during set-up)."""
        self._timed = False
        try:
            yield
        finally:
            self._timed = True

    @contextlib.contextmanager
    def part(self, name: str):
        """Time one named part of the current unit."""
        t0 = time.perf_counter()
        yield
        if self._timed:
            self.parts.setdefault(name, []).append(time.perf_counter() - t0)
            self._parts_recorded += 1
            self.clock.tick()

    # -- findings --------------------------------------------------------

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def tmpdir(self) -> Path:
        """Scratch space inside the checkout, removed when the child ends."""
        if self._tmp is None:
            self._tmp = OUT / f"tmp-{threading.get_native_id()}"
            self._tmp.mkdir(parents=True, exist_ok=True)
        return self._tmp

    def cleanup(self) -> None:
        if self._tmp is not None:
            shutil.rmtree(self._tmp, ignore_errors=True)


# -- the traced run's arithmetic ---------------------------------------------

#: per-unit call counts reported from the trace: metric -> span name
CALL_COUNTS = {
    "assembly.calls.backward": "assembly.space.FunctionSpace.backward",
    "assembly.calls.gradient": "assembly.space.FunctionSpace.gradient",
    "assembly.calls.load_vector": "assembly.space.FunctionSpace.load_vector",
    "assembly.calls.operator_apply": "assembly.space.FunctionSpace.operator_apply",
    "assembly.calls.condensed_solve": "assembly.condensation.CondensedOperator.solve",
}

#: wall seconds of whole spans reported from the trace: metric -> (span, factor)
SPAN_TOTALS = {
    "apps.table1_s": ("apps.serial_bluff.main", 1.0),
    "apps.table2_ms": ("apps.nektar_f_bench.main", 1e3),
    "apps.table3_ms": ("apps.ale_bench.main", 1e3),
    "apps.figs1_8_ms": ("apps.kernel_report.report", 1e3),
    "apps.measure_reduced_s": ("apps.serial_bluff.measure_reduced", 1.0),
    "apps.paper_dofmap_stats_s": ("apps.serial_bluff._paper_dofmap_stats", 1.0),
}


def trace_metrics(tracer, h: Harness, t_imports: float) -> dict[str, float]:
    """Per-layer self times of set-up and of one unit, plus the checks."""
    from tracing import LAYERS, layer_self_times

    spans = tracer.spans
    out: dict[str, float] = {"import.setup_self_s": t_imports - T_ENTRY}
    setup = layer_self_times(spans, [(t_imports, h.t_ready)])
    units = layer_self_times(
        spans, [w for w, _ in h.unit_windows], [root for _, root in h.unit_windows]
    )
    per_unit = h.unit_scale / max(1, len(h.unit_windows))
    for layer in (*LAYERS, "driver"):
        out[f"{layer}.setup_self_s"] = setup[layer]
        out[f"{layer}.unit_self_ms"] = units[layer] * per_unit * 1e3
    # Attributed CPU may not exceed the wall it is attributed within:
    # exactly one thread computes at a time (run token, GIL, 1 BLAS thread).
    both = [w for w in (setup, units) if w["_wall"] > 0]
    out["trace.sum_error_max"] = max(max(0.0, -w["_remainder"]) / w["_wall"] for w in both)
    if out["trace.sum_error_max"] > 0.02:
        h.fail(
            f"layer self times exceed the traced wall by {out['trace.sum_error_max']:.1%}"
        )
    # CPU of spans cut by a window's edge and counted by share: how much
    # of the split rests on that approximation.
    out["trace.straddle_share"] = max(w["_straddling"] / w["_wall"] for w in both)
    windows = sorted(w for w, _ in h.unit_windows)
    starts = [w[0] for w in windows]
    calls: dict[str, int] = {}  # calls that began inside a unit, by span name
    for s in spans:
        i = bisect.bisect_right(starts, s.start) - 1
        if i >= 0 and s.start <= windows[i][1]:
            calls[s.name] = calls.get(s.name, 0) + 1
    for metric, name in CALL_COUNTS.items():
        out[metric] = calls.get(name, 0) * per_unit
    for metric, (name, factor) in SPAN_TOTALS.items():
        out[metric] = tracer.total(name)[0] * factor
    out["spectral.expansions_built"] = float(
        tracer.total("spectral.expansions.Expansion2D.__init__")[1]
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=float, required=True)
    parser.add_argument("--mode", choices=["plain", "traced", "isolated"], default="plain")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    channel = sys.stdout

    def emit(obj: dict) -> None:
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    sys.path.insert(0, str(HERE))
    from workloads import IMPORTS, QUOTA, WORKLOADS

    for module in IMPORTS[args.workload]:
        importlib.import_module(module)
    t_imports = time.perf_counter()

    tracer = None
    if args.mode == "traced":
        from tracing import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    h = Harness(args.workload, args.seed, args.smoke, args.window, tracer, emit)
    layer: dict[str, float] = {}
    traced: dict[str, float] = {}
    try:
        try:
            WORKLOADS[args.workload](h)
        finally:
            if tracer is not None:
                tracer.uninstall()
        t_end = time.perf_counter()
        if not h.unit_s:
            h.fail("no timed unit completed")
        layer.update(h.layer)
        if tracer is not None:
            traced = trace_metrics(tracer, h, t_imports)
            OUT.mkdir(exist_ok=True)
            tracer.write(
                OUT / f"trace-{args.workload}.json",
                {"workload": args.workload, "seed": args.seed, "entry": T_ENTRY,
                 "imports_done": t_imports, "ready": h.t_ready, "end": t_end},
            )
        if args.mode == "isolated":
            import isolated

            layer.update(isolated.BY_WORKLOAD[args.workload](h))
    finally:
        h.cleanup()
    emit(
        {
            "event": "result",
            "parts": h.parts,
            "clock": h.clock.samples,
            "quota": QUOTA[args.workload],
            "unit_s": h.unit_s,
            "unit_scale": h.unit_scale,
            "rates": h.rates,
            "import_s": t_imports - T_ENTRY,
            "build_s": h.t_ready - t_imports,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "attempted": h.attempted,
            "failures": h.failures,
            "golden_any": h.golden_any,
            "golden_seed": h.golden_seed,
            "repeatable": h.repeatable,
            "layer": layer,
            "traced": traced,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
