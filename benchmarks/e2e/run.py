"""End-to-end host-time benchmark of the simulator: one command.

The pipeline's form (one workload, one JSON object on the last line)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The developer's form (no ``--workload``: every workload, ``--repeats``
rounds of the same seed interleaved A B C ... A B C ..., a table of every
metric with quartiles, and ``out/results.json`` for ``compare.py``)::

    python3 benchmarks/e2e/run.py [--repeats R] [--seed N] [--trace 1] [--smoke]
                                  [--out PATH] [--ledger PATH] [--update-golden]

This process only drives: every measurement happens in a child process
(``child.py``), one at a time, with BLAS held to one thread.  A run
with ``--trace 0`` starts three children per workload, each doing its
own set-up and a third of ``--seconds`` of timed units
(``paper_artifacts``, whose unit *is* a cold process, starts cold
children until their units add up to ``--seconds``).  A run with ``--trace 1``
starts one traced child and one untraced child that goes on to time
single calls; it reports only per-layer metrics.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = HERE / "golden.json"
OUT = HERE / "out"

GOLDEN_SEEDS = (1999, 2024)  # default (SC99) and the alternate
CHILDREN = 3  # children (and so set-ups) per --trace 0 run
COLD_UNIT = {"paper_artifacts"}  # the unit is a whole cold process
CHILD_LIMIT_S = 150.0  # a child still running after this is killed
# Windows of the two children of a --trace 1 run, as shares of --seconds;
# the rest is left to the single-call timings.
TRACE_WINDOW_SHARE = 0.3


def load_spec() -> dict[str, Any]:
    with SPEC_PATH.open() as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# -- children ----------------------------------------------------------------


def spawn_child(
    workload: str, seed: int, window: float, mode: str, smoke: bool
) -> dict[str, Any]:
    """Run one child to completion; returns its result with
    ``setup_wall_s`` added: spawn to ready on this process's clock, so
    that it includes interpreter start, which the child cannot see.  A
    child that crashed, or was killed for running too long, returns
    ``{"crashed": why}``."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--window", repr(window), "--mode", mode,
    ]
    if smoke:
        cmd.append("--smoke")
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    setup_s, result = math.nan, None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            now = time.perf_counter()
            try:
                msg = json.loads(line)
            except ValueError:
                continue  # not ours: something printed past the capture
            if msg.get("event") == "ready":
                setup_s = now - t_spawn
            elif msg.get("event") == "result":
                result = msg
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        code = proc.wait()
    if code != 0 or result is None:
        return {"crashed": f"child exited with code {code} and no result"}
    if not result["unit_s"]:  # nothing to report a rate from
        return {"crashed": f"child timed no unit: {result['failures']}"}
    result["setup_wall_s"] = setup_s
    return result


# -- correctness -------------------------------------------------------------


#: Golden values compared with a relative tolerance instead of ``==``.
#: Floats that pass through dense factorizations may differ in the last
#: bits between OpenBLAS kernels (DYNAMIC_ARCH picks by CPU); PCG
#: iteration counts, and the flops that scale with them, may then flip
#: by a few iterations.  Everything not listed here is compared exactly.
RTOL: dict[str, dict[str, float]] = {
    "paper_artifacts": {"table_relerr_max": 1e-6},
    "serial_bluff": {"kinetic_energy": 1e-9, "divergence_norm": 1e-6},
    "nektar_f_weak": {"kinetic_energy": 1e-9},
    "ale_cg": {
        "cg_iters_pressure": 0.02, "cg_iters_viscous": 0.02, "cg_iters_mesh": 0.02,
        "flops_charged": 0.02, "kinetic_energy": 1e-7,
    },
    "simmpi_scale": {},
    "campaign_sweep": {"search_makespans": 1e-9},
}


def load_golden() -> dict[str, Any]:
    if not GOLDEN_PATH.exists():
        return {"workloads": {}}
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


def _differs(want: Any, got: Any, rtol: float) -> bool:
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return any(_differs(w, g, rtol) for w, g in zip(want, got))
    if rtol and all(isinstance(v, (int, float)) for v in (want, got)):
        return not math.isclose(want, got, rel_tol=rtol, abs_tol=0.0)
    return want != got


def check_children(
    workload: str, seed: int, children: list[dict[str, Any]], smoke: bool
) -> tuple[int, list[str]]:
    """Compare children with each other and with ``golden.json``.

    Returns (comparisons attempted, failure messages).  Smoke shapes
    have no golden values; they are still compared child against child.
    """
    attempted, failures = 0, []
    first = children[0]
    for other in children[1:]:
        for part in ("golden_any", "golden_seed", "repeatable"):
            for key, val in first[part].items():
                attempted += 1
                if other[part].get(key) != val:
                    failures.append(
                        f"{workload}: {key} differs between repeats: "
                        f"{val!r} != {other[part].get(key)!r}"
                    )
    if smoke:
        return attempted, failures
    golden = load_golden()["workloads"].get(workload, {})
    pinned = [("any", first["golden_any"]), (str(seed), first["golden_seed"])]
    for section, got in pinned:
        want = golden.get(section)
        if want is None:
            continue  # a seed nobody recorded: nothing to hold it to
        for key in sorted(set(want) | set(got)):
            attempted += 1
            rtol = RTOL[workload].get(key, 0.0)
            if key not in want or key not in got or _differs(want[key], got[key], rtol):
                failures.append(
                    f"{workload}: golden[{section}].{key}: expected "
                    f"{want.get(key)!r}, got {got.get(key)!r}"
                )
    return attempted, failures


# -- one run of one workload -------------------------------------------------

#: Quiet-host seconds of one call of each ``child.HostClock`` kernel on
#: the sandbox this benchmark was written on (their fastest times there).
#: They only fix the size of the calibrated second; on another host it
#: differs from a wall second by a constant factor.
CLOCK_QUIET_S = {"blas": 140e-6, "py": 148e-6, "mem": 71e-6}


def host_slowdown(children: list[dict[str, Any]]) -> float:
    """How many times slower than quiet the host ran while these
    children measured: the geometric mean, over the three reference
    kernels, of the kernel's mean time over its quiet time."""
    logs = [
        math.log(statistics.fmean(t for c in children for t in c["clock"][kernel]) / quiet)
        for kernel, quiet in CLOCK_QUIET_S.items()
    ]
    return math.exp(statistics.fmean(logs))


def block_seconds(children: list[dict[str, Any]], prefix: str = "") -> dict[str, float]:
    """Host seconds of one timed block: the sum, over its parts whose
    names start with ``prefix``, of the part's mean over every sample of
    every child.  ``raw`` is that sum; ``calibrated`` divides it by
    :func:`host_slowdown`, so it is total part time over total reference
    kernel time, and a stretch in which the shared host runs everything
    slower cancels out (README, "The calibrated second")."""
    pooled: dict[str, list[float]] = {}
    for child in children:
        for part, samples in child["parts"].items():
            if part.startswith(prefix):
                pooled.setdefault(part, []).extend(samples)
    raw = sum(statistics.fmean(v) for v in pooled.values()) if pooled else math.nan
    return {"raw": raw, "calibrated": raw / host_slowdown(children)}


ALL = (
    "paper_artifacts", "serial_bluff", "nektar_f_weak", "ale_cg", "simmpi_scale",
    "campaign_sweep",
)
SOLVERS = ("serial_bluff", "nektar_f_weak", "ale_cg")
DIRECT = ("serial_bluff", "nektar_f_weak")

#: Per-layer metrics (``fnmatch`` patterns over the names in
#: ``BENCHMARK.json``) that these workloads must report, and not as 0.
#: Any other name reads 0 on a workload that does not report it: the
#: workload has no business with that layer, which is the separation
#: check.  A 0 under a name listed here is a span or a call that went
#: missing, and fails the run.
EXPECT: list[tuple[tuple[str, ...], str]] = [
    (ALL, "wall_s driver.unit_self_ms import.setup_self_s trace.tracing_overhead_ratio"),
    (("paper_artifacts",),
     "apps.unit_self_ms apps.import_s apps.table* apps.figs1_8_ms apps.measure_reduced_s"
     " apps.paper_dofmap_stats_s table_relerr_max mesh.import_networkx_ms"
     " machines.price_stages_us machines.alltoall_time_us machines.unit_self_ms"),
    (("serial_bluff",), "apps.setup_self_s"),
    (("serial_bluff", "ale_cg"), "driver.setup_self_s"),
    (SOLVERS,
     "steps_per_s flops_charged ns.* spectral.setup_self_s spectral.expansion*"
     " mesh.setup_self_s linalg.*_self_* assembly.*_self_* solvers.*_self_*"
     " assembly.space_build_ms assembly.backward_us assembly.gradient_us"
     " assembly.load_vector_us assembly.calls.backward assembly.calls.gradient"
     " assembly.calls.load_vector linalg.flops_per_byte linalg.achieved_mflops"
     " linalg.flops_by_label.dgemv"),
    (DIRECT,
     "mesh.bluff_build_ms assembly.condensed_* assembly.calls.condensed_solve"
     " linalg.banded_* linalg.flops_by_label.dpbtrs linalg.flops_by_label.sc-chol"
     " solvers.helmholtz_direct_*"),
    (("nektar_f_weak",),
     "fourier.* machines.*_self_* parallel.*_self_* parallel.bytes_sent virtual_wall_s"
     " linalg.flops_by_label.dgemm linalg.flops_by_label.zgemv trace.straddle_share"),
    (("ale_cg",),
     "mesh.wing_build_ms mesh.unit_self_ms spectral.unit_self_ms assembly.operator_*"
     " assembly.calls.operator_apply linalg.pcg_* linalg.flops_by_label.dgemm"
     " linalg.flops_by_label.mfree-metric solvers.helmholtz_cg_*"),
    (("simmpi_scale",),
     "p2p_msgs_per_s alltoall_pairs_per_s virtual_wall_s parallel.p2p_us_per_msg.*"
     " parallel.alltoall_us_per_rank_call.* parallel.cluster_start_ms.* parallel.switches"
     " parallel.wakeups parallel.messages parallel.bytes_sent parallel.idle_virtual_s"
     " parallel.*_overhead_ratio parallel.*_self_* machines.*_self_*"
     " machines.alltoall_time_us obs.*_overhead_ratio"),
    (("campaign_sweep",),
     "jobs_per_s repricings_per_s virtual_wall_s campaign.* obs.*_self_* obs.analyze_*"
     " obs.swap_network_* obs.graph_* obs.ledger_* parallel.messages parallel.bytes_sent"
     " parallel.retransmits parallel.*_self_* solvers.helmholtz_direct_setup_ms"),
]


def expected_names(workload: str, spec: dict) -> set[str]:
    """The per-layer names of ``spec`` that ``workload`` must report."""
    names = [m["name"] for m in spec["per_layer"]]
    return {
        name
        for workloads, patterns in EXPECT if workload in workloads
        for pattern in patterns.split()
        for name in fnmatch.filter(names, pattern)
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool, spec: dict
) -> dict[str, Any] | None:
    """One run in the pipeline's sense; returns its result object, or
    ``None`` when too few children survived to report a number."""
    children: list[dict[str, Any]] = []

    def spawn(window: float, mode: str) -> bool:
        children.append(spawn_child(workload, seed, window, mode, smoke))
        return "crashed" not in children[-1]

    if trace:
        window = TRACE_WINDOW_SHARE * seconds
        if spawn(window, "isolated"):
            spawn(window, "traced")
    elif workload in COLD_UNIT:
        # One unit per cold child: children until their units add up to
        # --seconds, as the three windows of the other workloads do.
        while spawn(0.0, "plain") and (
            len(children) < CHILDREN or sum(c["unit_s"][0] for c in children) < seconds
        ):
            pass
    else:
        for _ in range(CHILDREN):
            spawn(seconds / CHILDREN, "plain")

    # A crashed child is one failed operation; the rest still report.
    failures = [f"{workload}: {c['crashed']}" for c in children if "crashed" in c]
    attempted = len(failures)
    children = [c for c in children if "crashed" not in c]
    if len(children) < (2 if trace else 1):
        for msg in failures:
            print(f"FAIL {msg}", file=sys.stderr)
        return None
    compared, differing = check_children(workload, seed, children, smoke)
    attempted += compared + sum(c["attempted"] for c in children)
    failures += differing
    for c in children:
        failures += [f"{workload}: {msg}" for msg in c["failures"]]

    plain = children[:1] if trace else children
    unit = {k: v * plain[0]["unit_scale"] for k, v in block_seconds(plain).items()}
    # Set-up is one stretch per child, calibrated by the slow-down that
    # child saw in the window right after it.
    setup_s = statistics.median(c["setup_wall_s"] / host_slowdown([c]) for c in plain)
    # The issue's names for each workload's own rates, and the wait for
    # its fixed-size repeat.
    rates = {
        name: work / block_seconds(plain, prefix)["calibrated"]
        for name, (work, prefix) in plain[0]["rates"].items()
    }
    rates["wall_s"] = setup_s + plain[0]["quota"] * unit["calibrated"]
    if trace:
        traced = children[1]
        layer = {**plain[0]["layer"], **traced["traced"], **rates}
        layer["trace.tracing_overhead_ratio"] = (
            block_seconds([traced])["calibrated"] * traced["unit_scale"] / unit["calibrated"]
        )
        if "flops_charged" in layer:
            layer["linalg.achieved_mflops"] = layer["flops_charged"] / unit["calibrated"] / 1e6
        if any(k.startswith("ns.stage_host_share") for k in layer):
            steps = sorted(plain[0]["unit_s"])
            layer["ns.step_ms_p90"] = steps[int(0.9 * (len(steps) - 1))] * 1e3
        names = {m["name"] for m in spec["per_layer"]}
        failures += [
            f"{workload}: reports {name}, which BENCHMARK.json does not name"
            for name in sorted(set(layer) - names)
        ]
        failures += [
            f"{workload}: {name} is missing or 0, and this workload must report it"
            for name in sorted(expected_names(workload, spec))
            if not layer.get(name)
        ]
        metrics = {
            m["name"]: {"value": float(layer.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        measured = {
            "setup_s": setup_s,
            "units_per_s": 1.0 / unit["calibrated"],
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
        }
        metrics = {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        # Not metrics: what the calibration did, and the named rates.
        "_info": {
            **rates, "unit_raw_s": unit["raw"], "host_slowdown": host_slowdown(plain),
            "setup_raw_s": statistics.median(c["setup_wall_s"] for c in plain),
        },
        "_exact": {**children[0]["golden_any"], **children[0]["golden_seed"]},
    }


# -- every workload, for people ----------------------------------------------


def host_description() -> dict[str, Any]:
    probe = (
        "import json, numpy, scipy;"
        "blas = numpy.show_config(mode='dicts').get('Build Dependencies', {}).get('blas', {});"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
        " 'blas': f\"{blas.get('name')} {blas.get('version')}\"}))"
    )
    libs = json.loads(
        subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, timeout=60,
        ).stdout
    )
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "blas_threads": 1,
        **libs,
    }


def run_all(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    trace = bool(args.trace)
    rounds: list[dict[str, dict]] = []
    for rep in range(args.repeats):
        rounds.append({})
        for name in names:  # A B C ... A B C ...: drift hits every workload
            t0 = time.perf_counter()
            # The same seed every round: the spread is the host's alone.
            res = run_workload(name, args.seed, args.seconds, trace, args.smoke, spec)
            if res is None:
                print(f"error: {name}: no child survived", file=sys.stderr)
                return 1
            rounds[-1][name] = res
            print(
                f"round {rep + 1}/{args.repeats} {name:<16} seed {args.seed} "
                f"{time.perf_counter() - t0:6.1f} s  failed {res['failed']}/{res['attempted']}",
                file=sys.stderr,
            )
    summary: dict[str, Any] = {}
    for name in names:
        runs = [r[name] for r in rounds]
        per_metric = {}
        columns = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
        columns.update({k: "info" for k in runs[0]["_info"] if k not in columns})
        for metric, unit in columns.items():
            values = [
                r["metrics"][metric]["value"] if unit != "info" else r["_info"][metric]
                for r in runs
            ]
            q1, med, q3 = quartiles(values)
            per_metric[metric] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3,
                "n": len(values), "values": values,
            }
        summary[name] = {
            "metrics": per_metric,
            "exact": runs[0]["_exact"],  # the deterministic values of this seed
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
    results = {
        "config": {
            "bench": "e2e", "seed": args.seed, "repeats": args.repeats,
            "seconds": args.seconds, "traced": trace, "smoke": args.smoke,
            "workloads": names,
        },
        "host": host_description(),
        "workloads": summary,
    }
    for name in names:
        print(f"\n{name}  (fail_share {summary[name]['failed']}/{summary[name]['attempted']})")
        for metric, m in summary[name]["metrics"].items():
            spread = (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0
            print(
                f"  {metric:<44} {m['median']:>14.6g} {m['unit']:<6} "
                f"[{m['q1']:.6g}, {m['q3']:.6g}] n={m['n']} spread {spread:.1%}"
            )
    out_path = Path(args.out) if args.out else OUT / "results.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nresults -> {out_path}")
    if args.ledger:
        append_to_ledger(args.ledger, results)
    return 1 if any(body["failed"] for body in summary.values()) else 0


def ledger_report(results: dict[str, Any]) -> dict[str, Any]:
    """The part of a result file the repo's run ledger takes.

    The ledger reads every key ending in ``_s`` as a host timing where
    more is worse (``perf_report`` trends it) and every other key as
    deterministic (any drift is a finding).  So it gets ``setup_s``,
    the unit as seconds (``unit_s``, never the rate: a rate under an
    ``_s`` name would trend with the wrong sign) and the exact values of
    this seed; memory, which is neither, stays out.
    """
    report = {}
    for name, body in results["workloads"].items():
        report[name] = {"exact": body["exact"]}
        metrics = body["metrics"]
        if "setup_s" in metrics:
            report[name]["setup_s"] = metrics["setup_s"]["median"]
            report[name]["unit_s"] = 1.0 / metrics["units_per_s"]["median"]
    return report


def append_to_ledger(path: str, results: dict[str, Any]) -> None:
    """One ``e2e`` record in the repo's run ledger, for ``perf_report``."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.runlog import append_bench_record

    rec = append_bench_record(
        path, "e2e", {"config": results["config"], **ledger_report(results)}
    )
    print(f"ledger: appended {rec['fingerprint']} -> {path}")


def update_golden(spec: dict) -> int:
    """Record the deterministic values of both golden seeds; prints
    every key whose value changes.  The only way golden.json is written."""
    old = load_golden()["workloads"]
    new: dict[str, Any] = {}
    for w in spec["workloads"]:
        name = w["name"]
        new[name] = {}
        for seed in GOLDEN_SEEDS:
            child = spawn_child(name, seed, 0.0, "plain", smoke=False)
            if "crashed" in child or child["failures"]:
                print(f"{name} seed {seed}: {child.get('crashed') or child['failures']}",
                      file=sys.stderr)
                return 1
            if new[name].setdefault("any", child["golden_any"]) != child["golden_any"]:
                print(f"{name}: a seed-independent value depends on the seed", file=sys.stderr)
                return 1
            new[name][str(seed)] = child["golden_seed"]
        for section, values in new[name].items():
            before = old.get(name, {}).get(section, {})
            for key in sorted(set(before) | set(values)):
                if before.get(key) != values.get(key):
                    print(f"{name}[{section}].{key}: {before.get(key)!r} -> {values.get(key)!r}")
    with GOLDEN_PATH.open("w") as fh:
        json.dump({"schema": 1, "seeds": list(GOLDEN_SEEDS), "workloads": new}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"golden -> {GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="run this one workload, pipeline form")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: the traced run, per-layer metrics only")
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the tests")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", default=None)
    parser.add_argument("--ledger", default=None)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.update_golden:
        return update_golden(spec)
    if args.workload is None:
        return run_all(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: {names}", file=sys.stderr)
        return 2
    res = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, spec
    )
    if res is None:
        print(f"error: {args.workload}: no child survived", file=sys.stderr)
        return 1
    print(json.dumps({k: v for k, v in res.items() if not k.startswith("_")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
