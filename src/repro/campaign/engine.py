"""The campaign engine: bounded worker pool + ledger-backed resume.

One campaign = one expanded job matrix run to completion against one
run ledger.  The engine is deliberately stateless between runs — the
ledger *is* the state:

* **resume contract** — before running, the engine asks the ledger for
  the set of fingerprints whose latest record is ``ok`` and skips those
  jobs; failed and never-recorded jobs run.  Killing a campaign at any
  point and restarting it therefore does no duplicate work and ends
  with the same deterministic values as an uninterrupted run;
* **concurrency contract** — each job is its own
  :class:`~repro.parallel.simmpi.VirtualCluster` (no shared virtual
  state), job values are derived from cluster state only (never the
  process-global metrics registry, which concurrent jobs would
  cross-talk through), and ledger appends are single atomic writes;
* **attribution** — every job records its event graph; the engine
  aggregates per-job ``analyze()`` summaries across the campaign
  (:func:`~repro.obs.critpath.aggregate_analyses`) and can persist the
  graphs for ``campaign search`` — each written to a temporary file in
  the artifacts directory and renamed into place, so neither a failed
  write nor a reader in another process ever meets a torn artifact.

Host wall-clock (queue time, per-job elapsed) rides in ``timings``
where the drift detector merely warns; everything gated is virtual.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any

from ..machines.catalog import MACHINES, NETWORKS
from ..obs.critpath import CritPathRecorder, aggregate_analyses, analyze
from ..obs.runlog import RunLedger
from ..parallel.simmpi import VirtualCluster
from .cache import OperatorCache
from .matrix import FAULT_PLANS, JobSpec, expand_matrix
from .workloads import WORKLOADS

__all__ = ["CampaignEngine", "campaign_report"]

BENCH = "campaign"


class CampaignEngine:
    """Run an expanded job matrix as a resumable service."""

    def __init__(
        self,
        ledger: RunLedger | str | Path,
        matrix: dict[str, Any],
        workers: int = 4,
        bench: str = BENCH,
        artifacts_dir: str | Path | None = None,
    ):
        self.ledger = ledger if isinstance(ledger, RunLedger) else RunLedger(ledger)
        self.matrix = matrix
        self.jobs = expand_matrix(matrix)
        self.workers = max(1, int(workers))
        self.bench = bench
        self.artifacts_dir = Path(artifacts_dir) if artifacts_dir else None
        self.cache = OperatorCache()

    # -- single job ----------------------------------------------------------

    def _run_job(self, job: JobSpec) -> dict[str, Any]:
        """One virtual-cluster run; returns the job's ledger payload."""
        machine = MACHINES[job.machine]
        network = NETWORKS[job.network]
        plan = FAULT_PLANS[job.fault_plan]
        rank_fn = WORKLOADS[job.workload](job.params, job.machine, self.cache)
        recorder = CritPathRecorder()
        cluster = VirtualCluster(
            job.nprocs,
            network=network,
            cpu=machine.cpu,
            faults=plan,
            critpath=recorder,
        )
        t0 = time.perf_counter()
        results = cluster.run(rank_fn)
        elapsed = time.perf_counter() - t0
        summary = analyze(recorder.graph)
        return {
            "values": {
                "check": results[0],
                "wall_virtual": cluster.max_wall,
                "cpu_virtual": cluster.max_cpu,
                "bytes_sent": sum(st.sent_bytes for st in cluster.ranks),
                "messages": sum(st.messages for st in cluster.ranks),
            },
            "timings": {"elapsed_s": elapsed},
            "critpath": summary,
            "graph": recorder.graph.to_dict(),
        }

    def _graph_path(self, job: JobSpec) -> Path:
        assert self.artifacts_dir is not None
        return self.artifacts_dir / f"graph-{job.fingerprint}.json"

    # -- the campaign --------------------------------------------------------

    def run(self, stop_after: int | None = None) -> dict[str, Any]:
        """Run every job not yet completed in the ledger.

        ``stop_after`` aborts the campaign after that many job records
        have been appended (the resume test's host-level kill): workers
        that have not started yet stop picking up jobs, so the ledger
        is left mid-queue exactly as a killed process would leave it.
        """
        completed = self.ledger.completed(bench=self.bench)
        skipped = [j for j in self.jobs if j.fingerprint in completed]
        queue = [j for j in self.jobs if j.fingerprint not in completed]
        recorded = 0
        lock = threading.Lock()
        abort = threading.Event()
        outcomes: dict[str, str] = {}
        analyses: dict[str, dict[str, Any]] = {}

        def worker(job: JobSpec) -> None:
            nonlocal recorded
            if abort.is_set():
                return
            try:
                payload = self._run_job(job)
            except Exception as exc:
                with lock:
                    if abort.is_set():
                        return
                    self.ledger.append(
                        self.bench,
                        job.config(),
                        values={},
                        timings={},
                        status="failed",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    outcomes[job.job_id] = "failed"
                    recorded += 1
                    if stop_after is not None and recorded >= stop_after:
                        abort.set()
                return
            if self.artifacts_dir is not None:
                self.artifacts_dir.mkdir(parents=True, exist_ok=True)
                _write_atomic(
                    self._graph_path(job), json.dumps(payload["graph"], sort_keys=True)
                )
            with lock:
                if abort.is_set():
                    return
                self.ledger.append(
                    self.bench,
                    job.config(),
                    values=payload["values"],
                    timings=payload["timings"],
                    critpath=payload["critpath"],
                )
                outcomes[job.job_id] = "ok"
                analyses[job.job_id] = payload["critpath"]
                recorded += 1
                if stop_after is not None and recorded >= stop_after:
                    abort.set()

        t0 = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            list(pool.map(worker, queue))
        failed = sorted(k for k, v in outcomes.items() if v == "failed")
        return {
            "config": {"matrix": self.matrix, "bench": self.bench},
            "jobs": len(self.jobs),
            "skipped": len(skipped),
            "ran": len(outcomes),
            "failed": failed,
            "aborted": abort.is_set(),
            "cache": self.cache.stats(),
            "aggregate": aggregate_analyses(analyses),
            "campaign_elapsed_s": time.perf_counter() - t0,
        }


def _write_atomic(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one rename: the old bytes stand
    until the new ones are complete.  The temporary name is private to
    this process and thread."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def campaign_report(
    ledger: RunLedger, matrix: dict[str, Any], bench: str = BENCH
) -> dict[str, Any]:
    """Resume-invariant campaign report from the ledger's latest records.

    Built purely from each job's **latest** ledger record, so a campaign
    that was killed and resumed three times reports byte-identically to
    one uninterrupted run — this is the report ``tests/goldens.json``
    pins exactly (section ``smoke.campaign``).  Host timings and the
    cache hit pattern are intentionally absent: they are run-shaped,
    not configuration-shaped.
    """
    jobs = expand_matrix(matrix)
    latest = ledger.latest(bench)
    per_job: dict[str, Any] = {}
    analyses: dict[str, dict[str, Any]] = {}
    missing: list[str] = []
    failed: list[str] = []
    for job in jobs:
        rec = latest.get(job.fingerprint)
        if rec is None:
            missing.append(job.job_id)
            continue
        if rec.get("status", "ok") != "ok":
            failed.append(job.job_id)
            continue
        per_job[job.job_id] = dict(rec.get("values", {}))
        if rec.get("critpath"):
            analyses[job.job_id] = rec["critpath"]
    return {
        "config": {"matrix": matrix, "bench": bench},
        "jobs": {
            "total": len(jobs),
            "completed": len(per_job),
            "failed": sorted(failed),
            "missing": sorted(missing),
        },
        "per_job": per_job,
        "aggregate": aggregate_analyses(analyses),
    }
