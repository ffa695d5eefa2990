"""Campaign engine: expansion, cache sharing, resume, search.

The acceptance scenario (ISSUE 10): a 24-job campaign (2 machines x 2
networks x 2 fault plans x 3 workload shapes) runs concurrently,
resumes after a mid-campaign kill with zero duplicate work and
byte-equivalent deterministic values, shares the operator cache across
jobs, and ``search`` reproduces the paper's Ethernet-vs-Myrinet cost
ordering from recorded graphs without re-running anything.
"""

import json
import threading

import pytest

from repro.campaign import (
    CampaignEngine,
    JobSpec,
    OperatorCache,
    campaign_report,
    expand_matrix,
    smoke_matrix,
)
from repro.campaign.search import load_graphs, search_catalog
from repro.obs.runlog import RunLedger

# A reduced matrix for the fast tests: 8 jobs, both fabrics, both fault
# classes, two workload shapes (one cache-bearing).
SMALL = {
    "nprocs": 3,
    "machines": ["RoadRunner"],
    "networks": ["RoadRunner, eth-internode", "RoadRunner, myr-internode"],
    "fault_plans": ["none", "loss"],
    "workloads": [
        # ring needs >= 3 steps so the crash plan's at_step=2 can fire.
        {"workload": "ring", "rounds": 3, "ndoubles": 64},
        {"workload": "helmholtz", "nx": 1, "ny": 1, "order": 3, "lam": 1.0},
    ],
}


# ------------------------------------------------------------------ matrix


def test_expand_matrix_cross_product_and_order():
    jobs = expand_matrix(SMALL)
    assert len(jobs) == 1 * 2 * 2 * 2
    # Deterministic machine-major order; distinct fingerprints.
    assert jobs[0].network == jobs[1].network == "RoadRunner, eth-internode"
    assert len({j.fingerprint for j in jobs}) == len(jobs)


def test_smoke_matrix_is_the_acceptance_shape():
    jobs = expand_matrix(smoke_matrix())
    assert len(jobs) == 24  # 2 machines x 2 networks x 2 plans x 3 shapes
    assert len({j.machine for j in jobs}) == 2
    assert len({j.network for j in jobs}) == 2
    assert len({j.fault_plan for j in jobs}) == 2
    assert len({j.workload for j in jobs}) == 3


def test_jobspec_validates_catalog_names():
    with pytest.raises(ValueError, match="unknown machine"):
        JobSpec("NoSuch", "T3E", "none", "ring", 2)
    with pytest.raises(ValueError, match="unknown network"):
        JobSpec("T3E", "NoSuch", "none", "ring", 2)
    with pytest.raises(ValueError, match="unknown fault plan"):
        JobSpec("T3E", "T3E", "nope", "ring", 2)
    with pytest.raises(ValueError, match="missing required key"):
        expand_matrix({"machines": []})


def test_fingerprint_ignores_dict_order_but_not_params():
    a = JobSpec("T3E", "T3E", "none", "ring", 2, {"rounds": 2, "ndoubles": 8})
    b = JobSpec("T3E", "T3E", "none", "ring", 2, {"ndoubles": 8, "rounds": 2})
    c = JobSpec("T3E", "T3E", "none", "ring", 2, {"rounds": 3, "ndoubles": 8})
    assert a.fingerprint == b.fingerprint != c.fingerprint


# ------------------------------------------------------------------ cache


def test_cache_single_flight_under_contention():
    """K concurrent askers of one key: exactly 1 miss, K-1 hits."""
    cache = OperatorCache()
    built = []
    gate = threading.Event()

    def build():
        gate.wait(5.0)
        built.append(1)
        return "obj"

    results = []
    threads = [
        threading.Thread(
            target=lambda: results.append(cache.get_or_build("k", build))
        )
        for _ in range(6)
    ]
    for t in threads:
        t.start()
    gate.set()
    for t in threads:
        t.join()
    assert built == [1]
    assert results == ["obj"] * 6
    stats = cache.stats()
    assert stats["misses"] == 1 and stats["hits"] == 5
    assert stats["hit_rate"] == pytest.approx(5 / 6)


def test_cache_failed_build_poisons_key():
    cache = OperatorCache()

    def boom():
        raise RuntimeError("factorisation failed")

    with pytest.raises(RuntimeError, match="factorisation failed"):
        cache.get_or_build("bad", boom)
    # Later askers see the original failure, not a silent rebuild.
    with pytest.raises(RuntimeError, match="factorisation failed"):
        cache.get_or_build("bad", lambda: "never")


# ------------------------------------------------------------------ engine


def test_campaign_runs_all_jobs_and_shares_cache(tmp_path):
    eng = CampaignEngine(
        tmp_path / "lg.jsonl", SMALL, workers=4, artifacts_dir=tmp_path / "g"
    )
    out = eng.run()
    assert out["jobs"] == 8 and out["ran"] == 8 and out["skipped"] == 0
    assert out["failed"] == [] and not out["aborted"]
    # The helmholtz shape repeats (mesh, order, lam, machine) across the
    # 4 network/fault combinations: 1 miss + 3 hits.
    assert out["cache"]["misses"] == 1 and out["cache"]["hits"] == 3
    assert out["cache"]["hit_rate"] > 0
    # Per-job attribution aggregated across the campaign.
    assert out["aggregate"]["jobs"] == 8
    assert out["aggregate"]["total_makespan"] > 0
    # One graph artifact per job, loadable by search.
    assert len(list((tmp_path / "g").glob("graph-*.json"))) == 8


def test_failed_artifact_rewrite_leaves_the_old_bytes(tmp_path, monkeypatch):
    """A graph artifact is replaced whole or not at all: a rewrite that
    dies half-way leaves the complete old file, and no stray temp file."""
    matrix = dict(
        SMALL,
        networks=SMALL["networks"][:1],
        fault_plans=["none"],
        workloads=SMALL["workloads"][:1],
    )
    art = tmp_path / "g"
    CampaignEngine(tmp_path / "a.jsonl", matrix, artifacts_dir=art).run()
    (path,) = art.glob("graph-*.json")
    before = path.read_bytes()

    real = CampaignEngine._run_job

    def poisoned(self, job):
        payload = real(self, job)
        payload["graph"]["poison"] = object()  # not JSON: dumps dies
        return payload

    with monkeypatch.context() as mp:
        mp.setattr(CampaignEngine, "_run_job", poisoned)
        with pytest.raises(TypeError, match="not JSON serializable"):
            CampaignEngine(tmp_path / "b.jsonl", matrix, artifacts_dir=art).run()
    assert path.read_bytes() == before
    assert [p.name for p in art.iterdir()] == [path.name]

    def no_rename(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr("repro.campaign.engine.os.replace", no_rename)
    with pytest.raises(OSError, match="disk gone"):
        CampaignEngine(tmp_path / "c.jsonl", matrix, artifacts_dir=art).run()
    assert path.read_bytes() == before
    assert [p.name for p in art.iterdir()] == [path.name]


def test_directories_are_made_once_per_run_and_graphs_serialised_only_when_written(
    tmp_path, monkeypatch
):
    """Per job, nothing but the job: the artifacts directory is made once
    per run, the ledger's once per ledger object, and a graph with nowhere
    to go is never serialised."""
    from pathlib import Path

    from repro.obs.critpath import EventGraph

    made = []
    real_mkdir = Path.mkdir
    monkeypatch.setattr(
        Path, "mkdir", lambda self, *a, **kw: made.append(self.name) or real_mkdir(self, *a, **kw)
    )
    out = CampaignEngine(
        tmp_path / "runs" / "lg.jsonl", SMALL, workers=2, artifacts_dir=tmp_path / "g"
    ).run()
    assert out["ran"] == 8 and sorted(made) == ["g", "runs"]
    assert len(list((tmp_path / "g").glob("graph-*.json"))) == 8

    def refuse(self):
        raise AssertionError("serialised a graph that is not written")

    monkeypatch.setattr(EventGraph, "to_dict", refuse)
    out = CampaignEngine(tmp_path / "bare.jsonl", SMALL, workers=2).run()
    assert out["ran"] == 8 and not out["failed"]


def test_campaign_records_planted_rank_failure_as_failed(tmp_path):
    matrix = dict(SMALL, fault_plans=["none", "crash"])
    eng = CampaignEngine(tmp_path / "lg.jsonl", matrix, workers=2)
    out = eng.run()
    crashed = [j for j in eng.jobs if j.fault_plan == "crash"]
    assert sorted(out["failed"]) == sorted(j.job_id for j in crashed)
    ledger = RunLedger(tmp_path / "lg.jsonl")
    for job in crashed:
        rec = ledger.latest()[job.fingerprint]
        assert rec["status"] == "failed"
        assert "RankFailure" in rec["error"]
    # Failed fingerprints are not complete: a resume re-runs them.
    assert ledger.completed(bench="campaign") == {
        j.fingerprint for j in eng.jobs if j.fault_plan != "crash"
    }


def test_resume_skips_completed_and_reruns_failed(tmp_path):
    """Satellite: kill mid-queue, restart, zero duplicate work.

    The interrupted campaign is killed two ways at once — a planted
    RankFailure (the crash fault plan) and a host-level abort
    (``stop_after``).  The restarted campaign must skip completed
    fingerprints, re-run pending AND failed jobs, and leave ledger
    values byte-equivalent to an uninterrupted run.
    """
    matrix = dict(SMALL, fault_plans=["none", "crash"])

    # Reference: one uninterrupted campaign.
    ref_led = RunLedger(tmp_path / "ref.jsonl")
    CampaignEngine(ref_led, matrix, workers=4).run()
    ref_report = campaign_report(ref_led, matrix)

    # Interrupted: host-level kill after 3 records.
    led = RunLedger(tmp_path / "killed.jsonl")
    first = CampaignEngine(led, matrix, workers=2)
    out1 = first.run(stop_after=3)
    assert out1["aborted"] and out1["ran"] == 3
    done_before = led.completed(bench="campaign")

    # Restart: completed fingerprints skipped, the rest (pending and any
    # crash-failed among the first 3) re-run.
    second = CampaignEngine(led, matrix, workers=4)
    out2 = second.run()
    assert not out2["aborted"]
    assert out2["skipped"] == len(done_before)
    assert out2["ran"] == 8 - len(done_before)
    # Zero duplicate work: nothing recorded twice as ok.
    ok_counts: dict[str, int] = {}
    for rec in led.records(bench="campaign"):
        if rec["status"] == "ok":
            ok_counts[rec["fingerprint"]] = (
                ok_counts.get(rec["fingerprint"], 0) + 1
            )
    assert all(n == 1 for n in ok_counts.values())

    # Byte-equivalence of deterministic values, interrupted vs not.
    resumed_report = campaign_report(led, matrix)
    assert json.dumps(resumed_report["per_job"], sort_keys=True) == json.dumps(
        ref_report["per_job"], sort_keys=True
    )
    assert resumed_report["jobs"] == ref_report["jobs"]


def test_rerun_of_complete_campaign_is_a_noop(tmp_path):
    led = RunLedger(tmp_path / "lg.jsonl")
    CampaignEngine(led, SMALL, workers=4).run()
    nlines = len(led.records())
    out = CampaignEngine(led, SMALL, workers=4).run()
    assert out["skipped"] == 8 and out["ran"] == 0
    assert len(led.records()) == nlines  # nothing appended


def test_campaign_values_independent_of_worker_count(tmp_path):
    """Concurrency must not leak into deterministic values."""
    reports = []
    for workers in (1, 4):
        led = RunLedger(tmp_path / f"w{workers}.jsonl")
        CampaignEngine(led, SMALL, workers=workers).run()
        reports.append(campaign_report(led, SMALL)["per_job"])
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(
        reports[1], sort_keys=True
    )


# ------------------------------------------------------------------ search


@pytest.fixture(scope="module")
def recorded_campaign(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("campaign")
    led = RunLedger(tmp / "lg.jsonl")
    eng = CampaignEngine(led, SMALL, workers=4, artifacts_dir=tmp / "g")
    eng.run()
    return led, tmp / "g"


def test_search_reproduces_ethernet_vs_myrinet_cost_ordering(
    recorded_campaign,
):
    led, artifacts = recorded_campaign
    entries = load_graphs(led, artifacts)
    assert len(entries) == 8
    res = search_catalog(entries, target_makespan=float("inf"))
    by_name = {c["name"]: c for c in res["candidates"]}
    eth = by_name["roadrunner-ethernet"]
    myr = by_name["roadrunner-myrinet"]
    # The paper's Section 5 structure: Ethernet is cheaper, Myrinet is
    # faster — both recovered from recorded graphs, no re-running.
    assert eth["price_total"] < myr["price_total"]
    assert myr["predicted_makespan"] < eth["predicted_makespan"]
    # Loose target: the cheapest feasible config is Ethernet.
    loose = search_catalog(entries, eth["predicted_makespan"] * 1.01)
    assert loose["cheapest"]["name"] == "roadrunner-ethernet"
    # Tight target: Ethernet drops out, Myrinet is the cheapest left.
    tight = search_catalog(entries, eth["predicted_makespan"] * 0.5)
    assert tight["cheapest"]["name"] == "roadrunner-myrinet"
    assert not tight["candidates"][0]["meets_target"] or (
        tight["candidates"][0]["name"] != "roadrunner-ethernet"
    )


def test_search_infeasible_target(recorded_campaign):
    led, artifacts = recorded_campaign
    entries = load_graphs(led, artifacts)
    res = search_catalog(entries, target_makespan=0.0)
    assert res["cheapest"] is None and not res["feasible"]
    with pytest.raises(ValueError, match="no recorded graphs"):
        search_catalog([], 1.0)
