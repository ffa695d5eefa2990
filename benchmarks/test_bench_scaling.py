"""Tier-2 benchmark: event-scheduler scaling sweep.

Runs the ``repro.apps.scaling_bench`` smoke harness end to end.  The
harness enforces the acceptance shape itself — alltoall data correct at
every rank count, virtual Alltoall wall strictly increasing with P,
and the fault storm engaging the retransmit path and inflating the
wall — so this test asserts report integrity and the bit-level
determinism the committed
``BENCH_scaling_smoke.json`` baseline relies on.
"""

import json

from repro.apps import scaling_bench


def test_scaling_bench_smoke(tmp_path):
    out = tmp_path / "BENCH_scaling.json"
    results = scaling_bench.main(["--smoke", "--out", str(out)])
    on_disk = json.loads(out.read_text())
    assert on_disk["config"]["smoke"] is True
    assert on_disk["config"]["rank_counts"] == [16, 64, 256]

    for sweep in ("ring", "alltoall"):
        cases = on_disk[sweep]
        assert [c["nprocs"] for c in cases] == [16, 64, 256]
        for c in cases:
            assert c["bytes_sent"] > 0 and c["messages"] > 0
            assert c["scheduler"]["scheduler.switches"] > 0
            # The dispatch path is O(P): the cooperative schedule never
            # needs more than a few dozen switches per rank.
            assert c["scheduler"]["scheduler.switches"] < 50 * c["nprocs"]

    # Virtual Alltoall cost grows with rank count — the model sees the
    # scaling wall the paper could not measure past 64 processors.
    walls = [c["wall_virtual"] for c in on_disk["alltoall"]]
    assert all(b < a for b, a in zip(walls, walls[1:]))

    storm = on_disk["fault_storm"]
    assert storm["retransmits"] > 0
    clean = next(c for c in on_disk["alltoall"] if c["nprocs"] == storm["nprocs"])
    assert storm["wall_virtual"] > clean["wall_virtual"]

    # Determinism: a second run reproduces everything except host
    # timings bit-for-bit — the property that lets check_regression
    # hard-gate the virtual clocks and scheduler statistics.
    def strip_host(obj):
        if isinstance(obj, dict):
            return {
                k: strip_host(v)
                for k, v in obj.items()
                if not k.endswith("_s")
            }
        if isinstance(obj, list):
            return [strip_host(v) for v in obj]
        return obj

    again = scaling_bench.run_bench(smoke=True)
    assert strip_host(again) == strip_host(results)
