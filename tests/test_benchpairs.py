"""The pair plan and output layout of tools/benchpairs.py, with a stub runner and no timing."""

import importlib.util
import json
from pathlib import Path

import numpy as np

spec = importlib.util.spec_from_file_location(
    "benchpairs", Path(__file__).resolve().parents[1] / "tools" / "benchpairs.py")
benchpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpairs)


def test_pairs_alternate_and_summaries_follow_the_raw_runs(tmp_path):
    calls = []

    def stub(root, workload, seed, seconds):
        # the change's cpu_s is lower in every pair but the last; campaign_s is noisy
        calls.append((root, workload, seed, seconds))
        side = 1.0 if root.endswith("parent") else 0.5 + (seed % 4 == 3)
        values = {"setup_s": 0.4, "campaign_s": 1.0 + (seed % 3), "cpu_s": side * (1 + seed % 2),
                  "peak_rss_mb": 100.0}
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {k: {"value": v, "unit": "MB" if k == "peak_rss_mb" else "s"}
                            for k, v in values.items()}}

    out = tmp_path / "BENCH.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--pairs", "4", "--seconds", "2",
            "--seed0", "100", "--out", str(out)]
    assert benchpairs.main(argv, runner=stub) == 0
    # one run at a time; each pair shares its seed, and the first side alternates
    sides = ["parent" if r.endswith("parent") else "change" for r, *_ in calls]
    assert sides == ["parent", "change", "change", "parent"] * 6
    assert [s for _, _, s, _ in calls] == [s for s in range(100, 112) for _ in (0, 1)]
    assert [w for _, w, _, _ in calls[::8]] == ["spectra", "tauberian", "shape-geometry"]
    assert {s for *_, s in calls} == {2.0}

    doc = json.loads(out.read_text())
    assert set(doc) == {"command", "run", "protocol", "machine", "summary", "failed", "pairs"}
    assert doc["command"] == ("python3 tools/benchpairs.py PARENT_ROOT CHANGE_ROOT --pairs 4 --seconds 2"
                              f" --seed0 100 --out {out}")
    assert {"nproc", "sched_affinity", "python", "numpy", "scipy", "numpy_blas", "scipy_blas",
            "OPENBLAS_NUM_THREADS"} <= set(doc["machine"])
    assert [(p["seed"], p["first"]) for p in doc["pairs"]["tauberian"]] == [
        (104, "parent"), (105, "change"), (106, "parent"), (107, "change")]
    assert doc["failed"]["spectra"] == {"parent": [0, 0, 40], "change": [0, 0, 40]}

    cpu = doc["summary"]["spectra"]["cpu_s"]
    parent = [p["parent"]["metrics"]["cpu_s"]["value"] for p in doc["pairs"]["spectra"]]
    change = [p["change"]["metrics"]["cpu_s"]["value"] for p in doc["pairs"]["spectra"]]
    q1, q2, q3 = np.percentile(parent, [25, 50, 75])
    assert cpu["parent_quartiles"] == [q1, q3] and cpu["parent_median"] == q2
    assert cpu["change_median"] == np.median(change) and cpu["parent_iqr"] == q3 - q1
    assert cpu["change_better_pairs"] == 3 and cpu["pairs"] == 4
    assert cpu["change_over_parent"] == cpu["change_median"] / cpu["parent_median"]
    # quartiles interpolate linearly, as numpy's percentiles: campaign_s is 2, 3, 1, 2
    wall = doc["summary"]["spectra"]["campaign_s"]
    assert wall["parent_quartiles"] == [1.75, 2.25] and wall["change_better_pairs"] == 0
    # the parent's IQR is 1.0 s at a median of 1.5 s, above the 0.25 bound
    assert cpu["bound"] == 0.25 and cpu["unresolved"]
    assert doc["summary"]["spectra"]["peak_rss_mb"]["unresolved"] is False
    assert set(doc["summary"]["tauberian"]) == {"setup_s", "campaign_s", "cpu_s", "peak_rss_mb"}
