"""Smoke test of the benchmark harness (tier-1, via the ``benchmarks``
testpath): ``run.py --smoke`` runs the 64-rank version of every
workload, one timed repetition plus the traced pass.

Only deterministic facts are asserted — schema, every named metric
present, digests stable across repetitions, nothing failed, the layer
buckets partition the profile.  There is deliberately NO wall-clock
assertion: a host-speed gate in tier-1 is how tier-1 went red before.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]


def run_py(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
    )


def test_manifest_matches_the_code():
    """BENCHMARK.json is what ``run.py --manifest`` renders."""
    proc = run_py("--manifest")
    assert proc.returncode == 0, proc.stderr
    committed = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert json.loads(proc.stdout) == committed


def test_smoke_run(tmp_path):
    proc = run_py("--smoke", "--traced", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    manifest = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    result = json.loads((tmp_path / "result.json").read_text())

    assert set(result["provenance"]) >= {"commit", "python", "nproc"}
    assert list(result["workloads"]) == [w["name"] for w in manifest["workloads"]]
    layer_names = [m["name"] for m in manifest["per_layer"]]
    for name, record in result["workloads"].items():
        assert record["failed"] == 0 and record["failed_share"] == 0, name
        assert "loadavg_before" in record and "noisy" in record
        for metric in manifest["end_to_end"]:
            got = record["end_to_end"][metric["name"]]
            assert got["unit"] == metric["unit"] and got["value"] > 0, (name, metric)
        assert list(record["per_layer"]) == layer_names, name
        assert record["end_to_end"]["wall_s"]["samples"]  # rep walls in full

        # The plain and the profiled repetition simulate the same thing.
        digests = {rep["digest"] for rep in record["reps"] + record["traced_reps"]}
        assert len(digests) == 1, name

        # The buckets partition the profile: they sum to its total.
        per_layer = record["per_layer"]
        bucket_sum = sum(
            m["value"] for key, m in per_layer.items() if key.endswith(".self_s")
        )
        total = record["profile_total_s"]
        assert abs(bucket_sum - total) <= 1e-6 * max(1.0, total), name
        assert per_layer["sim.engine.events"]["value"] > 0, name

        trace = json.loads((tmp_path / f"trace.{name}.json").read_text())
        spans = {ev["name"] for ev in trace["traceEvents"]}
        assert {"setup.import", "setup.inputs", "setup.reference", "rep.0"} <= spans

    sharded = result["workloads"]["shard2_ring_2048"]["per_layer"]
    assert sharded["sim.shard.windows"]["value"] > 0
    assert sharded["sim.shard.self_s"]["value"] >= 0
    tables = json.loads((tmp_path / "trace.paper_tables_128.json").read_text())
    inner = {ev["name"] for ev in tables["traceEvents"]}
    assert "make_logging_run(milc)" in inner and "run_emulated_recovery" in inner
