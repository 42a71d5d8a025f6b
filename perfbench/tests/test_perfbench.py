"""Tests of the benchmark harness itself (not part of the repo's tier-1).

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

worker.import_program()

import workloads  # noqa: E402
from pavingideals import cli, samplers  # noqa: E402
from pavingideals.realizations import Realization  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload the harness runs, also those BENCHMARK.json leaves ungated.
WORKLOADS = list(run.WORKLOADS)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_pass_prints_every_metric_with_its_unit(workload, trace):
    record, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    # The record carries the end-to-end metrics the workload is assigned.
    phases = [f"{kind}_s" for kind in run.PHASES[workload]]
    for name in ["setup_s", "pass_s", "pass_max_s", "peak_rss_mb", "ops_failed"] + phases:
        assert record["metrics"][name]["unit"], name
    assert record["metrics"]["ops_failed"]["value"] == 0
    assert record["environment"]["nproc"] >= 1
    assert "import pavingideals.cli" in record["baseline_rows"]


def test_traced_counts_repeat_across_runs():
    first, _ = smoke("bracket-lift", 1, seed=5)
    second, _ = smoke("bracket-lift", 1, seed=5)
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert first["trace"]["counts"]["linalg.bareiss_calls"] > 0
    assert first["digests"] == second["digests"]


def test_realization_off_the_variety_counts_as_failed(tmp_path):
    polys = tmp_path / "qs-circuits.txt"
    assert cli.main(["generate", "--matroid", "qs", "--which", "circuits", "--out", str(polys)]) == 0
    good = samplers.sample_family("qs", 4)
    vectors = dict(good.vectors)
    x, y, z = vectors[1]
    vectors[1] = (x + 1, y, z)  # point 1 leaves its lines
    nudged = tmp_path / "nudged.json"
    nudged.write_text(Realization(good.matroid, vectors, 4).to_json())
    genuine = tmp_path / "genuine.json"
    genuine.write_text(good.to_json())
    ops = [
        workloads.verify_op("genuine", polys, genuine, tmp_path / "v1.jsonl", ["--q", "canonical"]),
        workloads.verify_op("nudged", polys, nudged, tmp_path / "v2.jsonl", ["--q", "canonical"]),
    ]
    assert workloads.call_cli(["verify", "--polys", str(polys), "--realization", str(nudged), "--q", "canonical"]).rc == 3
    res = worker.measure(ops, 0, trace=False)
    passes = 1 + len(res["op_times"])
    assert res["attempted"] == 2 * passes
    assert res["failed"] == passes
    assert {label for label, _ in res["failures"]} == {"nudged"}


def test_witness_catches_a_verifier_that_always_returns_zero(tmp_path, monkeypatch):
    ops = workloads.build("bracket-lift", 2, tmp_path, smoke=True)
    _, failures, _ = worker.run_pass(ops, None)
    assert failures == []
    from pavingideals import verify

    monkeypatch.setattr(verify, "evaluate_poly", lambda *args, **kwargs: 0)
    _, failures, _ = worker.run_pass(ops, None)
    assert [label for label, _ in failures] == [op.label for op in ops if "--expect nonzero" in op.label]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
