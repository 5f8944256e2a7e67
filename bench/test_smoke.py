"""Smoke test of the benchmark at toy size.

    python3 -m pytest -q bench/test_smoke.py

Runs every workload untraced and traced in fresh processes, checks the
output contract against BENCHMARK.json, the per-layer readings that tell
the workloads apart, and that the benchmark refuses to run without the
package sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "0", "--scale", "toy"))
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == set(spec)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == spec[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", "1", "--scale", "toy"))
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(result["metrics"]) == set(spec)
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["composition.compose_calls"] > 0
    assert value["embeddings.nn_calls"] > 0
    assert value["evaluation.represent_calls"] > 0
    for name, unit in spec.items():
        if unit == "s":
            # a time that reads 0 on every run cannot be told from a stuck clock
            assert value[name] > 0, name


def test_same_seed_gives_same_digest():
    args = ("--workload", "joint-doc-bi", "--seed", "5", "--seconds", "1", "--scale", "toy")
    for _ in range(2):
        _result(_bench(*args))


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_absent_names_are_reported_not_raised():
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans

    tracer = spans.Tracer([("gone", [("jointvec.training", "no_such_function")], None)])
    with tracer:
        pass
    assert tracer.absent == ["jointvec.training.no_such_function"]
    assert tracer.summary()["gone"]["calls"] == 0
