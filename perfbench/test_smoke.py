"""Seconds-long smoke runs of the benchmark harness on O+(6,2) and Sp(6,2).

    python3 -m pytest perfbench/test_smoke.py

The "smoke" workload takes a few tasks of every workload (build, scheme,
search, CLI session) on the two smallest spaces, so the harness, its oracles
and its tracer cannot rot unnoticed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_is_correct_and_reports_every_metric(trace):
    proc = _run(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in wanted}


def test_benchmark_json_lists_the_harness_workloads_and_layers():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import tracer
        import workloads
    finally:
        del sys.path[:2]
    listed = [w["name"] for w in BENCH["workloads"]]
    assert listed == [w for w in workloads.WORKLOADS if w != "smoke"]
    spec = tracer.per_layer_spec(workloads.BUILD_SPACES, workloads.SCHEME_SPACES)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == spec


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
