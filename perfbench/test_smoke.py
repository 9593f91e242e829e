"""Smoke test of the benchmark: every workload at tiny size, in both modes.

    python3 -m pytest perfbench/test_smoke.py

Run from the root of a checkout.  Not part of the repository's test suite
(pytest's testpaths is tests/), because it starts benchmark processes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
with open(os.path.join(ROOT, "perfbench", "layer_map.json")) as fh:
    LAYER_MAP = json.load(fh)["metrics"]
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_and_no_failures(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, record_line, result_line = proc.stdout.strip().splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert record["fail_frac"] == 0
    if trace:
        with open(os.path.join(ROOT, record["span_dump"])) as fh:
            assert json.load(fh)["spans"]
    else:
        assert result["metrics"]["pass_frac"]["value"] == 1


def test_layer_map_matches_benchmark():
    assert set(LAYER_MAP) == {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for entry in LAYER_MAP.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) | set(entry["not_on"]) <= set(WORKLOADS)
        assert not set(entry["on"]) & set(entry["not_on"])


def test_fails_without_the_library(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
