"""Smoke tests of the benchmark at toy size, and schema checks.

Run from the repository root:

    python3 -m pytest -q bench/tests

Nothing here asserts on wall-clock values; the runs only have to finish,
pass their own output checks and print a well-formed result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def _check_result(result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)
        assert metric["unit"] == expected[name]


def test_benchmark_json_schema():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path
    assert 1 <= len(spec["command"]) <= 32
    assert all(len(arg) <= 200 and not arg.startswith("/") for arg in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = set()
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.match(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
        names.add(w["name"])
    assert names == set(WORKLOADS)
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in end_to_end.items()} == END_TO_END
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    assert end_to_end["setup_s"]["better"] == "lower"
    assert end_to_end["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    assert {k: (m["unit"], m["better"]) for k, m in per_layer.items()} == PER_LAYER
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert len(json.dumps(spec)) <= 64 * 1024


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    record, result = _run(workload, 0)
    _check_result(result, END_TO_END)
    assert record["machine"]["blas_threads"] in (1, None)
    assert record["machine"]["python_threads"] <= record["machine"]["nproc"]
    with open(os.path.join(ROOT, ".bench_work", f"result-{workload}-trace0.json")) as fh:
        saved = json.load(fh)
    assert saved["result"] == result and saved["machine"] == record["machine"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_per_layer(workload):
    _, result = _run(workload, 1)
    _check_result(result, {k: unit for k, (unit, _) in PER_LAYER.items()})
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    # layers predicted idle read zero calls
    idle = {"identify": ("control.", "qpsolver."),
            "closed-loop-3x3": ("autodiff.",),
            "liecheck-n4": ("control.", "qpsolver.")}[workload]
    for name, value in metrics.items():
        if name.startswith(idle) and name.endswith(".calls"):
            assert value == 0.0, name
    busy = {"identify": "simulate.plant_derivative.calls",
            "closed-loop-3x3": "qpsolver.solve.calls",
            "liecheck-n4": "autodiff.backward.calls"}[workload]
    assert metrics[busy] > 0


def test_refuses_to_run_without_sources():
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "identify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
