"""Smoke test of the benchmark at tiny sizes (a few seconds per workload).

    python3 -m pytest perfbench

The workloads run in this process, on the tiny inputs of
``workloads.py``, through the same functions the worker runs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
from tracer import self_times  # noqa: E402
from workloads import WORKLOADS, CoreWorkload, DistWorkload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_of(workload, seed, trace):
    spec = WORKLOADS[workload]
    inp = spec.inputs(seed, "tiny")
    if trace:
        run = worker.traced_run(spec, inp, seed, workload)
    else:
        run = worker.untraced_run(spec, inp, seed, 0.5)
    metrics, attempted, failed, _ = run
    # Through JSON, as the worker prints it.
    return json.loads(json.dumps(
        worker.result_object(trace, metrics, attempted, failed)))


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(workload, 1, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert math.isfinite(m["value"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_repeat_exactly_across_runs(workload):
    runs = [result_of(workload, 2, 1)["metrics"] for _ in range(2)]
    counts = [m["name"] for m in BENCHMARK["per_layer"]
              if m["unit"] == "count"]
    assert {c: runs[0][c]["value"] for c in counts} == \
        {c: runs[1][c]["value"] for c in counts}
    grads = [result_of(workload, 2, 0)["metrics"]["grads_per_edit"]["value"]
             for _ in range(2)]
    assert grads[0] == grads[1]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_output_fails_the_check(workload):
    spec = WORKLOADS[workload]
    inp = spec.inputs(3, "tiny")
    out = spec.run_pass(inp, 3).outputs
    assert spec.check(inp, out) == []
    if isinstance(spec, (CoreWorkload, DistWorkload)):
        out["published"][5] = out["published"][5] + 1.0
    else:
        # run_chain does not expose its published parameters; each
        # record's excess risk is computed from one.
        out["records"][5].excess_risk = float("nan")
    assert spec.check(inp, out)


@pytest.mark.parametrize("workload", ["ridge_secret_churn",
                                      "dist_ridge_churn"])
@pytest.mark.parametrize("scale", [0.0, 0.2, 3.0])
def test_missing_or_misscaled_noise_fails_the_check(workload, scale):
    spec = WORKLOADS[workload]
    inp = spec.inputs(3, "tiny")
    out = spec.run_pass(inp, 3).outputs
    sources = out["secret" if isinstance(spec, CoreWorkload) else "sources"]
    out["published"] = [s + scale * (p - s)
                        for p, s in zip(out["published"], sources)]
    assert any("noise" in f for f in spec.check(inp, out))


def test_retrain_gap_outside_its_bound_fails_the_check():
    spec = WORKLOADS["harness_gap_regstrong"]
    inp = spec.inputs(3, "tiny")
    out = spec.run_pass(inp, 3).outputs
    out["records"][5].mean_gap = 1.0
    assert any("mean gap" in f for f in spec.check(inp, out))


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"),
         "--workload", "ridge_secret_churn", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    spans = {
        "parent": np.array([-1, 0, 1, 0]),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 6.0]),
    }
    assert self_times(spans).tolist() == [6.0, 2.0, 1.0, 1.0]
