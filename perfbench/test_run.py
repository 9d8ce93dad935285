"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/test_run.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.use_checkout_source()

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "sweep": lambda seed: workloads.Sweep(seed, N=40, k=3, n_list=(15, 20)),
    "audio": lambda seed: workloads.Audio(seed, block_len=128, blocks=2),
    "validate": lambda seed: workloads.Validate(seed),
}


def _expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name):
    workload = TINY[name](seed=1)
    result, quality = harness.benchmark(workload, 4 * workload.unit_seconds, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _expected("end_to_end")
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] != 0.0
    if workload.hit_metric is not None:
        assert 0.0 <= quality[workload.hit_metric] <= 1.0


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_reports_layers_that_add_up(name):
    workload = TINY[name](seed=2)
    result, quality = harness.benchmark(workload, 4 * workload.unit_seconds, trace=True)
    assert result["correct"], "tracing changed the workload's outputs"
    metrics = result["metrics"]
    assert {k: m["unit"] for k, m in metrics.items()} == _expected("per_layer")
    # every span is reported; the self times, which the tracer takes, fit
    # in the wall time, which the harness takes around each unit
    assert {layer for _, _, layer in tracing._SPANS} == set(harness.SELF_LAYERS.values())
    wall = metrics["trace.wall_s"]["value"]
    self_times = [metrics[k]["value"] for k in harness.SELF_LAYERS]
    assert min(self_times) >= 0.0 and 0.0 < sum(self_times) <= wall
    unattributed = metrics["trace.unattributed_frac"]["value"]
    assert sum(self_times) + unattributed * wall == pytest.approx(wall, rel=1e-9)
    assert unattributed < 0.05
    assert metrics["solver.iters"]["value"] >= metrics["kernels.backtrack_calls"]["value"] > 0
    assert metrics["solver.evals_per_iter"]["value"] >= 2.0


def test_accuracy_below_the_floor_is_not_correct():
    workload = TINY["validate"](seed=1)
    workload.hit_floor = 1.01
    result, _ = harness.benchmark(workload, workload.unit_seconds, trace=False)
    assert result["failed"] == 0 and not result["correct"]


def test_audio_clip_that_raises_counts_as_failed(monkeypatch):
    def diverge(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(workloads.audio, "recover_clip", diverge)
    out = TINY["audio"](seed=1).run_unit(0)
    assert out.attempted == out.failed > 0


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
