"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Runs are shortened (fractions of a second, one timed set-up pass, a
single op cycle traced) so the whole file takes well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = list(workloads.WORKLOADS)


def test_declared_workloads_are_the_ones_in_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS


@pytest.fixture
def short(monkeypatch):
    monkeypatch.setattr(run, "SET_UP_PASSES", 1)
    monkeypatch.setattr(
        run, "TRACE_OPS", {name: cls.cycle for name, cls in workloads.WORKLOADS.items()}
    )


def bench(tmp_path, workload, trace=0, seed=1, seconds=0.3):
    args = run.parse_args(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)]
    )
    return run.run(args, trace_dir=tmp_path)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_with_its_unit(tmp_path, short, workload, trace):
    line, report = bench(tmp_path, workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in line["metrics"].items()
    }
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert report["failures"] == []
    if not trace:
        assert report["error_rate"] == 0 and report["latency_p50_ms"] > 0
        # the set-up pass ran in its own process and its ops were counted
        assert len(report["setup_passes_s"]) == 1
        assert line["attempted"] >= 2 * workloads.WORKLOADS[workload].warmup + 1
    env = report["environment"]
    for key in ("blas_threads", "nproc", "numpy", "blas", "python", "seed", "ops"):
        assert key in env
    assert env["blas_threads"] in (1, None)
    json.dumps(line)  # the result line is plain JSON


def test_perturbed_f_of_a_counts_as_failure(tmp_path, short, monkeypatch):
    original = run.workloads.cli.matrix_function

    def perturbed(*args, **kwargs):
        return original(*args, **kwargs) * (1 + 1e-6)

    monkeypatch.setattr(run.workloads.cli, "matrix_function", perturbed)
    line, report = bench(tmp_path, "dense", seconds=0.5)
    assert not line["correct"] and line["failed"] > 0
    assert report["error_rate"] > 0
    assert any("relative error" in f for f in report["failures"])


def test_wrong_condition_estimate_counts_as_failure(tmp_path, short, monkeypatch):
    monkeypatch.setattr(run.workloads.cli, "condition_estimate", lambda a: 1.0)
    line, report = bench(tmp_path, "dense", seconds=0.8)
    assert line["failed"] > 0 and report["error_rate"] > 0
    assert any("condition estimate" in f for f in report["failures"])


def test_flipped_verdict_counts_as_failure(tmp_path, short, monkeypatch):
    monkeypatch.setattr(run.workloads.cli, "power_threshold", lambda *a, **k: None)
    line, report = bench(tmp_path, "evpos", seconds=0.5)
    assert line["failed"] > 0 and report["error_rate"] > 0


def calls(line):
    return {k: v["value"] for k, v in line["metrics"].items() if k.endswith("calls_per_op")}


def test_same_seed_repeats_counts(tmp_path, short):
    first, _ = bench(tmp_path, "dense", trace=1, seed=5, seconds=0.1)
    second, _ = bench(tmp_path, "dense", trace=1, seed=5, seconds=0.1)
    assert calls(first) == calls(second)


def test_every_declared_function_is_called_on_some_workload(tmp_path, short):
    called = set()
    for workload in WORKLOADS:
        line, report = bench(tmp_path, workload, trace=1, seconds=0.1)
        assert report["absent"] == []
        called |= {k for k, v in calls(line).items() if v > 0}
    assert called == {m["name"] for m in SPEC["per_layer"] if m["name"].endswith("calls_per_op")}


def test_evpos_runs_three_eigendecompositions(tmp_path, short):
    line, _ = bench(tmp_path, "evpos", trace=1)
    assert line["metrics"]["core.eigen_decompose.calls_per_op"]["value"] == 3


def test_tracer_restores_the_library(tmp_path, short):
    import numpy as np

    from matfrob import cli, core, perron

    before = (np.linalg.eig, core.eigen_decompose, perron.eigen_decompose, cli.cmd_apply)
    bench(tmp_path, "dense", trace=1)
    assert (np.linalg.eig, core.eigen_decompose, perron.eigen_decompose, cli.cmd_apply) == before


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evpos", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
