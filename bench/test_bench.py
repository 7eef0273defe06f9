"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import steinbn  # noqa: E402
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# a count that must be non-zero for each layer the workload is there to stress
LAYER_SPANS = {
    "train-table1": [
        "rng.uniform.calls", "nn.conv.fwd.calls", "nn.opt.steps", "bn.fwd_train.calls",
        "bn.correct.calls", "tensor.t4.count", "harness.train.runs", "harness.epochs",
        "harness.steps", "cli.calls",
    ],
    "risk-mc": [
        "rng.uniform.calls", "rng.mix.calls", "rng.normal.draws", "rng.gamma.draws",
        "noise.calls", "noise.retries", "risk.cells", "cli.calls",
    ],
    "eval-sweep": [
        "rng.normal.draws", "noise.calls", "nn.conv.fwd.calls", "bn.fwd_eval.calls",
        "tensor.t4.count", "cli.calls",
    ],
}
# layers a workload must not touch in its timed phase
LAYER_IDLE = {
    "train-table1": ["risk.cells", "rng.gamma.draws"],
    "risk-mc": ["nn.conv.fwd.calls", "bn.fwd_train.calls", "harness.train.runs"],
    "eval-sweep": ["nn.opt.steps", "bn.fwd_train.calls", "bn.correct.calls", "risk.cells"],
}


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module", params=sorted(LAYER_SPANS))
def runs(request):
    name = request.param
    out = {}
    for trace in ("0", "1"):
        proc = _run(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny"])
        assert proc.returncode == 0, proc.stderr
        out[trace] = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return name, out


def _check_metrics(metrics, declared):
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], float), m["name"]


def test_untraced_run_prints_every_end_to_end_metric(runs):
    name, out = runs
    env, detail, result = out["0"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    _check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    rate = {"train-table1": "train_steps_per_s", "risk-mc": "mc_draws_per_s",
            "eval-sweep": "eval_images_per_s"}[name]
    assert detail[rate]["unit"] == "1/s" and detail[rate]["value"] > 0
    assert detail["error_rate"] == {"value": 0.0, "unit": "ratio"}
    assert {"cpu_model", "nproc", "blas_threads", "python", "numpy", "scipy", "blas"} <= set(
        env["environment"])
    assert env["environment"]["blas_threads"] in (1, None)


def test_traced_run_reports_layers_and_keeps_outputs(runs):
    name, out = runs
    trace = out["1"][-2]["trace"]
    result = out["1"][-1]
    # run.py fails an item whose traced artifacts differ from its untraced ones
    assert result["correct"] is True and result["failed"] == 0
    assert out["1"][1]["errors"] == {}
    _check_metrics(result["metrics"], SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for key in LAYER_SPANS[name]:
        assert metrics[key] > 0, key
    for key in LAYER_IDLE[name]:
        assert metrics[key] == 0, key
    assert metrics["trace.overhead"] > 0
    assert abs(trace["self_time_sum_s"] + trace["remainder_s"]
               - sum(trace["round_wall_s"]) / trace["rounds"]) < 1e-6


def test_tracer_wraps_every_import_site_and_restores_them():
    from steinbn import batchnorm, cli, harness, nn, noise, risk

    originals = {
        "sample_noise_flat": noise.sample_noise_flat,
        "bn_forward": batchnorm.bn_forward,
        "tensor4_init": steinbn.Tensor4.__init__,
    }
    t = tracer.Tracer()
    t.install()
    try:
        for mod in (noise, risk, harness, cli):
            assert mod.sample_noise_flat is not originals["sample_noise_flat"]
        for mod in (batchnorm, nn, steinbn):
            assert mod.bn_forward is not originals["bn_forward"]
        assert steinbn.Tensor4.__init__ is not originals["tensor4_init"]
        assert sorted(t.sites["steinbn.noise.sample_noise_flat"]) == [
            "cli.sample_noise_flat", "harness.sample_noise_flat",
            "noise.sample_noise_flat", "risk.sample_noise_flat"]
    finally:
        t.uninstall()
    for mod in (noise, risk, harness, cli):
        assert mod.sample_noise_flat is originals["sample_noise_flat"]
    assert nn.bn_forward is originals["bn_forward"]
    assert steinbn.Tensor4.__init__ is originals["tensor4_init"]


def test_tracing_leaves_cli_output_bit_identical(tmp_path):
    from steinbn.cli import run_cli

    argv = ["risk", "gaussian", "--p", "8", "--theta-norm", "1", "--eps", "0.3",
            "--trials", "2000", "--seed", "5", "--out"]
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    assert run_cli(argv + [str(plain)]) == 0
    t = tracer.Tracer()
    t.install()
    try:
        assert steinbn.cli.run_cli(argv + [str(traced)]) == 0
    finally:
        t.uninstall()
    assert plain.read_bytes() == traced.read_bytes()
    assert t.counts["noise.retries"] > 0 and t.calls["rng.mix"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "risk-mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
