"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_MODEL = (("pbf_layers", 3), ("tbf_layers", 3), ("hidden", 4), ("message_dim", 4))
TINY = {
    "train": workloads.Spec("tiny-train", "train", 2, 1, 2, batch=4, quality_steps=2,
                            heldout=3, model=TINY_MODEL),
    "infer": workloads.Spec("tiny-infer", "infer", 2, 2, 2, model=TINY_MODEL),
    "eval": workloads.Spec("tiny-eval", "eval", 2, 1, 2, chunk=2, model=TINY_MODEL),
}
SECONDS = 0.3


@pytest.fixture(scope="module")
def pb():
    return workloads.load_program()


def test_benchmark_json_lists_the_metrics_and_workloads():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.GATED)
    assert set(workloads.GATED) < set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] \
        == [(name, unit) for name, unit, _, _ in metrics.PER_LAYER]
    assert ("setup_s", "s", "lower") == tuple(doc["end_to_end"][0].values())[:3]
    assert max(m["bound"] for m in doc["end_to_end"]) == \
        next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s") <= 0.25


@pytest.mark.parametrize("kind", sorted(TINY))
def test_every_end_to_end_metric_is_emitted_with_its_unit(kind):
    result = run.measure(TINY[kind], 5, SECONDS, trace=False)
    figures = run.figures(TINY[kind], result, statistics.median(result["setup_s"]))
    out = run.end_to_end(figures)
    assert [(k, v["unit"]) for k, v in out.items()] == \
        [(name, unit) for name, unit, _, _ in metrics.END_TO_END]
    for name, entry in out.items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    # The figures this kind of workload reports under its own names, with units.
    named = {"train": {"step_ms_p50": "ms", "step_ms_p75": "ms", "step_ms_p90": "ms",
                       "train_mean_se": "bit/s/Hz"},
             "infer": {"latency_ms_p50": "ms", "latency_ms_p75": "ms", "latency_ms_p90": "ms"},
             "eval": {"eval_samples_per_s": "1/s", "baseline_samples_per_s": "1/s"}}[kind]
    named.update(setup_s="s", peak_rss_mb="MB", error_rate="ratio")
    for name, unit in named.items():
        value, got_unit = figures[name]
        assert got_unit == unit and math.isfinite(value), name
    assert figures["error_rate"][0] == 0


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_emits_every_layer_metric_and_self_times_add_up(kind, pb):
    result = run.measure(TINY[kind], 6, SECONDS, trace=True)
    layer = result["per_layer"]
    assert [(k, u) for k, (_, u) in layer.items()] == \
        [(name, unit) for name, unit, _, _ in metrics.PER_LAYER]
    assert all(math.isfinite(v) and v >= 0 for v, _ in layer.values())
    # Self times of every operation's span tree sum to the operation's span
    # within float rounding (1 us), and none is negative.
    assert result["closure"]["worst_error_s"] <= 1e-6
    assert result["closure"]["min_self_s"] >= -1e-9
    assert layer["trace.overhead_ratio"][0] > 0
    assert layer["pipeline.forward_ms"][0] > 0
    assert layer["precoder_gnn.input_scale_ms"][0] >= 0
    assert result["failed"] == 0, result["failures"]
    # Tracing leaves no wrapper behind.
    assert not hasattr(pb.pipeline.forward_on_tape, "__wrapped__")
    assert not hasattr(pb.autodiff.matmul, "__wrapped__")


def test_layer_metrics_cover_the_workload_they_name():
    train = run.measure(TINY["train"], 7, SECONDS, trace=True)["per_layer"]
    assert train["autodiff.backward_ms"][0] > 0 and train["autodiff.bwd_ms.matmul"][0] > 0
    # The check of every step runs the reference SE of one draw and, at
    # M = 1, its baseline twice (baseline_se and the recomputation).
    assert train["baselines.closest_user_calls"][0] == 2
    assert train["physics.compute_se_calls"][0] >= 1
    assert train["training.reference_se_ms"][0] > 0
    infer = run.measure(TINY["infer"], 7, SECONDS, trace=True)["per_layer"]
    assert infer["physics.compute_channel_calls"][0] == 1
    assert infer["baselines.closest_user_calls"][0] == 0
    sweep = run.measure(TINY["eval"], 7, SECONDS, trace=True)["per_layer"]
    assert sweep["baselines.closest_user_calls"][0] == TINY["eval"].chunk + 1
    assert sweep["physics.compute_se_calls"][0] >= 2 * TINY["eval"].chunk
    assert sweep["autodiff.backward_ms"][0] == 0


def test_span_self_times_sum_to_the_root():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.002), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    recorded, _ = tracer.take()
    own = spans.self_times(recorded)
    root = next(s for s in recorded if s[0] == "outer")
    assert sum(own) == pytest.approx(root[2] - root[1], abs=1e-9)
    table = spans.summarize(recorded)
    assert table["inner"][0] == 3 and table["inner"][1] >= 0.006
    assert table["outer"][2] == pytest.approx(table["outer"][1] - table["inner"][1])


def test_a_wrong_gradient_is_counted_as_a_failure(pb, monkeypatch):
    original = pb.autodiff.backward_into

    def doubled(store, loss):
        original(store, loss)
        store.scale_grads(2.0)

    monkeypatch.setattr(pb.autodiff, "backward_into", doubled)
    result = run.measure(TINY["train"], 8, SECONDS, trace=False)
    assert result["failures"].get("gradient differs from finite differences") == 1


@pytest.mark.parametrize("name", ["tiny", "train-k8"])
@pytest.mark.parametrize("factor", [2.0, 0.0])
def test_the_gradient_check_fails_a_wrong_gradient(pb, monkeypatch, name, factor):
    # Seed 3 at train-k8 has an all-zero gradient in every parameter after
    # the first eight steps; the check still finds draws to test at.
    spec = TINY["train"] if name == "tiny" else workloads.WORKLOADS[name]
    train = workloads.TrainRun(spec, 3, pb)
    train.setup()
    assert train.gradient_agrees() is True
    original = pb.autodiff.backward_into

    def wrong(store, loss):
        original(store, loss)
        store.scale_grads(factor)

    monkeypatch.setattr(pb.autodiff, "backward_into", wrong)
    assert not train.gradient_agrees()


def test_a_wrong_se_is_counted_as_a_failure(pb, monkeypatch):
    original = pb.training.compute_se
    monkeypatch.setattr(pb.training, "compute_se",
                        lambda *a, **k: original(*a, **k) * (1 + 1e-6))
    result = run.measure(TINY["infer"], 8, SECONDS, trace=False)
    assert result["failed"] == result["attempted"] > 0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-c5",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_percentile_interpolates():
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert run.percentile(list(range(11)), 90) == pytest.approx(9.0)
    assert run.percentile([7.0], 90) == 7.0


def test_seed_fixes_the_inputs(pb):
    spec = replace(TINY["infer"])
    a = workloads.InferRun(spec, 3, pb)
    b = workloads.InferRun(spec, 3, pb)
    a.setup()
    b.setup()
    assert (a.pool == b.pool).all()
    c = workloads.InferRun(spec, 4, pb)
    c.setup()
    assert not (a.pool == c.pool).all()
