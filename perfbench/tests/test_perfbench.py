"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

The end-to-end cases run every workload for one second, so the whole
file takes about a minute and a half on two CPUs.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.spans import Recorder, self_times, wrap  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, seed: int, seconds: float = 1, trace: int = 0,
           cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_metric_names_and_units_match_the_spec():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == layers.END_TO_END
    assert per_layer == layers.PER_LAYER
    names = list(e2e) + list(per_layer) + [w["name"]
                                           for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(layers.WORKLOADS)


@pytest.mark.parametrize("workload", layers.WORKLOADS)
def test_every_workload_emits_every_end_to_end_metric(workload):
    proc = _bench(workload, seed=3)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(layers.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == layers.END_TO_END[name]


def test_traced_run_emits_every_per_layer_metric():
    proc = _bench("serve_mixed", seed=4, seconds=2, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("serve.decide.codec_us", "serve.decide.execute_us",
                 "serve.adapt.execute_us", "core.prepare_s",
                 "ml.predict_s", "obs.trace_overhead_ratio",
                 "serve.decide.p50_ms", "serve.adapt.p95_ms"):
        assert values[name] > 0, name
    assert values["exec.tasks"] == 0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("serve_mixed", seed=1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _random_spans(rng: random.Random, n: int) -> list[dict]:
    spans = []
    for i in range(n):
        start = rng.uniform(0, 10)
        parent = rng.choice(spans)["id"] if spans and rng.random() < 0.7 \
            else None
        spans.append({"id": f"1:{i}", "parent": parent,
                      "name": f"layer{rng.randrange(3)}", "start": start,
                      "end": start + rng.uniform(0, 3), "request": None,
                      "rows": None})
    return spans


@pytest.mark.parametrize("seed", range(20))
def test_self_time_is_within_zero_and_the_span_duration(seed):
    rng = random.Random(seed)
    for span in _random_spans(rng, 30):
        # Each span alone under a unique name, children included.
        family = [dict(span, name="me")] + [
            dict(s, name="child") for s in _random_spans(rng, 5)]
        for child in family[1:]:
            child["parent"] = span["id"]
        own = self_times(family)["me"]
        assert 0.0 <= own <= span["end"] - span["start"] + 1e-12


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": "1:1", "parent": None, "name": "a", "start": 0.0, "end": 10.0},
        {"id": "1:2", "parent": "1:1", "name": "b", "start": 1.0, "end": 4.0},
        {"id": "1:3", "parent": "1:1", "name": "b", "start": 3.0, "end": 5.0},
        {"id": "1:4", "parent": "1:1", "name": "c", "start": 9.0, "end": 12.0},
    ]
    own = self_times(spans)
    assert own["a"] == pytest.approx(10 - 4 - 1)
    assert own["b"] == pytest.approx(5.0)
    assert own["c"] == pytest.approx(3.0)


def test_a_probe_that_no_longer_matches_the_program_fails():
    class Layer:
        def present(self):
            return 1

    wrap(Layer, "present", "layer")
    with pytest.raises(AttributeError):
        wrap(Layer, "renamed", "layer")


def test_paused_threads_record_nothing():
    rec = Recorder()
    rec.enabled = True
    with rec.paused():
        with rec.span("skipped"):
            pass
    with rec.span("kept"):
        pass
    assert [s["name"] for s in rec.spans] == ["kept"]


def test_recorder_nests_spans_and_carries_the_request_id():
    rec = Recorder()
    with rec.span("outer"):
        pass
    assert rec.spans == []
    rec.enabled = True
    with rec.span("outer", request="0-1"):
        with rec.span("inner"):
            pass
    inner, outer = rec.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["request"] == outer["request"] == "0-1"


def test_a_different_seed_changes_the_inputs_but_not_the_metric_set():
    from perfbench.offline_child import held_out
    from perfbench.serving import Inputs
    telemetry = np.random.default_rng(0).random((2, 200, 12))
    a = Inputs(1, 0, telemetry, 16)
    b = Inputs(2, 0, telemetry, 16)
    assert not np.array_equal(a.windows, b.windows)
    assert not np.array_equal(a.adapt, b.adapt)
    again = Inputs(1, 0, telemetry, 16)
    assert np.array_equal(a.windows, again.windows)
    assert a.wire(5, "t") == again.wire(5, "t")
    first, second = held_out(1), held_out(2)
    assert [t.name for t in first] != [t.name for t in second]
    assert sorted(t.name for t in first) == sorted(t.name for t in second)
    metric_sets = []
    for seed in (5, 6):
        proc = _bench("serve_mixed", seed=seed)
        assert proc.returncode == 0, proc.stderr
        metric_sets.append(
            set(json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]))
    assert metric_sets[0] == metric_sets[1]
