"""CI observability smoke: trace schema, span coverage, merge parity.

Runs a small but real deployment — ``AdaptiveCPU.run_many`` over a
process pool plus a cached ``build_mode_dataset`` — twice: once with
tracing off and once with ``REPRO_TRACE`` writing a trace file. Then
asserts the observability contract end to end:

1. the traced run is **bit-identical** to the untraced run (tracing
   observes, never perturbs);
2. the emitted trace document passes :func:`repro.obs.validate_trace`
   and contains at least one span for every instrumented stage the
   run exercised;
3. worker-side counters merged back into the parent registry: the
   process-pool run records the same per-item counters a serial run
   does, and spans recorded inside workers carry worker pids;
4. the ``--obs-report`` renderer produces its profile sections.

Run standalone::

    PYTHONPATH=src python benchmarks/obs_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.predictor import DualModePredictor
from repro.data.builders import build_mode_dataset
from repro.exec import ParallelMap, close_pools
from repro.obs.metrics import METRICS
from repro.ml.base import Estimator
from repro.obs import render_report, tracer, validate_trace
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application

#: Span names the traced deployment below must record at least once.
EXPECTED_SPANS = (
    "exec.map_chunks",
    "exec.chunk",
    "deploy.prepare",
    "deploy.infer",
    "deploy.finalize",
    "interval.simulate_batch",
    "build_dataset",
    "arena.build",
)


class _ConstModel(Estimator):
    """Fixed-probability stub model (picklable for process pools)."""

    def __init__(self, prob: float) -> None:
        self.prob = prob
        self.decision_threshold = 0.5

    def fit(self, x, y):
        return self

    def predict_proba(self, x):
        return np.full(x.shape[0], self.prob)


def _corpus(n_apps: int = 3, workloads_per_app: int = 2,
            intervals: int = 80):
    families = ("pointer_chase", "compute_fp", "store_burst")
    traces = []
    for i in range(n_apps):
        app = generate_application(f"obsapp{i}", "obs",
                                   {families[i % len(families)]: 1.0},
                                   seed=50 + i)
        for w in range(workloads_per_app):
            traces.append(app.workload(w).trace(intervals, 0))
    return traces


def _predictor() -> DualModePredictor:
    return DualModePredictor(
        name="obs_const",
        models={Mode.HIGH_PERF: _ConstModel(0.7),
                Mode.LOW_POWER: _ConstModel(0.4)},
        counter_ids=np.array([0, 1, 2, 3]),
        granularity_factor=1,
    )


def _deploy(traces, pmap):
    cpu = AdaptiveCPU(_predictor(), collector=TelemetryCollector())
    runs = cpu.run_many(traces, pmap=pmap)
    ds = build_mode_dataset(traces, Mode.LOW_POWER, list(range(8)),
                            collector=TelemetryCollector(), pmap=pmap)
    return runs, ds


def _runs_equal(a, b) -> bool:
    return all(
        x.trace_name == y.trace_name
        and np.array_equal(x.modes, y.modes)
        and np.array_equal(x.ipc, y.ipc)
        and np.array_equal(x.cycles, y.cycles)
        and x.energy_j == y.energy_j
        for x, y in zip(a, b)
    )


def main() -> int:
    failures: list[str] = []
    traces = _corpus()
    os.environ.pop("REPRO_TRACE", None)
    tracer.refresh()

    # Serial ground truth, and its deterministic per-pair counter.
    pairs_before = METRICS.count("interval_batch.pairs")
    serial_runs, serial_ds = _deploy(
        traces, ParallelMap(backend="serial"))
    serial_pairs = METRICS.count("interval_batch.pairs") - pairs_before

    # Untraced process-pool run: worker counters must merge to the
    # exact serial totals (the pre-PR-5 bug was that they vanished).
    close_pools()
    pairs_before = METRICS.count("interval_batch.pairs")
    merges_before = METRICS.count("obs.worker_merges")
    pmap = ParallelMap(backend="process", n_workers=2)
    plain_runs, plain_ds = _deploy(traces, pmap)
    plain_pairs = METRICS.count("interval_batch.pairs") - pairs_before
    if not _runs_equal(serial_runs, plain_runs):
        failures.append("process run diverged from serial")
    if plain_pairs != serial_pairs:
        failures.append(
            f"worker-side interval_batch.pairs merged to {plain_pairs}, "
            f"serial recorded {serial_pairs}")
    if METRICS.count("obs.worker_merges") <= merges_before:
        failures.append("no worker sidecar was merged")

    # Traced process-pool run: bit-identical, schema-valid, covered.
    close_pools()
    fd, trace_path = tempfile.mkstemp(prefix="repro-obs-smoke-",
                                      suffix=".json")
    os.close(fd)
    os.environ["REPRO_TRACE"] = trace_path
    try:
        with tracer.trace("obs_smoke"):
            traced_runs, traced_ds = _deploy(
                traces, ParallelMap(backend="process", n_workers=2))
        close_pools()
        if not _runs_equal(plain_runs, traced_runs):
            failures.append("traced run diverged from untraced run")
        if not (np.array_equal(plain_ds.x, traced_ds.x)
                and np.array_equal(plain_ds.y, traced_ds.y)):
            failures.append("traced dataset diverged from untraced")

        doc = json.loads(Path(trace_path).read_text())
        problems = validate_trace(doc)
        for problem in problems:
            failures.append(f"trace schema: {problem}")
        by_name: dict[str, int] = {}
        for span in doc["spans"]:
            by_name[span["name"]] = by_name.get(span["name"], 0) + 1
        print(f"trace: {len(doc['spans'])} spans, "
              f"{doc['dropped_spans']} dropped, schema ok: "
              f"{not problems}")
        for name in EXPECTED_SPANS:
            count = by_name.get(name, 0)
            print(f"  {name:<26s} {count:5d}")
            if count == 0:
                failures.append(f"no spans recorded for {name!r}")
        parent = os.getpid()
        worker_spans = [s for s in doc["spans"] if s["pid"] != parent]
        if not worker_spans:
            failures.append("no worker-side spans were absorbed")
    finally:
        os.environ.pop("REPRO_TRACE", None)
        tracer.refresh()
        os.unlink(trace_path)

    report = render_report()
    print(report)
    for section in ("per-stage profile", "cache hit ratios"):
        if section not in report:
            failures.append(f"report is missing its {section!r} section")

    for failure in failures:
        print(f"OBS FAILURE: {failure}")
    print("obs smoke:", "FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
