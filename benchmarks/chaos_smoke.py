"""CI chaos smoke: the closed loop under a low-rate fault plan.

Runs the real pipeline — ``AdaptiveCPU.run_many`` over a process pool
(arena dispatch on) and a cached ``build_mode_dataset`` — with
``REPRO_FAULT_SPEC`` injecting worker crashes, task hangs, payload
corruption, cache bit-rot and arena attach failures, then checks the
resilience contract end to end: every run is bit-identical to a
fault-free serial baseline, or surrenders with a typed
:class:`~repro.errors.ExecFaultError`. Any silent divergence fails the
job. The resilience section of the exec report shows which recovery
paths the plan actually exercised.

Run standalone::

    REPRO_FAULT_SPEC="seed=13,crash=0.05,corrupt_arena=0.25" \
        PYTHONPATH=src python benchmarks/chaos_smoke.py

Without ``REPRO_FAULT_SPEC`` a default low-rate plan covering every
fault kind is used.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.predictor import DualModePredictor
from repro.data.builders import build_mode_dataset
from repro.errors import ExecFaultError
from repro.exec import ParallelMap, SimCache, close_pools
from repro.obs.metrics import METRICS
from repro.ml.base import Estimator
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application

#: Rates tuned (deterministically, per seed 13 and this workload) so
#: one run exercises every recovery path: pool retry/rebuild, thread
#: degrade, serial fallback, cache quarantine, and arena fallback.
DEFAULT_SPEC = ("seed=13,crash=0.3,hang=0.1,hang_s=0.05,payload=0.2,"
                "corrupt_cache=0.5,corrupt_arena=0.25")


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
        app = generate_application(f"chaosapp{i}", "chaos",
                                   {families[i % len(families)]: 1.0},
                                   seed=70 + i)
        for w in range(workloads_per_app):
            traces.append(app.workload(w).trace(intervals, 0))
    return traces


def _predictor() -> DualModePredictor:
    return DualModePredictor(
        name="chaos_const",
        models={Mode.HIGH_PERF: _ConstModel(0.7),
                Mode.LOW_POWER: _ConstModel(0.4)},
        counter_ids=np.array([0, 1, 2, 3]),
        granularity_factor=1,
    )


def main() -> int:
    spec = os.environ.pop("REPRO_FAULT_SPEC", None) or DEFAULT_SPEC
    traces = _corpus()
    predictor = _predictor()
    counter_ids = list(range(8))
    failures: list[str] = []

    # Fault-free serial ground truth (the spec is out of the env here).
    cpu = AdaptiveCPU(predictor, collector=TelemetryCollector())
    baseline = cpu.run_many(traces, pmap=ParallelMap(backend="serial"))
    ds_baseline = build_mode_dataset(traces, Mode.LOW_POWER, counter_ids,
                                     collector=TelemetryCollector())

    # Chaos: pools must fork after the spec lands in the environment.
    close_pools()
    os.environ["REPRO_FAULT_SPEC"] = spec
    print(f"chaos plan: {spec}")
    pmap = ParallelMap(backend="process", n_workers=2, retries=2,
                       timeout=30.0)

    try:
        chaotic = cpu.run_many(traces, pmap=pmap)
    except ExecFaultError as exc:
        print(f"run_many surrendered (allowed): "
              f"{type(exc).__name__}: {exc}")
    else:
        for base, chaos in zip(baseline, chaotic):
            if not (base.trace_name == chaos.trace_name
                    and np.array_equal(base.modes, chaos.modes)
                    and np.array_equal(base.ipc, chaos.ipc)
                    and np.array_equal(base.cycles, chaos.cycles)
                    and base.energy_j == chaos.energy_j):
                failures.append(
                    f"run_many diverged on {base.trace_name}")

    cache_dir = Path(tempfile.mkdtemp(prefix="repro-chaos-smoke-"))
    try:
        cache = SimCache(cache_dir)
        # Two passes: the first populates the cache under injection,
        # the second reads it back through quarantine-and-recompute.
        for label in ("cold", "warm"):
            try:
                ds = build_mode_dataset(
                    traces, Mode.LOW_POWER, counter_ids,
                    collector=TelemetryCollector(simcache=cache),
                    pmap=pmap)
            except ExecFaultError as exc:
                print(f"build_mode_dataset[{label}] surrendered "
                      f"(allowed): {type(exc).__name__}: {exc}")
                break
            if not (np.array_equal(ds.x, ds_baseline.x)
                    and np.array_equal(ds.y, ds_baseline.y)):
                failures.append(f"build_mode_dataset[{label}] diverged")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    close_pools()

    resilience = METRICS.resilience()
    print("resilience counters:")
    for name, value in resilience.items():
        print(f"  {name:<30s} {value}")
    for failure in failures:
        print(f"CHAOS DIVERGENCE: {failure}")
    print("chaos smoke:", "FAIL" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
