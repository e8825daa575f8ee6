#!/usr/bin/env python
"""Optimization-as-a-service: retrain the adaptation model for one app.

Section 7.3 / Table 6's usage model: a datacenter customer runs one
application across thousands of machines. They trace a few executions
on-site, ship the traces back, and receive firmware whose random
forest blends 4 high-diversity trees with 4 trees trained on their
application — boosting PPW on *future inputs* of that application.

Run: ``python examples/app_specific_retraining.py [benchmark]``
(default benchmark: 602.gcc_s)
"""

import sys

import numpy as np

from repro import rng as rng_mod
from repro.config import active_exec_config
from repro.core.pipeline import build_standard_models
from repro.core.predictor import DualModePredictor
from repro.data.builders import dataset_from_traces, hdtr_traces
from repro.eval.runner import evaluate_predictor
from repro.firmware.deploy import package_firmware
from repro.ml.forest import RandomForestClassifier, merge_forests
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.modes import Mode
from repro.workloads.categories import hdtr_corpus
from repro.workloads.spec2017 import get_benchmark, spec_application


def train_half_forest(datasets, seed, tag):
    """A 4-tree half of the blended Best-RF-shaped model."""
    models = {}
    for mode in Mode:
        model = RandomForestClassifier(
            n_trees=4, max_depth=8,
            seed=rng_mod.derive_seed(seed, tag, mode.value))
        model.fit(datasets[mode].x, datasets[mode].y)
        models[mode] = model
    return models


def main() -> None:
    bench_name = sys.argv[1] if len(sys.argv) > 1 else "602.gcc_s"
    seed = active_exec_config().seed
    collector = TelemetryCollector()

    print("Vendor side: general-purpose model from the diverse corpus.")
    apps = hdtr_corpus(seed)[::3]
    train = hdtr_traces(seed, apps=apps, workloads_per_app=2,
                        intervals_per_trace=120)
    models = build_standard_models(train, seed=seed, collector=collector,
                                   include=["best_rf"],
                                   selection_traces=40)
    counter_ids = models.pf_counter_ids
    hdtr_half_ds = dataset_from_traces(train[::2], counter_ids,
                                       collector=collector,
                                       granularity_factor=4)
    hdtr_half = train_half_forest(hdtr_half_ds, seed, "hdtr")

    print(f"Customer side: tracing {bench_name} on-site...")
    bench = get_benchmark(bench_name)
    app = spec_application(bench, seed + 92)
    workloads = list(range(bench.workloads))
    # Customer traces all inputs but the last; the last stands in for
    # the future inputs the deployed firmware will see.
    customer_traces = [app.workload(w).trace(200, 0)
                       for w in workloads[:-1]]
    future_traces = [app.workload(workloads[-1]).trace(200, t)
                     for t in range(2)]

    app_ds = dataset_from_traces(customer_traces, counter_ids,
                                 collector=collector,
                                 granularity_factor=4)
    app_half = train_half_forest(app_ds, seed, bench_name)

    blended = DualModePredictor(
        name=f"best_rf+{bench_name}",
        models={m: merge_forests(hdtr_half[m], app_half[m])
                for m in Mode},
        counter_ids=np.asarray(counter_ids),
        granularity_factor=4)
    image = package_firmware(blended, version=2)
    print(f"Shipping firmware update: {image.total_bytes} B, "
          f"checksum {image.checksum[:12]}...")

    print("\nDeployment on FUTURE inputs (never traced):")
    general = evaluate_predictor(models["best_rf"], future_traces,
                                 collector=collector)
    specific = evaluate_predictor(blended, future_traces,
                                  collector=collector)
    delta = specific.mean_ppw_gain - general.mean_ppw_gain
    print(f"  general model:      PPW {general.mean_ppw_gain * 100:6.2f}%"
          f"  RSV {general.mean_rsv * 100:5.2f}%"
          f"  PGOS {general.mean_pgos * 100:5.1f}%")
    print(f"  app-specific blend: PPW {specific.mean_ppw_gain * 100:6.2f}%"
          f"  RSV {specific.mean_rsv * 100:5.2f}%"
          f"  PGOS {specific.mean_pgos * 100:5.1f}%")
    print(f"  PPW delta: {delta * 100:+.2f}% "
          "(paper: +0.6% to +8.5% for 8 of 11 apps)")


if __name__ == "__main__":
    main()
