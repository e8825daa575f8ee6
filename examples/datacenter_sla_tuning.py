#!/usr/bin/env python
"""Datacenter scenario: one chip, three SLAs, via firmware updates.

Section 3.2 / Table 5: a datacenter optimises total cost of ownership
by relaxing the gating SLA during the off-season and reverting to
peak-performance firmware when demand spikes — the same silicon, three
operating points, switched through the firmware store exactly as DCIM
software would push updates.

Run: ``python examples/datacenter_sla_tuning.py``
"""

import dataclasses

from repro import rng as rng_mod
from repro.config import DEFAULT_SLA, active_exec_config
from repro.core.pipeline import build_standard_models, train_dual_predictor
from repro.data.builders import dataset_from_traces, hdtr_traces
from repro.eval.runner import evaluate_predictor
from repro.firmware.deploy import FirmwareStore, package_firmware
from repro.ml.forest import RandomForestClassifier
from repro.telemetry.collector import TelemetryCollector
from repro.workloads.categories import hdtr_corpus
from repro.workloads.spec2017 import spec2017_traces


def main() -> None:
    seed = active_exec_config().seed
    collector = TelemetryCollector()
    apps = hdtr_corpus(seed)[::3]
    train = hdtr_traces(seed, apps=apps, workloads_per_app=2,
                        intervals_per_trace=120)
    test = spec2017_traces(seed + 92, intervals_per_trace=200,
                           traces_per_workload=1)[::3]

    print("Training the P_SLA=0.90 flagship model...")
    models = build_standard_models(train, seed=seed, collector=collector,
                                   include=["best_rf"],
                                   selection_traces=40)
    store = FirmwareStore()

    results = {}
    for version, floor in enumerate((0.90, 0.80, 0.70), start=1):
        if floor == 0.90:
            predictor = models["best_rf"]
        else:
            print(f"Retraining for P_SLA={floor:.2f} "
                  "(labels re-derived from the same telemetry)...")
            sla = dataclasses.replace(DEFAULT_SLA,
                                      performance_floor=floor)
            datasets = dataset_from_traces(
                train, models.pf_counter_ids, sla, collector,
                granularity_factor=4)

            def factory(mode, _floor=floor):
                return RandomForestClassifier(
                    8, 8, seed=rng_mod.derive_seed(seed, _floor,
                                                   mode.value))

            predictor = train_dual_predictor(
                f"best_rf_p{int(floor * 100)}", factory, datasets,
                granularity_factor=4, seed=seed)
        image = package_firmware(predictor, version=version,
                                 sla_floor=floor)
        store.install(image)
        sla = dataclasses.replace(DEFAULT_SLA, performance_floor=floor)
        results[floor] = evaluate_predictor(predictor, test, sla,
                                            collector=collector)

    print("\nFirmware store history:")
    for image in store.history:
        print(f"  v{image.version}: {image.name} "
              f"(P_SLA={image.sla_floor}, {image.total_bytes} B, "
              f"checksum {image.checksum[:12]}...)")

    print("\nOne chip, three products (held-out suite; note: this "
          "example uses a reduced corpus for speed, so RSV is noisy — "
          "benchmarks/bench_table5_sla_sweep.py runs the full-scale "
          "version):")
    print(f"{'P_SLA':>6s} {'PPW gain':>9s} {'avg perf':>9s} {'RSV':>7s}")
    for floor, suite in results.items():
        print(f"{floor:6.2f} {suite.mean_ppw_gain * 100:8.1f}% "
              f"{suite.mean_avg_performance * 100:8.1f}% "
              f"{suite.mean_rsv * 100:6.2f}%")

    print("\nHoliday demand spike: rolling back to the flagship...")
    store.activate(models['best_rf'].name, 1)
    print(f"  active firmware: {store.active.name} "
          f"(P_SLA={store.active.sla_floor})")


if __name__ == "__main__":
    main()
