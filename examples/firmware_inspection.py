#!/usr/bin/env python
"""Inspect the firmware a trained adaptation model compiles into.

Mirrors Section 5 of the paper: train a small Best-RF-shaped model and
a CHARSTAR-style MLP, compile both, print the paper-style cost
comparison (ops per prediction, memory footprint, finest supported
gating interval) and the pseudo-assembly of their inner loops
(Listings 1 and 2), then package, save, reload and re-execute the
firmware image to show the update path is bit-faithful.

Run: ``python examples/firmware_inspection.py``
"""

import os
import tempfile

import numpy as np

from repro import rng as rng_mod
from repro.config import active_exec_config
from repro.core.predictor import DualModePredictor
from repro.data.builders import dataset_from_traces, hdtr_traces
from repro.firmware import (
    FirmwareImage,
    FirmwareVM,
    Microcontroller,
    compile_model,
    cost_report,
    disassemble,
)
from repro.firmware.deploy import package_firmware
from repro.ml import MLPClassifier, RandomForestClassifier
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.counters import default_catalog
from repro.uarch.modes import Mode
from repro.workloads.categories import hdtr_corpus


def main() -> None:
    seed = active_exec_config().seed
    collector = TelemetryCollector()
    apps = hdtr_corpus(seed)[::6]
    traces = hdtr_traces(seed, apps=apps, workloads_per_app=1,
                         intervals_per_trace=80)
    counters = default_catalog().table4_ids
    ds = dataset_from_traces(traces, counters, collector=collector,
                             granularity_factor=4)[Mode.LOW_POWER]

    rf = RandomForestClassifier(8, 8, seed=seed).fit(ds.x, ds.y)
    mlp = MLPClassifier((10,), epochs=30, seed=seed).fit(ds.x, ds.y)

    print("== Section 5: inference cost comparison ==")
    uc = Microcontroller()
    for name, model in (("Best RF (8 trees, depth 8)", rf),
                        ("CHARSTAR-style MLP (1x10)", mlp)):
        report = cost_report(model, name, uc)
        print(f"  {name}: {report.ops_per_prediction} ops, "
              f"{report.memory_bytes} B image, finest interval "
              f"{report.finest_granularity} instructions")

    print("\n== Listing-2 style: one forest tree, branch-free ==")
    print(disassemble(compile_model(rf), max_lines=22))
    print("== Listing-1 style: one MLP filter ==")
    print(disassemble(compile_model(mlp), max_lines=24))

    print("== Firmware update path: package -> save -> load -> run ==")
    predictor = DualModePredictor(
        "inspect_rf",
        {mode: RandomForestClassifier(
            8, 8, seed=rng_mod.derive_seed(seed, mode.value)
        ).fit(ds.x, ds.y) for mode in Mode},
        np.asarray(counters), granularity_factor=4)
    image = package_firmware(predictor, version=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "adaptation.fw")
        image.save(path)
        loaded = FirmwareImage.load(path)
        vm = FirmwareVM()
        sample = ds.x[:256]
        original = vm.run(image.programs[Mode.LOW_POWER], sample)
        reloaded = vm.run(loaded.programs[Mode.LOW_POWER], sample)
        identical = np.array_equal(original.predictions,
                                   reloaded.predictions)
        print(f"  image: {os.path.getsize(path)} B on flash, checksum "
              f"{loaded.checksum[:12]}..., verified={loaded.verify()}")
        print(f"  reloaded firmware predicts identically: {identical}")
        print(f"  ops metered per prediction: "
              f"{reloaded.ops_per_prediction}")


if __name__ == "__main__":
    main()
