#!/usr/bin/env python
"""Quickstart: train and deploy a predictive cluster-gating model.

Walks the full loop of the paper on a small scaled corpus in about a
minute:

1. generate a diverse training corpus (HDTR-like) and simulate it in
   both cluster configurations;
2. select telemetry counters with PF Counter Selection;
3. train the Best RF adaptation model (8 trees, depth 8) per telemetry
   mode and tune its sensitivity;
4. compile it to firmware and check the microcontroller budget;
5. deploy it closed-loop on held-out SPEC2017-like benchmarks and
   report PPW gain, RSV and PGOS.

Run: ``python examples/quickstart.py``
"""

import time

from repro.config import active_exec_config
from repro.core.pipeline import build_standard_models
from repro.data.builders import hdtr_traces
from repro.eval.runner import evaluate_predictor
from repro.firmware import Microcontroller, compile_model
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.counters import default_catalog
from repro.uarch.modes import Mode
from repro.workloads.categories import hdtr_corpus
from repro.workloads.spec2017 import spec2017_traces


def main() -> None:
    seed = active_exec_config().seed
    t0 = time.time()
    collector = TelemetryCollector()
    catalog = default_catalog()

    print("== 1. Training corpus ==")
    apps = hdtr_corpus(seed)[::3]
    train = hdtr_traces(seed, apps=apps, workloads_per_app=2,
                        intervals_per_trace=120)
    print(f"   {len(apps)} applications, {len(train)} traces, "
          f"{sum(t.instructions for t in train) / 1e6:.0f}M instructions")

    print("== 2 & 3. Counter selection + Best RF training ==")
    models = build_standard_models(train, seed=seed, collector=collector,
                                   include=["best_rf"],
                                   selection_traces=40)
    predictor = models["best_rf"]
    names = [catalog[i].name for i in models.pf_counter_ids]
    print("   PF counters:", ", ".join(names[:6]), "...")
    print("   thresholds:", {m.value: round(t, 2)
                             for m, t in predictor.thresholds.items()})

    print("== 4. Firmware compilation ==")
    uc = Microcontroller()
    for mode in Mode:
        program = compile_model(predictor.models[mode])
        finest = uc.finest_granularity(program.ops_per_prediction)
        print(f"   {mode.value}: {program.ops_per_prediction} ops, "
              f"{program.memory_bytes} B -> finest interval {finest} "
              f"instructions")

    print("== 5. Deployment on held-out benchmarks ==")
    test = spec2017_traces(seed + 92, intervals_per_trace=200,
                           traces_per_workload=1)[::3]
    suite = evaluate_predictor(predictor, test, collector=collector)
    print(f"   benchmarks: {len(suite.per_benchmark)}, "
          f"gating interval: {suite.granularity} instructions")
    print(f"   PPW gain:        {suite.mean_ppw_gain * 100:6.2f}%  "
          f"(paper: 21.9%)")
    print(f"   RSV:             {suite.mean_rsv * 100:6.2f}%  "
          f"(paper: 0.3%)")
    print(f"   PGOS:            {suite.mean_pgos * 100:6.2f}%")
    print(f"   LP residency:    {suite.mean_residency * 100:6.2f}%")
    print(f"   avg performance: "
          f"{suite.mean_avg_performance * 100:6.2f}%  (SLA floor: 90%)")
    print(f"\nDone in {time.time() - t0:.1f}s.")


if __name__ == "__main__":
    main()
