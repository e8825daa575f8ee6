"""repro — reproduction of "Post-Silicon CPU Adaptation Made Practical
Using Machine Learning" (Tarsa et al., ISCA 2019).

An adaptive two-cluster CPU that performs *predictive cluster gating*:
ML adaptation models hosted in microcontroller firmware read telemetry
counters every few tens of thousands of instructions and decide, two
intervals ahead, whether to clock-gate the second execution cluster.

Quick start::

    from repro import quick_demo
    result = quick_demo()
    print(result)

Package map — see DESIGN.md for the full inventory:

* ``repro.core`` — labels, SLA, dual-mode predictor, gating controller,
  closed-loop adaptive CPU, train/deploy pipeline.
* ``repro.uarch`` — cycle-level and interval-level simulators, power.
* ``repro.telemetry`` — 936-counter catalog, collector, PF selection.
* ``repro.workloads`` — phase-structured synthetic workloads, the
  HDTR-like training corpus and the SPEC2017-like held-out suite.
* ``repro.ml`` — from-scratch MLP/forest/logistic/SVM estimators.
* ``repro.firmware`` — model compilation, op budgets, firmware VM,
  post-silicon update flow.
* ``repro.data`` — dataset builders.
* ``repro.eval`` — PGOS/RSV metrics, deployment runner, blindspots.
* ``repro.exec`` — execution engine: parallel map backends, the
  content-addressed snapshot and dataset cache, stage/cache
  instrumentation.
"""

from repro.config import (
    DEFAULT_SLA,
    MachineConfig,
    MicrocontrollerConfig,
    SLAConfig,
)

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SLA",
    "MachineConfig",
    "MicrocontrollerConfig",
    "SLAConfig",
    "quick_demo",
]


def quick_demo(seed: int = 7) -> dict:
    """Train a small Best-RF predictor and deploy it on a few held-out
    benchmarks; returns headline numbers. Meant as a two-minute smoke
    of the whole stack — see ``examples/quickstart.py`` for the
    narrated version.
    """
    from repro.core.pipeline import build_standard_models
    from repro.data.builders import hdtr_traces
    from repro.eval.runner import evaluate_predictor
    from repro.telemetry.collector import TelemetryCollector
    from repro.workloads.categories import hdtr_corpus
    from repro.workloads.spec2017 import spec2017_traces

    collector = TelemetryCollector()
    apps = hdtr_corpus(seed)[::4]
    train = hdtr_traces(seed, apps=apps, workloads_per_app=2,
                        intervals_per_trace=100)
    models = build_standard_models(train, seed=seed, collector=collector,
                                   include=["best_rf"],
                                   selection_traces=24)
    test = spec2017_traces(seed + 1, intervals_per_trace=120,
                           traces_per_workload=1)[::5]
    suite = evaluate_predictor(models["best_rf"], test,
                               collector=collector)
    return {
        "ppw_gain": suite.mean_ppw_gain,
        "rsv": suite.mean_rsv,
        "pgos": suite.mean_pgos,
        "low_power_residency": suite.mean_residency,
        "avg_performance": suite.mean_avg_performance,
    }
