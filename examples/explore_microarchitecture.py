#!/usr/bin/env python
"""Tour of the microarchitecture substrate.

Shows the pieces under the experiment pipeline:

* the cycle-level two-cluster core executing synthetic micro-op
  streams of different phase archetypes, in both operating modes,
  including the mode-switch microcode cost;
* the structural cache hierarchy and branch predictors;
* the telemetry catalog: healthy, redundant, rare, dead and stuck
  counters, and what the screening pass removes;
* the event-based power model's breakdown per mode.

Run: ``python examples/explore_microarchitecture.py``
"""

import numpy as np

from repro import rng as rng_mod
from repro.config import active_exec_config
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.counters import default_catalog
from repro.uarch.branch import BimodalPredictor, GsharePredictor, \
    measure_mispredict_rate
from repro.uarch.caches import CacheHierarchy
from repro.uarch.core_model import ClusteredCoreModel, \
    simulate_phase_cycle_level
from repro.uarch.modes import Mode
from repro.uarch.power import PowerModel
from repro.workloads.generator import generate_application
from repro.workloads.phases import get_archetype


def tour_cycle_core(seed: int) -> None:
    print("== Cycle-level core: per-phase IPC in both modes ==")
    print(f"{'phase':24s} {'hp ipc':>7s} {'lp ipc':>7s} {'lp/hp':>6s}")
    for name in ("gemm_tile", "linked_list_walk", "branchy_parser",
                 "store_burst_log", "balanced_mixed"):
        phase = get_archetype(name).sample(rng_mod.stream(seed, name))
        hp = simulate_phase_cycle_level(phase, 8000, Mode.HIGH_PERF, seed)
        lp = simulate_phase_cycle_level(phase, 8000, Mode.LOW_POWER, seed)
        print(f"{name:24s} {hp.ipc:7.2f} {lp.ipc:7.2f} "
              f"{lp.ipc / hp.ipc:6.2f}")
    model = ClusteredCoreModel(mode=Mode.HIGH_PERF)
    print(f"mode-switch microcode: "
          f"{model.mode_switch_cycles(32):.0f} cycles worst case, "
          f"{model.mode_switch_cycles(8):.0f} typical\n")


def tour_memory(seed: int) -> None:
    print("== Structural cache hierarchy ==")
    hierarchy = CacheHierarchy()
    rng = rng_mod.stream(seed, "addr")
    hot = rng.integers(0, 256, 8000) * 64  # 16 KiB working set
    cold = rng.integers(0, 1 << 17, 8000) * 64  # 8 MiB working set
    for name, stream in (("16KiB working set", hot),
                         ("8MiB working set", cold)):
        for addr in stream:
            hierarchy.access(int(addr))
        print(f"  {name}: L1 miss {hierarchy.l1.stats.miss_rate:.1%}, "
              f"L2 miss {hierarchy.l2.stats.miss_rate:.1%}, "
              f"L2 silent evictions "
              f"{hierarchy.l2.stats.silent_evictions}")
        hierarchy.l1.reset_stats()
        hierarchy.l2.reset_stats()

    print("== Branch predictors on a loop-heavy stream ==")
    pcs = np.tile(np.arange(8) * 4 + 0x1000, 500)
    outcomes = np.tile(np.array([1, 1, 1, 0, 1, 0, 1, 1], bool), 500)
    for predictor in (BimodalPredictor(), GsharePredictor()):
        rate = measure_mispredict_rate(predictor, pcs, outcomes)
        print(f"  {type(predictor).__name__}: "
              f"mispredict rate {rate:.1%}")
    print()


def tour_telemetry(seed: int) -> None:
    print("== Telemetry catalog (936 counters) ==")
    catalog = default_catalog()
    kinds = {}
    for counter in catalog.counters:
        kinds[counter.kind_name] = kinds.get(counter.kind_name, 0) + 1
    print("  kinds:", ", ".join(f"{k}={v}" for k, v in
                                sorted(kinds.items())))
    collector = TelemetryCollector()
    app = generate_application(
        "tour", "demo", {"pointer_chase": 0.5, "store_burst": 0.5},
        seed=seed)
    trace = app.workload(0).trace(60, 0)
    snap = collector.snapshot(trace, Mode.HIGH_PERF,
                              catalog.table4_ids)
    print("  Table-4 counter means (per cycle):")
    for i, (name, _) in zip(range(4),
                            [(catalog[c].name, c)
                             for c in catalog.table4_ids]):
        print(f"    {name:28s} {snap.normalized[:, i].mean():.4f}")
    print()


def tour_power(seed: int) -> None:
    print("== Power model breakdown ==")
    collector = TelemetryCollector()
    power = PowerModel()
    app = generate_application(
        "power-demo", "demo", {"compute_fp": 0.6, "pointer_chase": 0.4},
        seed=seed)
    trace = app.workload(0).trace(120, 0)
    for mode in Mode:
        result = collector.model.simulate(trace, mode)
        breakdown = power.breakdown(result)
        print(f"  {mode.value:10s}: {breakdown.average_power_w:5.2f} W "
              f"(static {breakdown.static_energy_j * 1e3:.2f} mJ, "
              f"dynamic {breakdown.dynamic_energy_j * 1e3:.2f} mJ, "
              f"ppw {power.ppw(result) / 1e9:.2f} GInst/J)")


def main() -> None:
    seed = active_exec_config().seed
    tour_cycle_core(seed)
    tour_memory(seed)
    tour_telemetry(seed)
    tour_power(seed)


if __name__ == "__main__":
    main()
