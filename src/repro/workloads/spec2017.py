"""The SPEC2017-like held-out test suite (Table 2).

The paper evaluates deployed models on 571 SimPoint traces from 118
workloads spanning the 20 SPEC2017 speed benchmarks, none of which
appear in training. We reproduce the suite's *structure* exactly —
benchmark names, integer/float split, per-benchmark workload (input)
counts — and its *statistics* approximately, by assigning each
benchmark phase families that match its published microarchitectural
character (e.g. ``mcf_s`` is pointer chasing, ``lbm_s`` streams,
``roms_s`` mixes FP solves with store bursts).

Two deliberate properties:

* **Distribution shift**: every SPEC-like app samples phases with an
  out-of-distribution jitter (``ood_shift``) so test telemetry is not
  a re-draw of training telemetry — the generalization gap the paper's
  blindspot-mitigation techniques target.
* **A concentrated blindspot**: ``roms_s`` (and to a lesser degree
  ``cactuBSSN_s``) carries the ``store_burst`` family, which only the
  Store Queue Occupancy counter reveals. Models trained on the expert
  counter set (CHARSTAR) systematically mispredict these phases,
  reproducing Figure 9's 77.8% RSV spike.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro import rng as rng_mod
from repro.config import active_exec_config
from repro.workloads.generator import (
    ApplicationSpec,
    TraceSpec,
    generate_application,
)


@dataclasses.dataclass(frozen=True)
class SpecBenchmark:
    """One SPEC2017 benchmark: name, suite and Table-2 workload count."""

    name: str
    suite: str  # "int" or "fp"
    workloads: int  # number of distinct inputs (Table 2)
    family_weights: Mapping[str, float]
    ood_shift: float = 0.12


#: Table 2, with phase-family assignments per benchmark character.
SPEC2017_APPS: tuple[SpecBenchmark, ...] = (
    SpecBenchmark("600.perlbench_s", "int", 4,
                  {"branchy": 0.45, "frontend": 0.35, "balanced": 0.20}),
    SpecBenchmark("602.gcc_s", "int", 7,
                  {"branchy": 0.35, "frontend": 0.30, "balanced": 0.20,
                   "pointer_chase": 0.15}),
    SpecBenchmark("605.mcf_s", "int", 7,
                  {"pointer_chase": 0.70, "balanced": 0.20, "branchy": 0.10}),
    SpecBenchmark("620.omnetpp_s", "int", 9,
                  {"pointer_chase": 0.50, "branchy": 0.30, "frontend": 0.20}),
    SpecBenchmark("623.xalancbmk_s", "int", 2,
                  {"frontend": 0.45, "branchy": 0.35, "pointer_chase": 0.20}),
    SpecBenchmark("625.x264_s", "int", 12,
                  {"media": 0.45, "compute_int": 0.35, "compute_fp": 0.20}),
    SpecBenchmark("631.deepsjeng_s", "int", 12,
                  {"branchy": 0.45, "compute_int": 0.35, "balanced": 0.20}),
    SpecBenchmark("641.leela_s", "int", 10,
                  {"branchy": 0.40, "balanced": 0.35, "pointer_chase": 0.25}),
    SpecBenchmark("648.exchange2_s", "int", 5,
                  {"compute_int": 0.65, "branchy": 0.25, "dep_chain": 0.10}),
    SpecBenchmark("657.xz_s", "int", 5,
                  {"balanced": 0.35, "pointer_chase": 0.35, "compute_int": 0.30}),
    SpecBenchmark("603.bwaves_s", "fp", 5,
                  {"sparse_fp": 0.45, "dep_chain": 0.30, "pointer_chase": 0.25}),
    SpecBenchmark("607.cactuBSSN_s", "fp", 6,
                  {"sparse_fp": 0.50, "compute_fp": 0.25, "store_burst": 0.10,
                   "bandwidth": 0.15}),
    SpecBenchmark("619.lbm_s", "fp", 3,
                  {"bandwidth": 0.70, "compute_fp": 0.30}),
    SpecBenchmark("621.wrf_s", "fp", 1,
                  {"compute_fp": 0.40, "sparse_fp": 0.40, "balanced": 0.20}),
    SpecBenchmark("627.cam4_s", "fp", 1,
                  {"compute_fp": 0.45, "sparse_fp": 0.35, "branchy": 0.20}),
    SpecBenchmark("628.pop2_s", "fp", 1,
                  {"sparse_fp": 0.45, "compute_fp": 0.35, "bandwidth": 0.20}),
    SpecBenchmark("638.imagick_s", "fp", 12,
                  {"compute_fp": 0.65, "media": 0.25, "dep_chain": 0.10}),
    SpecBenchmark("644.nab_s", "fp", 5,
                  {"sparse_fp": 0.45, "dep_chain": 0.35, "pointer_chase": 0.20}),
    SpecBenchmark("649.fotonik3d_s", "fp", 5,
                  {"sparse_fp": 0.45, "bandwidth": 0.35, "compute_fp": 0.20}),
    SpecBenchmark("654.roms_s", "fp", 5,
                  {"store_burst": 0.45, "sparse_fp": 0.35, "bandwidth": 0.20}),
)

#: Paper's totals for the test set.
PAPER_TEST_TRACES = 571
PAPER_TEST_WORKLOADS = 118

_BY_NAME = {bench.name: bench for bench in SPEC2017_APPS}


def get_benchmark(name: str) -> SpecBenchmark:
    """Look up a benchmark by its full Table-2 name."""
    return _BY_NAME[name]


def benchmark_names(suite: str | None = None) -> list[str]:
    """Benchmark names, optionally restricted to ``"int"`` or ``"fp"``."""
    return [b.name for b in SPEC2017_APPS if suite is None or b.suite == suite]


def spec_application(bench: SpecBenchmark, seed: int) -> ApplicationSpec:
    """Instantiate the synthetic application for one benchmark."""
    return generate_application(
        name=bench.name,
        category=f"spec2017_{bench.suite}",
        families_weights=bench.family_weights,
        seed=rng_mod.derive_seed(seed, "spec2017", bench.name),
        n_phases_range=(4, 8),
        ood_shift=bench.ood_shift,
    )


def spec2017_suite(seed: int) -> dict[str, ApplicationSpec]:
    """All 20 SPEC-like applications, keyed by benchmark name."""
    return {bench.name: spec_application(bench, seed)
            for bench in SPEC2017_APPS}


def spec2017_traces(seed: int,
                    intervals_per_trace: int | None = None,
                    traces_per_workload: int | None = None,
                    ) -> list[TraceSpec]:
    """Generate the full held-out trace set.

    The paper uses ~4.8 SimPoint traces of 200M instructions per
    workload; we default to a scaled-down equivalent — a handful of
    traces per workload, a few hundred 10k-instruction intervals each —
    governed by ``REPRO_SCALE``.
    """
    scale = active_exec_config().scale
    if intervals_per_trace is None:
        intervals_per_trace = max(60, int(round(240 * scale)))
    if traces_per_workload is None:
        traces_per_workload = max(1, int(round(2 * scale)))
    suite = spec2017_suite(seed)
    traces: list[TraceSpec] = []
    for bench in SPEC2017_APPS:
        app = suite[bench.name]
        for input_id in range(bench.workloads):
            workload = app.workload(input_id)
            for trace_id in range(traces_per_workload):
                traces.append(workload.trace(intervals_per_trace, trace_id))
    return traces


def suite_summary() -> dict[str, int]:
    """Table-2 style totals for the structural suite definition."""
    return {
        "benchmarks": len(SPEC2017_APPS),
        "int_benchmarks": len(benchmark_names("int")),
        "fp_benchmarks": len(benchmark_names("fp")),
        "workloads": sum(b.workloads for b in SPEC2017_APPS),
    }
