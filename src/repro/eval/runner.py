"""Deployment evaluation runner.

Deploys a trained :class:`~repro.core.predictor.DualModePredictor` on a
held-out trace corpus through the closed-loop
:class:`~repro.core.adaptive_cpu.AdaptiveCPU`, then aggregates the
paper's headline quantities — PPW gain, RSV, PGOS, residency, average
performance — per benchmark and over the suite (Figures 8/9, Tables
5/6).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.config import DEFAULT_SLA, SLAConfig, active_exec_config
from repro.core.adaptive_cpu import AdaptiveCPU, AdaptiveRunResult
from repro.core.predictor import DualModePredictor
from repro.errors import DatasetError
from repro.eval.metrics import effective_sla_window, pgos, pooled_rsv
from repro.exec.parallel import ParallelMap
from repro.obs.metrics import METRICS
from repro.obs import tracer
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.power import PowerModel
from repro.workloads.generator import TraceSpec


@dataclasses.dataclass(frozen=True)
class BenchmarkEval:
    """Aggregated results for one benchmark/application."""

    app_name: str
    ppw_gain: float
    rsv: float
    pgos: float
    residency: float
    avg_performance: float
    n_traces: int


@dataclasses.dataclass(frozen=True)
class SuiteEval:
    """Suite-level evaluation of one predictor."""

    predictor_name: str
    granularity: int
    per_benchmark: tuple[BenchmarkEval, ...]
    runs: tuple[AdaptiveRunResult, ...]

    @functools.cached_property
    def _benchmark_index(self) -> dict[str, BenchmarkEval]:
        return {bench.app_name: bench for bench in self.per_benchmark}

    def benchmark(self, app_name: str) -> BenchmarkEval:
        """Results for one benchmark by name (O(1) after first call)."""
        try:
            return self._benchmark_index[app_name]
        except KeyError:
            raise DatasetError(
                f"no benchmark {app_name!r} in evaluation") from None

    def _mean(self, attr: str, apps: list[str] | None = None) -> float:
        values = [getattr(b, attr) for b in self.per_benchmark
                  if apps is None or b.app_name in apps]
        if not values:
            raise DatasetError("no benchmarks selected")
        return float(np.mean(values))

    @property
    def mean_ppw_gain(self) -> float:
        """Mean PPW gain across benchmarks (the paper's average)."""
        return self._mean("ppw_gain")

    @property
    def mean_rsv(self) -> float:
        """Mean RSV across benchmarks."""
        return self._mean("rsv")

    @property
    def mean_pgos(self) -> float:
        return self._mean("pgos")

    @property
    def mean_residency(self) -> float:
        return self._mean("residency")

    @property
    def mean_avg_performance(self) -> float:
        return self._mean("avg_performance")

    def suite_means(self, apps: list[str]) -> dict[str, float]:
        """Means over a benchmark subset (e.g. SPECint vs SPECfp)."""
        return {
            "ppw_gain": self._mean("ppw_gain", apps),
            "rsv": self._mean("rsv", apps),
            "pgos": self._mean("pgos", apps),
            "residency": self._mean("residency", apps),
            "avg_performance": self._mean("avg_performance", apps),
        }


def _aggregate_app(app_name: str, runs: list[AdaptiveRunResult],
                   window: int) -> BenchmarkEval:
    y_true = np.concatenate([run.labels for run in runs])
    y_pred = np.concatenate([run.predictions for run in runs])
    rsv_value = pooled_rsv([(run.labels, run.predictions) for run in runs],
                           window)
    return BenchmarkEval(
        app_name=app_name,
        ppw_gain=float(np.mean([run.ppw_gain for run in runs])),
        rsv=rsv_value,
        pgos=pgos(y_true, y_pred),
        residency=float(np.mean([run.residency for run in runs])),
        avg_performance=float(np.mean([run.avg_performance
                                       for run in runs])),
        n_traces=len(runs),
    )


def evaluate_predictor(predictor: DualModePredictor,
                       traces: list[TraceSpec],
                       sla: SLAConfig = DEFAULT_SLA,
                       collector: TelemetryCollector | None = None,
                       power: PowerModel | None = None,
                       window: int | None = None,
                       pmap: ParallelMap | None = None) -> SuiteEval:
    """Deploy a predictor on a trace corpus and aggregate the results.

    ``window`` is the RSV window in predictions; by default it is the
    scaled Eq.-2 window for the predictor's gating granularity.
    ``pmap`` selects the execution backend for the per-trace closed
    loops (serial unless configured); process backends ship the corpus
    once via the :class:`~repro.exec.arena.TraceArena` when
    ``REPRO_EXEC_ARENA=1``, and ``REPRO_EXEC_SHARD`` streams the
    closed loops shard-by-shard with bounded parent RSS (see
    :meth:`~repro.core.adaptive_cpu.AdaptiveCPU.run_many`). Suite
    metrics are bit-identical across backends, arena and shard
    settings.
    """
    if not traces:
        raise DatasetError("no traces to evaluate")
    shard = active_exec_config().shard
    n_shards = (1 if shard is None or len(traces) <= shard
                else -(-len(traces) // shard))
    with tracer.span("evaluate.predictor", predictor=predictor.name,
                     traces=len(traces), shards=n_shards):
        cpu = AdaptiveCPU(predictor, collector=collector, power=power,
                          sla=sla)
        runs = cpu.run_many(traces, pmap=pmap)
        granularity = runs[0].granularity
        if window is None:
            window = effective_sla_window(granularity, cpu.machine, sla)
        by_app: dict[str, list[AdaptiveRunResult]] = {}
        for run in runs:
            by_app.setdefault(run.app_name, []).append(run)
        with METRICS.stage("evaluate_aggregate"):
            per_benchmark = tuple(
                _aggregate_app(app, app_runs, window)
                for app, app_runs in sorted(by_app.items())
            )
        return SuiteEval(
            predictor_name=predictor.name,
            granularity=granularity,
            per_benchmark=per_benchmark,
            runs=tuple(runs),
        )
