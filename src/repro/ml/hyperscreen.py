"""High-throughput hyperparameter screening (Section 6.3).

The paper screens many model configurations by training each across
the cross-validation folds and characterising the *distribution* of a
metric — not just its mean. The selection rule is explicitly variance-
averse: "choose hyperparameters that minimize standard deviation in
PGOS but maintain a high average", because low variance across folds
predicts low variance on unseen workloads.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.config import active_exec_config
from repro.errors import ArenaIntegrityError, DatasetError
from repro.exec.arena import TraceArena
from repro.exec.parallel import ParallelMap, default_parallel_map
from repro.obs.metrics import METRICS
from repro.obs import tracer
from repro.ml.base import Estimator
from repro.ml.crossval import Fold

#: Metric signature: (y_true, y_pred, scores) -> float.
MetricFn = Callable[[np.ndarray, np.ndarray, np.ndarray], float]


@dataclasses.dataclass(frozen=True)
class ScreenRecord:
    """Cross-fold metric distribution for one model configuration."""

    config: Mapping[str, object]
    metrics: Mapping[str, tuple[float, float]]  # name -> (mean, std)
    per_fold: Mapping[str, tuple[float, ...]]

    def mean(self, metric: str) -> float:
        return self.metrics[metric][0]

    def std(self, metric: str) -> float:
        return self.metrics[metric][1]


def _screen_cell(pair: tuple[Mapping[str, object], Fold], *,
                 model_factory: Callable[[Mapping[str, object]], Estimator],
                 x: np.ndarray, y: np.ndarray,
                 metric_fns: Mapping[str, MetricFn],
                 threshold_tuner) -> dict[str, float]:
    """Train/score one (configuration, fold) cell (parallel unit).

    Every cell is independent — the estimator is freshly built from the
    config and all randomness is internal to its seed — so fanning the
    full (config, fold) grid keeps every backend bit-identical to the
    nested serial loops while exposing ``len(configs) * len(folds)``-way
    parallelism instead of ``len(configs)``-way.
    """
    config, fold = pair
    model = model_factory(config)
    model.fit(x[fold.tuning_idx], y[fold.tuning_idx])
    if threshold_tuner is not None:
        threshold_tuner(model, x[fold.tuning_idx], y[fold.tuning_idx])
    scores = model.predict_proba(x[fold.validation_idx])
    preds = (scores >= model.decision_threshold).astype(np.int64)
    y_val = y[fold.validation_idx]
    return {name: fn(y_val, preds, scores)
            for name, fn in metric_fns.items()}


def _arena_screen_cell(handle: str,
                       pair: tuple[Mapping[str, object], Fold],
                       ) -> dict[str, float]:
    """Worker-side cell: features/labels and factory ride the arena.

    Only the (config, fold) pair ships per task; ``x``/``y`` are
    zero-copy views of the shared mapping (fancy indexing by fold
    copies the selected rows, so the read-only views are never
    written).
    """
    arena = TraceArena.attach(handle)
    return _screen_cell(
        pair,
        model_factory=arena.object("model_factory"),
        x=arena.array("x"), y=arena.array("y"),
        metric_fns=arena.object("metric_fns"),
        threshold_tuner=arena.object("threshold_tuner"),
    )


def _assemble_record(config: Mapping[str, object],
                     cells: Sequence[Mapping[str, float]],
                     metric_fns: Mapping[str, MetricFn]) -> ScreenRecord:
    """Fold one configuration's cells back into a ScreenRecord."""
    per_fold = {name: [cell[name] for cell in cells]
                for name in metric_fns}
    metrics = {
        name: (float(np.mean(vals)), float(np.std(vals)))
        for name, vals in per_fold.items()
    }
    return ScreenRecord(
        config=dict(config),
        metrics=metrics,
        per_fold={name: tuple(vals) for name, vals in per_fold.items()},
    )


def screen_configs(model_factory: Callable[[Mapping[str, object]], Estimator],
                   configs: Sequence[Mapping[str, object]],
                   x: np.ndarray, y: np.ndarray, folds: Sequence[Fold],
                   metric_fns: Mapping[str, MetricFn],
                   threshold_tuner: Callable[[Estimator, np.ndarray,
                                              np.ndarray], float]
                   | None = None,
                   pmap: ParallelMap | None = None) -> list[ScreenRecord]:
    """Train every configuration across every fold; collect metrics.

    Parameters
    ----------
    model_factory:
        Builds an unfitted estimator from a config mapping.
    threshold_tuner:
        Optional post-fit sensitivity adjustment run on the tuning set
        (the paper keeps tuning-set SLA violations below 1%).
    pmap:
        Execution backend for the (configuration, fold) fan-out
        (serial unless configured). Cells are independent, so record
        order and contents match the nested serial loops exactly;
        unpicklable factories degrade gracefully to serial under the
        process backend.
    """
    if not configs:
        raise DatasetError("no configurations to screen")
    pmap = pmap if pmap is not None else default_parallel_map()
    grid = [(config, fold) for config in configs for fold in folds]
    with tracer.span("screen_configs", configs=len(configs),
                     folds=len(folds)):
        return _screen_grid(model_factory, configs, x, y, folds,
                            metric_fns, threshold_tuner, pmap, grid)


def _screen_grid(model_factory, configs, x, y, folds, metric_fns,
                 threshold_tuner, pmap, grid) -> list[ScreenRecord]:
    """Map every (config, fold) cell, optionally shard-by-shard.

    The arena (when it pays) is built once and shared across shards;
    ``REPRO_EXEC_SHARD`` caps how many cells are in flight at a time,
    so the parent never holds more than one shard of cell results
    before folding them into records. Cells are independent, so
    sharded screening is bit-identical to the single-pass map.
    """
    arena = None
    if (active_exec_config().arena and len(grid) > 1
            and pmap.uses_processes(len(grid), "hyperscreen")):
        try:
            arena = TraceArena.build(
                arrays={"x": np.asarray(x), "y": np.asarray(y)},
                objects={"model_factory": model_factory,
                         "metric_fns": dict(metric_fns),
                         "threshold_tuner": threshold_tuner})
        except (pickle.PicklingError, AttributeError, TypeError):
            METRICS.incr("arena.build_fallback")
    use_arena = arena is not None

    def _map_cells(sub):
        nonlocal use_arena
        if use_arena:
            try:
                return pmap.map(
                    functools.partial(_arena_screen_cell, arena.handle),
                    sub, stage="hyperscreen")
            except ArenaIntegrityError:
                # Corrupt/injected-corrupt segment: fall back to
                # pickled dispatch — bit-identical, just slower.
                METRICS.incr("arena.attach_fallback")
                use_arena = False
        return pmap.map(
            functools.partial(_screen_cell, model_factory=model_factory,
                              x=x, y=y, metric_fns=metric_fns,
                              threshold_tuner=threshold_tuner),
            sub, stage="hyperscreen")

    try:
        shard = active_exec_config().shard
        if shard is None or len(grid) <= shard:
            cells = _map_cells(grid)
        else:
            n_shards = -(-len(grid) // shard)
            cells = []
            for si in range(n_shards):
                sub = grid[si * shard:(si + 1) * shard]
                with tracer.span("screen_configs.shard", shard=si,
                                 shards=n_shards, cells=len(sub)):
                    cells.extend(_map_cells(sub))
                METRICS.incr("hyperscreen.shards")
    finally:
        if arena is not None:
            arena.close()
    n_folds = len(folds)
    return [
        _assemble_record(config, cells[i * n_folds:(i + 1) * n_folds],
                         metric_fns)
        for i, config in enumerate(configs)
    ]


def select_best(records: Sequence[ScreenRecord], metric: str = "pgos",
                mean_margin: float = 0.05) -> ScreenRecord:
    """The paper's selection rule: min std at near-maximal mean.

    Among configurations whose mean is within ``mean_margin`` of the
    best mean, choose the one with the smallest standard deviation.
    """
    if not records:
        raise DatasetError("no screening records")
    best_mean = max(record.mean(metric) for record in records)
    candidates = [record for record in records
                  if record.mean(metric) >= best_mean - mean_margin]
    return min(candidates, key=lambda record: record.std(metric))
