"""Span probes on the program's layer boundaries, and METRICS readers.

``install()`` wraps, from outside, the functions at which work enters
each ``repro`` layer. ``layer_metrics()`` turns the recorded spans
into per-layer self times and work counts. ``registry_metrics()``
reads the counters and stage records the program already keeps in
``repro.obs.METRICS`` (worker-side values are merged there by the
program itself).
"""

from __future__ import annotations

from perfbench.spans import counts, self_times, wrap

#: Span name -> per-layer time metric fed by its self time.
SPAN_METRICS = {
    "workloads.generate": "workloads.generate_s",
    "uarch.simulate": "uarch.simulate_s",
    "telemetry.snapshot": "telemetry.snapshot_s",
    "telemetry.selection": "telemetry.selection_s",
    "core.labels": "core.labels_s",
    "core.tune": "core.tune_s",
    "core.prepare": "core.prepare_s",
    "core.infer": "core.infer_s",
    "core.finalize": "core.finalize_s",
    "data.build": "data.build_s",
    "ml.fit": "ml.fit_s",
    "ml.predict": "ml.predict_s",
    "eval.score": "eval.score_s",
}


def _rows_x(args, kwargs, result) -> int:
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return len(x)


def _rows_dataset(args, kwargs, result) -> int:
    return len(result.y)


def install() -> None:
    """Wrap each layer's entry points (idempotent per process)."""
    if getattr(install, "done", False):
        return
    install.done = True
    from repro.core import adaptive_cpu, labels, pipeline
    from repro.data import builders
    from repro.eval import runner
    from repro.exec import parallel
    from repro.ml import forest, tree
    from repro.telemetry import collector
    from repro.uarch import interval_model

    model = interval_model.IntervalModel
    wrap(model, "simulate", "uarch.simulate")
    wrap(model, "simulate_batch", "uarch.simulate")
    wrap(collector.TelemetryCollector, "snapshot", "telemetry.snapshot")
    wrap(pipeline, "select_counters", "telemetry.selection")
    wrap(labels, "gating_labels", "core.labels")
    wrap(pipeline, "tune_threshold_for_rsv", "core.tune")
    # The deploy sub-stages the program itself names deploy.prepare /
    # deploy.infer / deploy.finalize in its own tracer.
    cpu = adaptive_cpu.AdaptiveCPU
    wrap(cpu, "_prepare", "core.prepare")
    wrap(cpu, "_infer_many", "core.infer")
    wrap(cpu, "_finalize", "core.finalize")
    wrap(builders, "dataset_from_traces", "data.build")
    wrap(builders, "build_mode_dataset", "data.build", rows=_rows_dataset)
    wrap(forest.RandomForestClassifier, "fit", "ml.fit", rows=_rows_x)
    wrap(tree.DecisionTreeClassifier, "fit", "ml.fit")
    wrap(forest.RandomForestClassifier, "predict_proba", "ml.predict",
         rows=_rows_x)
    wrap(runner, "evaluate_predictor", "eval.score")
    # Not a reported layer: carves the parent's wait for pool workers
    # out of the self time of the layer that dispatched the work.
    for method in ("map", "map_chunks"):
        wrap(parallel.ParallelMap, method, "exec.map")


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts from recorded spans."""
    own = self_times(spans)
    n = counts(spans)
    out = {metric: own.get(name, 0.0)
           for name, metric in SPAN_METRICS.items()}
    out["telemetry.snapshots"] = n.get("telemetry.snapshot", (0, 0))[0]
    out["data.rows"] = n.get("data.build", (0, 0))[1]
    out["ml.fit_rows"] = n.get("ml.fit", (0, 0))[1]
    out["ml.predict_calls"], out["ml.predict_rows"] = \
        n.get("ml.predict", (0, 0))
    return out


def registry_snapshot() -> dict:
    from repro.obs.metrics import METRICS
    return METRICS.snapshot()


def registry_metrics(before: dict, after: dict) -> dict[str, float]:
    """uarch and exec metrics from the change in ``METRICS``."""

    counters = after.get("counters", {})
    old_counters = before.get("counters", {})
    stages = after.get("stages", {})
    old_stages = before.get("stages", {})

    def count(name: str) -> int:
        return counters.get(name, 0) - old_counters.get(name, 0)

    hit, miss = count("interval_lru.hit"), count("interval_lru.miss")
    out = {
        "uarch.pairs": miss,
        "uarch.lru_lookups": hit + miss,
        "uarch.lru_hit_ratio": hit / (hit + miss) if hit + miss else 0.0,
        "exec.pool_creates": count("parallel.pool_create"),
        "exec.pool_reuses": count("parallel.pool_reuse"),
        "exec.arena_builds": count("arena.builds"),
        "exec.retries": count("parallel.retries"),
    }
    # Pool-dispatched stages: ParallelMap counts each stage's items
    # and, when it crosses a process boundary, samples payload bytes.
    tasks = payload = payload_tasks = result = result_tasks = 0
    wall = busy = capacity = 0.0
    for name in stages:
        if count(f"{name}.payload_tasks") <= 0:
            continue
        tasks += count(f"{name}.payload_tasks_total")
        payload += count(f"{name}.payload_bytes")
        payload_tasks += count(f"{name}.payload_tasks")
        result += count(f"{name}.result_bytes")
        result_tasks += count(f"{name}.result_tasks")
        new, old = stages[name], old_stages.get(name, {})
        wall += new.get("wall_s", 0.0) - old.get("wall_s", 0.0)
        busy += new.get("busy_s", 0.0) - old.get("busy_s", 0.0)
        capacity += new.get("capacity_s", 0.0) - old.get("capacity_s", 0.0)
    out.update({
        "exec.tasks": tasks,
        "exec.wall_s": wall,
        "exec.busy_s": busy,
        "exec.utilization": busy / capacity if capacity > 0 else 0.0,
        "exec.payload_bytes_per_task": (payload / payload_tasks
                                        if payload_tasks else 0.0),
        "exec.result_bytes_per_task": (result / result_tasks
                                       if result_tasks else 0.0),
    })
    return out


__all__ = ["SPAN_METRICS", "install", "layer_metrics", "registry_metrics",
           "registry_snapshot"]
