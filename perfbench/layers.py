"""Metric tables: the end-to-end and per-layer metrics, with units.

``BENCHMARK.json`` lists the same names; ``perfbench/tests`` checks
the two agree. Layers are named after the ``repro`` modules.
"""

from __future__ import annotations

OFFLINE = "offline_pipeline"
SERVE_MIXED = "serve_mixed"
WORKLOADS = (OFFLINE, SERVE_MIXED)

#: name -> unit. Every workload reports every one of them; what
#: "operation" means on each workload is in perfbench/README.md.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "ppw_gain_pct": "%",
    "peak_rss_mb": "MB",
}

#: name -> unit. The end-to-end metric each should move, and on which
#: workload, is tabulated in perfbench/README.md.
PER_LAYER: dict[str, str] = {
    # The end-to-end operation split by stage (offline) and by op
    # (serve), from the untraced work of a traced run.
    "pipeline.train_s": "s",
    "pipeline.deploy_s": "s",
    "eval.rsv_pct": "%",
    "serve.decide.p50_ms": "ms",
    "serve.decide.p95_ms": "ms",
    "serve.adapt.p50_ms": "ms",
    "serve.adapt.p95_ms": "ms",
    # Layer times and counters, from the traced work.
    "workloads.generate_s": "s",
    "uarch.simulate_s": "s",
    "uarch.pairs": "count",
    "uarch.lru_hit_ratio": "ratio",
    "uarch.lru_lookups": "count",
    "telemetry.snapshot_s": "s",
    "telemetry.snapshots": "count",
    "telemetry.selection_s": "s",
    "core.labels_s": "s",
    "core.tune_s": "s",
    "core.prepare_s": "s",
    "core.infer_s": "s",
    "core.finalize_s": "s",
    "data.build_s": "s",
    "data.rows": "count",
    "ml.fit_s": "s",
    "ml.fit_rows": "count",
    "ml.predict_s": "s",
    "ml.predict_rows": "count",
    "ml.predict_calls": "count",
    "eval.score_s": "s",
    "exec.tasks": "count",
    "exec.wall_s": "s",
    "exec.busy_s": "s",
    "exec.utilization": "ratio",
    "exec.payload_bytes_per_task": "B/task",
    "exec.result_bytes_per_task": "B/task",
    "exec.pool_creates": "count",
    "exec.pool_reuses": "count",
    "exec.arena_builds": "count",
    "exec.retries": "count",
    "serve.decide.codec_us": "us",
    "serve.adapt.codec_us": "us",
    "serve.decide.execute_us": "us",
    "serve.adapt.execute_us": "us",
    "serve.decide.unattributed_us": "us",
    "serve.adapt.unattributed_us": "us",
    "serve.batch_size_mean": "count",
    "serve.flush_wait_share": "ratio",
    "serve.shed": "count",
    "serve.daemon_init_s": "s",
    "ops.succeeded": "count",
    "obs.trace_overhead_ratio": "ratio",
}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(values: dict[str, float]) -> dict:
    """The end-to-end metric block, in table order."""
    return {name: metric(values[name], unit)
            for name, unit in END_TO_END.items()}


def per_layer(values: dict[str, float]) -> dict:
    """Every per-layer metric; layers a workload does not run read 0."""
    return {name: metric(values.get(name, 0.0), unit)
            for name, unit in PER_LAYER.items()}
