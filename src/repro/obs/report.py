"""The ``--obs-report`` renderer: one profiling story per run.

Where :meth:`repro.obs.metrics.Metrics.report` dumps every raw
instrument (the plain ``--exec-report`` text), this module renders
the *derived* profile an operator actually reads: per-stage wall time
with throughput (items/s), cache effectiveness, arena payload
economics, worker-pool health, resilience events and model-inference
batch shapes — including everything merged back from process-pool
workers (counters that before PR 5 silently died with the worker).
"""

from __future__ import annotations

from repro.obs import tracer
from repro.obs.metrics import METRICS, Metrics


def render_report(metrics: Metrics | None = None) -> str:
    """Human-readable observability report from a metrics registry."""
    metrics = metrics if metrics is not None else METRICS
    snap = metrics.snapshot()
    lines = ["=== observability report ==="]

    stages = snap["stages"]
    if stages:
        lines.append("per-stage profile:")
        lines.append(f"  {'stage':<26s} {'calls':>6s} {'wall s':>9s} "
                     f"{'items/s':>10s} {'util':>6s}")
        for name, s in stages.items():
            items = snap["counters"].get(f"{name}.items", 0)
            rate = (f"{items / s['wall_s']:>10.1f}"
                    if items and s["wall_s"] > 0 else f"{'-':>10s}")
            lines.append(
                f"  {name:<26s} {s['calls']:>6d} {s['wall_s']:>9.3f} "
                f"{rate} {s['utilization'] * 100:>5.0f}%"
            )

    cache_lines = []
    for prefix, label in (("simcache", "SimCache"),
                          ("interval_lru", "interval LRU"),
                          ("arena.attach", "arena attach")):
        rate = metrics.hit_rate(prefix)
        if rate is not None:
            hits = snap["counters"].get(f"{prefix}.hit", 0)
            misses = snap["counters"].get(f"{prefix}.miss", 0)
            cache_lines.append(
                f"  {label:<26s} {rate * 100:5.1f}% "
                f"({hits} hits / {misses} misses)")
    if cache_lines:
        lines.append("cache hit ratios:")
        lines.extend(cache_lines)

    payload_lines = []
    for name in snap["counters"]:
        if not name.endswith(".payload_tasks"):
            continue
        stage = name[:-len(".payload_tasks")]
        sampled = snap["counters"][name]
        total = snap["counters"].get(f"{stage}.payload_tasks_total", sampled)
        nbytes = snap["counters"].get(f"{stage}.payload_bytes", 0)
        if sampled:
            payload_lines.append(
                f"  {stage:<26s} {nbytes / sampled:>12.0f} B/task "
                f"({total} tasks)")
    if payload_lines:
        lines.append("arena / task payloads:")
        lines.extend(payload_lines)
    arena_bytes = snap["counters"].get("arena.bytes")
    if arena_bytes:
        builds = snap["counters"].get("arena.builds", 1)
        lines.append(f"  {'arena segments':<26s} {arena_bytes:>12d} B "
                     f"({builds} builds)")

    pool_lines = []
    for counter, label in (("parallel.pool_create", "created"),
                           ("parallel.pool_reuse", "reused"),
                           ("parallel.pool_close", "closed")):
        value = snap["counters"].get(counter)
        if value:
            pool_lines.append(f"{label} {value}")
    if pool_lines or "parallel.pools_open" in snap["gauges"]:
        open_now = snap["gauges"].get("parallel.pools_open", 0)
        pool_lines.append(f"open now {open_now:g}")
        lines.append(f"worker pools: {', '.join(pool_lines)}")

    resilience = metrics.resilience()
    if resilience:
        lines.append("resilience events (incl. merged from workers):")
        for name, value in resilience.items():
            lines.append(f"  {name:<30s} {value}")

    requests = snap["counters"].get("serve.requests", 0)
    if requests:
        executed = sum(snap["stages"].get(f"serve.{op}.execute",
                                          {}).get("calls", 0)
                       for op in ("adapt", "decide"))
        shed = snap["counters"].get("serve.shed", 0)
        lines.append(
            f"serving: {requests} requests, {executed} executed, "
            f"{shed} shed")
        for op in ("adapt", "decide"):
            parts = []
            for stage in ("decode", "validate", "execute", "send"):
                stat = snap["stages"].get(f"serve.{op}.{stage}")
                if stat and stat["calls"]:
                    mean_us = stat["wall_s"] / stat["calls"] * 1e6
                    parts.append(f"{stage} {mean_us:.0f}us")
            if parts:
                lines.append(f"  {op + ' stages (mean)':<26s} "
                             f"{', '.join(parts)}")
        serve_resilience = []
        for counter, label in (
                ("serve.watchdog_trips", "watchdog trips"),
                ("serve.breaker_trips", "breaker trips"),
                ("serve.breaker_shed", "breaker shed"),
                ("serve.serial_requests", "serial degrades"),
                ("serve.dedup_hits", "dedup hits"),
                ("serve.abandoned_results_discarded", "late discards"),
                ("serve.checkpoint_loads", "checkpoint loads"),
                ("serve.checkpoint_saves", "checkpoint saves"),
                ("serve.checkpoint_rejected", "checkpoint rejects")):
            value = snap["counters"].get(counter)
            if value:
                serve_resilience.append(f"{label} {value}")
        if serve_resilience:
            lines.append(
                f"  serve resilience: {', '.join(serve_resilience)}")

    memo_hits = snap["counters"].get("adaptive_prepare.resident_hit", 0)
    memo_misses = snap["counters"].get("adaptive_prepare.resident_miss", 0)
    if memo_hits or memo_misses:
        entries = snap["gauges"].get("adaptive_prepare.resident_entries", 0)
        lines.append(
            f"resident prepared-run memo: {memo_hits} hits / "
            f"{memo_misses} misses, {entries:g} entries")

    online = []
    for counter, label in (
            ("online.samples", "samples"),
            ("online.drift_checks", "drift checks"),
            ("online.drift_signals", "drift signals"),
            ("online.retrains", "retrains"),
            ("online.promotions", "promotions"),
            ("online.rejections", "rejections"),
            ("online.swaps", "swaps"),
            ("online.learner_errors", "learner errors")):
        value = snap["counters"].get(counter)
        if value:
            online.append(f"{label} {value}")
    if online:
        lines.append(f"continual adaptation: {', '.join(online)}")

    if snap["histograms"]:
        lines.append("batch shapes:")
        for name, h in snap["histograms"].items():
            lines.append(
                f"  {name:<26s} n={h['count']} mean={h['mean']:.1f} "
                f"min={h['min']:g} max={h['max']:g}")

    merged = snap["counters"].get("obs.worker_merges", 0)
    if merged:
        lines.append(f"worker metric deltas merged: {merged}")

    path = tracer.last_trace_path()
    if path:
        lines.append(f"trace file: {path}")

    if len(lines) == 1:
        lines.append("(nothing recorded)")
    return "\n".join(lines)
