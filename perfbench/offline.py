"""Workload ``offline_pipeline``: the paper's train -> deploy pipeline.

Each run of the pipeline is one fresh interpreter
(``perfbench.offline_child``), so every run is cache-cold. The
benchmark repeats it on the process backend with ``nproc`` workers
until ``seconds`` have passed, at least three times. The operation
whose latency and throughput it reports is one train -> deploy
pipeline; throughput counts the traces it takes in per second. Every
repetition must reproduce the reference's PPW, RSV and dataset digest
exactly; a mismatch is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

from perfbench import common

#: Per-run limit for one pipeline run (about 10 s on 2 CPUs).
CHILD_TIMEOUT_S = 120
#: Timed pipelines per benchmark run, at least: the medians need three.
MIN_REPEATS = 3

OUTPUTS = ("ppw_gain_pct", "rsv_pct", "dataset_digest")


def _child(seed: int, backend: str, trace: bool, tmp: str) -> dict:
    opts = {"spawn": time.monotonic(), "seed": seed, "backend": backend,
            "workers": os.cpu_count() or 1, "trace": trace, "tmp": tmp}
    steal0, total0 = common.cpu_times()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.offline_child", json.dumps(opts)],
        cwd=common.ROOT, env=common.child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pipeline run failed ({backend}):\n"
                           f"{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    steal1, total1 = common.cpu_times()
    out["steal_share"] = ((steal1 - steal0) / (total1 - total0)
                          if total1 > total0 else 0.0)
    return out


def _reference(tmp: str) -> dict:
    """The serial-backend run every timed run must reproduce.

    It is computed once per version of its inputs and kept in
    ``.bench_cache``, keyed by a digest of ``src/``, of the pipeline
    driver (which fixes the corpus) and of the Python and numpy
    versions: PPW, RSV and the dataset digest do not depend on the
    seed, so one serial run serves every run with the same key.
    """
    digest = hashlib.sha256(json.dumps(common.environment(),
                                       sort_keys=True).encode())
    driver = common.ROOT / "perfbench" / "offline_child.py"
    for path in sorted(common.SRC.rglob("*.py")) + [driver]:
        digest.update(str(path.relative_to(common.ROOT)).encode())
        digest.update(path.read_bytes())
    cache = common.CACHE / f"offline-reference-{digest.hexdigest()[:16]}.json"
    if cache.exists():
        return json.loads(cache.read_text())
    reference = {k: v for k, v in _child(0, "serial", False, tmp).items()
                 if k in OUTPUTS + ("train_traces", "test_traces")}
    common.CACHE.mkdir(exist_ok=True)
    cache.write_text(json.dumps(reference))
    return reference


def run(seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    reference = _reference(tmp)
    timed: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    target = traced if trace else timed
    while (len(target) < MIN_REPEATS
           or time.monotonic() - start < seconds):
        if trace:
            # Untraced repetitions alternate with the traced ones, so
            # the tracing overhead compares runs of the same window.
            timed.append(_child(seed, "process", False, tmp))
        target.append(_child(seed, "process", trace, tmp))
    runs = timed + traced
    failed = sum(any(r[k] != reference[k] for k in OUTPUTS) for r in runs)
    # The operation is one train -> deploy pipeline; its latency and
    # throughput come from the untraced pipelines only.
    walls = [r["train_s"] + r["deploy_s"] for r in timed]
    traces = reference["train_traces"] + reference["test_traces"]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "throughput_per_s": statistics.median(traces / w for w in walls),
        "ppw_gain_pct": statistics.median(r["ppw_gain_pct"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    layers: dict[str, float] = {
        "pipeline.train_s": statistics.median(r["train_s"] for r in timed),
        "pipeline.deploy_s": statistics.median(r["deploy_s"]
                                               for r in timed),
        "eval.rsv_pct": statistics.median(r["rsv_pct"] for r in runs),
    }
    if trace:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(
                r["layers"][name] for r in traced)
        traced_walls = [r["train_s"] + r["deploy_s"] for r in traced]
        layers["obs.trace_overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(walls))
    layers["ops.succeeded"] = len(runs) - failed
    return {
        "attempted": len(runs),
        "failed": failed,
        "values": values,
        "layers": layers,
        "details": {
            "reference": {k: reference[k] for k in OUTPUTS},
            "runs": [{k: r[k] for k in ("setup_s", "train_s", "deploy_s",
                                        "peak_rss_mb", "steal_share")}
                     for r in runs],
            "train_traces": reference["train_traces"],
            "test_traces": reference["test_traces"],
            "test_order_head": runs[0]["test_order"][:4],
        },
    }
