"""Performance baseline for the execution engine.

Times the dataset-scale hot paths — trace generation, serial vs
parallel ``evaluate_predictor``, cold- vs warm-cache runs, trace-arena
dispatch, the SoA cycle scoreboard against its reference loop, the
rank-keyed CART fit against the float-sort fit, simcache verification
and tracing overhead — and writes a
machine-readable ``BENCH_perf.json`` at the repo root so future PRs
have a perf trajectory to compare against.

Run standalone (no pytest session fixtures needed)::

    PYTHONPATH=src python benchmarks/bench_perf_baseline.py

``--quick`` is the CI perf smoke: on a small corpus it guards arena
payload bytes, the SoA cycle kernel, the rank-keyed tree fit (bit-
identical to the float-sort reference and not slower), simcache
verification overhead
and tracing overhead, and exits non-zero on a regression. It also
fails when any recorded ``BENCH_perf.json`` section's keys diverge
from what the current benchmarks emit (a stale file that was never
regenerated). It writes nothing unless ``--output`` names a file.

``--scale`` runs the large-corpus tier: a ≥10^5-trace dataset build,
sharded with shared-memory result return under a hard peak-RSS budget,
against the unsharded pickled path — asserted bit-identical, with
bytes-returned-per-task and shard throughput merged into the ``scale``
section of ``BENCH_perf.json`` (``--scale-smoke`` relaxes the guards
for CI's small-corpus run and writes only to an explicit ``--output``).

Scale knobs: ``--workers`` (default 4), ``--apps``/``--intervals`` to
grow the corpus. The deployed predictor is a fixed-probability stub so
the measurement isolates the simulation/evaluation pipeline from model
training.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.predictor import DualModePredictor
from repro.data.builders import build_mode_dataset
from repro.eval.runner import evaluate_predictor
from repro.exec import ParallelMap, SimCache, close_pools
from repro.obs.metrics import METRICS
from repro.ml.base import Estimator
from repro.ml.tree import DecisionTreeClassifier
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.core_model import ClusteredCoreModel
from repro.uarch.isa import synthesize_uops
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application
from repro.workloads.phases import sample_phase_instance

REPO_ROOT = Path(__file__).resolve().parent.parent

_FAMILIES = ("pointer_chase", "compute_fp", "store_burst", "branchy",
             "bandwidth", "compute_int", "dep_chain", "media")

#: The keys every ``BENCH_perf.json`` section must carry, exactly.
#: ``run_quick`` fails when a *recorded* section's keys diverge from
#: this table (a stale file: the benchmark's emission changed and the
#: numbers were never regenerated) and when a *freshly computed*
#: section diverges (a stale table: the emission changed and this
#: inventory was not updated). Either way: regenerate, then commit.
SECTION_KEYS: dict[str, frozenset] = {
    "evaluate_predictor": frozenset({
        "serial_s", "parallel_s", "backend", "workers", "single_cpu",
        "speedup", "parallel_vs_serial_ratio"}),
    "simcache": frozenset({
        "evaluate_cold_s", "evaluate_warm_s", "evaluate_speedup",
        "dataset_cold_s", "dataset_warm_s", "dataset_speedup"}),
    "arena": frozenset({
        "workers", "payload_pickled_bytes_per_task",
        "payload_arena_bytes_per_task", "payload_reduction",
        "pool_fresh_s", "pool_persistent_s", "pool_reuse_speedup",
        "repeats"}),
    "cycle_kernel": frozenset({
        "n_uops", "soa_s", "reference_s", "speedup"}),
    "tree_fit": frozenset({
        "n_rows", "n_features", "n_trees", "keyed_s", "reference_s",
        "speedup"}),
    "resilience": frozenset({
        "verify_on_s", "verify_off_s", "overhead_ratio"}),
    "observability": frozenset({
        "span_iters", "disabled_span_ns", "untraced_s", "traced_s",
        "overhead_ratio"}),
    "scale": frozenset({
        "n_traces", "intervals_per_trace", "n_samples", "shard_traces",
        "n_shards", "workers", "chunk_traces", "generation_s",
        "sharded_shm_build_s", "unsharded_pickled_build_s",
        "shard_throughput_traces_per_s", "sharded_peak_rss_mb",
        "unsharded_peak_rss_mb", "rss_budget_mb",
        "result_bytes_per_task_shm", "result_bytes_per_task_pickled",
        "result_reduction", "bit_identical"}),
}


def _merge_bench_doc(output: Path | None, sections: dict) -> Path:
    """Fold ``sections`` into the perf JSON, preserving other tiers.

    Every writer (full run, ``--scale``) merges into
    the same document instead of overwriting it, so the slow tiers'
    numbers survive a re-run of the cheap ones.
    """
    output = output or (REPO_ROOT / "BENCH_perf.json")
    doc = {"schema": 1}
    if output.exists():
        doc = json.loads(output.read_text())
    doc.update(sections)
    output.write_text(json.dumps(doc, indent=2) + "\n")
    return output


class _ConstModel(Estimator):
    """Fixed-probability stub model (picklable for process pools)."""

    def __init__(self, prob: float) -> None:
        self.prob = prob
        self.decision_threshold = 0.5

    def fit(self, x, y):
        return self

    def predict_proba(self, x):
        return np.full(x.shape[0], self.prob)


def _predictor() -> DualModePredictor:
    return DualModePredictor(
        name="bench_const",
        models={Mode.HIGH_PERF: _ConstModel(0.7),
                Mode.LOW_POWER: _ConstModel(0.4)},
        counter_ids=np.array([0, 1, 2, 3]),
        granularity_factor=1,
    )


def _generate_corpus(n_apps: int, workloads_per_app: int,
                     intervals: int, seed: int = 11):
    traces = []
    for i in range(n_apps):
        family = _FAMILIES[i % len(_FAMILIES)]
        app = generate_application(f"perfapp{i}", "bench",
                                   {family: 0.7, "balanced": 0.3},
                                   seed=seed + i)
        for w in range(workloads_per_app):
            traces.append(app.workload(w).trace(intervals, 0))
    return traces


def _timed(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


@contextlib.contextmanager
def _env(var: str, value: str):
    """Temporarily pin one environment variable."""
    saved = os.environ.get(var)
    os.environ[var] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = saved


def _bench_cycle_kernel(n_uops: int = 20000) -> dict:
    """SoA scoreboard vs reference loop on one synthetic stream."""
    rng = np.random.default_rng(23)
    phase = sample_phase_instance("balanced_mixed", rng)
    stream = synthesize_uops(phase, n_uops, seed=23)
    core = ClusteredCoreModel()
    soa_s, soa = _timed(lambda: core._execute_soa(stream))
    ref_s, ref = _timed(lambda: core._execute_reference(stream))
    assert soa == ref, "SoA cycle kernel diverged from reference"
    speedup = ref_s / soa_s if soa_s > 0 else float("inf")
    print(f"cycle kernel ({n_uops} uops): soa {soa_s:.3f}s, "
          f"reference {ref_s:.3f}s ({speedup:.2f}x)")
    return {
        "n_uops": n_uops,
        "soa_s": round(soa_s, 4),
        "reference_s": round(ref_s, 4),
        "speedup": round(speedup, 3),
    }


def _bench_tree_fit(n_rows: int = 20000, n_features: int = 12,
                    n_trees: int = 8) -> dict:
    """Rank-keyed CART fit vs the float-sort reference fit.

    Forest-shaped work: ``n_trees`` depth-8 trees with ``sqrt``
    feature subsampling, each on its own bootstrap sample of a
    counter-like matrix (quantised values, so ties are common). Every
    tree's node arrays must equal the reference's bit for bit.
    """
    rng = np.random.default_rng(29)
    x = np.round(rng.lognormal(size=(n_rows, n_features)), 3)
    y = (x[:, 0] * x[:, 1] + rng.normal(size=n_rows) > 1.2).astype(int)
    samples = [rng.integers(0, n_rows, size=n_rows)
               for _ in range(n_trees)]

    def fit_all(method: str) -> list[DecisionTreeClassifier]:
        return [getattr(DecisionTreeClassifier(max_features="sqrt",
                                               seed=t), method)(
                    x[idx], y[idx])
                for t, idx in enumerate(samples)]

    keyed_s, keyed = _timed(lambda: fit_all("fit"))
    ref_s, ref = _timed(lambda: fit_all("_fit_reference"))
    for a, b in zip(keyed, ref):
        for name in ("feature_", "threshold_", "left_", "right_",
                     "value_"):
            assert (getattr(a, name).tobytes()
                    == getattr(b, name).tobytes()), \
                "rank-keyed tree fit diverged from reference"
    speedup = ref_s / keyed_s if keyed_s > 0 else float("inf")
    print(f"tree fit ({n_trees} trees, {n_rows}x{n_features}): keyed "
          f"{keyed_s:.3f}s, reference {ref_s:.3f}s ({speedup:.2f}x)")
    return {
        "n_rows": n_rows,
        "n_features": n_features,
        "n_trees": n_trees,
        "keyed_s": round(keyed_s, 4),
        "reference_s": round(ref_s, 4),
        "speedup": round(speedup, 3),
    }


def _payload_counters(stage: str) -> tuple[int, int]:
    return (METRICS.count(f"{stage}.payload_bytes"),
            METRICS.count(f"{stage}.payload_tasks"))


def _bench_arena(traces, workers: int = 2, repeats: int = 3) -> dict:
    """Arena vs pickled dispatch, and warm-pool vs pool-per-call.

    Both comparisons run the same process-backend deployment; only the
    arena kill-switch / pool persistence differ, and both variants are
    asserted bit-identical before any number is reported. Payload
    bytes per task come from the engine's own sampling counters
    (``adaptive_prepare.payload_bytes`` / ``.payload_tasks``).
    """
    predictor = _predictor()
    stage = "adaptive_prepare"

    def _deploy(arena_on: bool, persistent: bool):
        with _env("REPRO_EXEC_ARENA", "1" if arena_on else "0"):
            pmap = ParallelMap("process", n_workers=workers,
                               persistent=persistent)
            return _timed(lambda: evaluate_predictor(
                predictor, traces, collector=TelemetryCollector(),
                pmap=pmap))

    bytes0, tasks0 = _payload_counters(stage)
    _, pickled_suite = _deploy(False, True)
    bytes1, tasks1 = _payload_counters(stage)
    _, arena_suite = _deploy(True, True)
    bytes2, tasks2 = _payload_counters(stage)
    assert pickled_suite.mean_ppw_gain == arena_suite.mean_ppw_gain, \
        "arena-backed run diverged from pickled dispatch"
    pickled_bpt = (bytes1 - bytes0) / max(1, tasks1 - tasks0)
    arena_bpt = (bytes2 - bytes1) / max(1, tasks2 - tasks1)
    ratio = pickled_bpt / arena_bpt if arena_bpt > 0 else float("inf")
    print(f"task payload: pickled {pickled_bpt:.0f} B/task, "
          f"arena {arena_bpt:.0f} B/task ({ratio:.1f}x smaller)")

    def _repeated(persistent: bool) -> float:
        close_pools()  # start both variants pool-cold
        total = 0.0
        for _ in range(repeats):
            elapsed, _suite = _deploy(True, persistent)
            total += elapsed
        return total

    fresh_s = _repeated(False)
    warm_s = _repeated(True)
    close_pools()
    reuse_speedup = fresh_s / warm_s if warm_s > 0 else float("inf")
    print(f"pool lifecycle ({repeats} deployments): fresh pools "
          f"{fresh_s:.3f}s, persistent pool {warm_s:.3f}s "
          f"({reuse_speedup:.2f}x)")
    return {
        "workers": workers,
        "payload_pickled_bytes_per_task": round(pickled_bpt, 1),
        "payload_arena_bytes_per_task": round(arena_bpt, 1),
        "payload_reduction": round(ratio, 2),
        "pool_fresh_s": round(fresh_s, 4),
        "pool_persistent_s": round(warm_s, 4),
        "pool_reuse_speedup": round(reuse_speedup, 3),
        "repeats": repeats,
    }


def _bench_obs(traces, span_iters: int = 200_000) -> dict:
    """Observability overhead: tracing must be (nearly) free.

    Two measurements: the per-call cost of a disabled ``tracer.span()``
    — one env-cached branch plus a shared null singleton, budgeted in
    nanoseconds — and a traced vs untraced warm deployment, asserted
    bit-identical before the ratio is reported.
    """
    from repro.obs import tracer

    tracer.refresh()
    assert not tracer.enabled()
    span = tracer.span
    start = time.perf_counter()
    for _ in range(span_iters):
        with span("bench.noop"):
            pass
    disabled_ns = (time.perf_counter() - start) / span_iters * 1e9

    predictor = _predictor()

    def _deploy():
        return _timed(lambda: evaluate_predictor(
            predictor, traces, collector=TelemetryCollector(),
            pmap=ParallelMap("serial")))

    _deploy()  # equalise one-time costs (imports, allocator warm-up)
    plain_s, plain_suite = _deploy()
    fd, trace_path = tempfile.mkstemp(prefix="repro-obs-bench-",
                                      suffix=".json")
    os.close(fd)
    try:
        with _env("REPRO_TRACE", trace_path):
            with tracer.trace("bench.obs"):
                traced_s, traced_suite = _deploy()
    finally:
        tracer.refresh()
        os.unlink(trace_path)
    assert plain_suite.mean_ppw_gain == traced_suite.mean_ppw_gain, \
        "traced run diverged from untraced"
    ratio = traced_s / plain_s if plain_s > 0 else 1.0
    print(f"obs: disabled span() {disabled_ns:.0f} ns/call; traced "
          f"evaluate {traced_s:.3f}s vs untraced {plain_s:.3f}s "
          f"({(ratio - 1) * 100:+.1f}%)")
    return {
        "span_iters": span_iters,
        "disabled_span_ns": round(disabled_ns, 1),
        "untraced_s": round(plain_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead_ratio": round(ratio, 4),
    }


def run(workers: int = 4, n_apps: int = 8, workloads_per_app: int = 3,
        intervals: int = 240,
        output: Path | None = None) -> dict:
    """Execute every measurement and write ``BENCH_perf.json``."""
    predictor = _predictor()

    gen_s, traces = _timed(
        lambda: _generate_corpus(n_apps, workloads_per_app, intervals))
    print(f"trace generation: {len(traces)} traces in {gen_s:.3f}s")

    # Serial vs parallel deployment evaluation. Fresh collectors keep
    # the in-process LRU from leaking work between measurements.
    serial_s, serial_suite = _timed(lambda: evaluate_predictor(
        predictor, traces, collector=TelemetryCollector(),
        pmap=ParallelMap("serial")))
    parallel_s, parallel_suite = _timed(lambda: evaluate_predictor(
        predictor, traces, collector=TelemetryCollector(),
        pmap=ParallelMap("process", n_workers=workers)))
    assert serial_suite.mean_ppw_gain == parallel_suite.mean_ppw_gain, \
        "parallel run diverged from serial"
    cpus = os.cpu_count() or 1
    ratio = serial_s / parallel_s if parallel_s > 0 else float("inf")
    if cpus > 1:
        # A measured multi-core speedup is only meaningful when there
        # is more than one core to run on.
        print(f"evaluate_predictor: serial {serial_s:.3f}s, "
              f"{workers}-worker process {parallel_s:.3f}s "
              f"({ratio:.2f}x measured speedup, {cpus} CPUs visible)")
    else:
        print(f"evaluate_predictor: serial {serial_s:.3f}s, "
              f"{workers}-worker process {parallel_s:.3f}s "
              f"(single CPU visible: {ratio:.2f}x is pool overhead, "
              f"not a speedup)")

    # Cold vs warm snapshot and dataset cache, same corpus.
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-simcache-bench-"))
    try:
        def _cached_collector():
            return TelemetryCollector(simcache=SimCache(cache_dir))

        cold_s, cold_suite = _timed(lambda: evaluate_predictor(
            predictor, traces, collector=_cached_collector(),
            pmap=ParallelMap("serial")))
        warm_s, warm_suite = _timed(lambda: evaluate_predictor(
            predictor, traces, collector=_cached_collector(),
            pmap=ParallelMap("serial")))
        assert warm_suite.mean_ppw_gain == serial_suite.mean_ppw_gain, \
            "cached run diverged from uncached"
        cache_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
        print(f"evaluate_predictor cache: cold {cold_s:.3f}s, "
              f"warm {warm_s:.3f}s ({cache_speedup:.2f}x)")

        # Dataset building hits the cache at whole-matrix granularity,
        # so a warm build skips simulation, telemetry and labelling.
        counter_ids = list(range(12))
        ds_cold_s, _ = _timed(lambda: build_mode_dataset(
            traces, Mode.LOW_POWER, counter_ids,
            collector=_cached_collector()))
        ds_warm_s, _ = _timed(lambda: build_mode_dataset(
            traces, Mode.LOW_POWER, counter_ids,
            collector=_cached_collector()))
        ds_speedup = ds_cold_s / ds_warm_s if ds_warm_s > 0 else float("inf")
        print(f"build_mode_dataset cache: cold {ds_cold_s:.3f}s, "
              f"warm {ds_warm_s:.3f}s ({ds_speedup:.2f}x)")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    arena = _bench_arena(traces, workers=min(2, workers))
    kernel = _bench_cycle_kernel()
    tree_fit = _bench_tree_fit()
    resilience = _bench_resilience(traces)
    obs = _bench_obs(traces)

    payload = {
        "schema": 1,
        "cpus_visible": os.cpu_count(),
        "corpus": {
            "n_traces": len(traces),
            "intervals_per_trace": intervals,
            "n_apps": n_apps,
        },
        "trace_generation_s": round(gen_s, 4),
        "evaluate_predictor": {
            "serial_s": round(serial_s, 4),
            "parallel_s": round(parallel_s, 4),
            "backend": "process",
            "workers": workers,
            # A real measured speedup only exists with >1 CPU; on a
            # single-CPU host the serial/parallel ratio is recorded
            # separately so it cannot be read as a speedup claim.
            "single_cpu": cpus == 1,
            "speedup": round(ratio, 3) if cpus > 1 else None,
            "parallel_vs_serial_ratio": round(ratio, 3),
        },
        "simcache": {
            "evaluate_cold_s": round(cold_s, 4),
            "evaluate_warm_s": round(warm_s, 4),
            "evaluate_speedup": round(cache_speedup, 3),
            "dataset_cold_s": round(ds_cold_s, 4),
            "dataset_warm_s": round(ds_warm_s, 4),
            "dataset_speedup": round(ds_speedup, 3),
        },
        "arena": arena,
        "cycle_kernel": kernel,
        "tree_fit": tree_fit,
        "resilience": resilience,
        "observability": obs,
        "exec_stats": METRICS.snapshot(),
    }
    output = _merge_bench_doc(output, payload)
    print(f"wrote {output}")
    return payload


def _bench_resilience(traces, repeats: int = 3,
                      loads_per_sample: int = 5) -> dict:
    """Fault-free cost of the integrity layer.

    Times warm cached dataset loads with per-entry checksum
    verification on (the default) vs off (``REPRO_SIMCACHE_VERIFY=0``);
    min-of-repeats over multi-load samples to stay above timer noise.
    The retry/timeout bookkeeping has no toggle because its fault-free
    cost is a handful of integer compares per chunk — verification is
    the only resilience feature that touches every cached byte.
    """
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-resil-bench-"))
    counter_ids = list(range(12))
    try:
        collector = TelemetryCollector(simcache=SimCache(cache_dir))
        build_mode_dataset(traces, Mode.LOW_POWER, counter_ids,
                           collector=collector)

        def _sample() -> float:
            start = time.perf_counter()
            for _ in range(loads_per_sample):
                build_mode_dataset(traces, Mode.LOW_POWER, counter_ids,
                                   collector=collector)
            return time.perf_counter() - start

        with _env("REPRO_SIMCACHE_VERIFY", "1"):
            verify_on = min(_sample() for _ in range(repeats))
        with _env("REPRO_SIMCACHE_VERIFY", "0"):
            verify_off = min(_sample() for _ in range(repeats))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    ratio = verify_on / verify_off if verify_off > 0 else 1.0
    print(f"simcache verify overhead: on {verify_on:.4f}s, "
          f"off {verify_off:.4f}s ({(ratio - 1) * 100:+.1f}%)")
    return {
        "verify_on_s": round(verify_on, 4),
        "verify_off_s": round(verify_off, 4),
        "overhead_ratio": round(ratio, 4),
    }


def _rss_bytes() -> int:
    """Current resident set size of this process (Linux)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class _RssSampler:
    """Background peak-RSS sampler for one benchmark phase."""

    def __init__(self, interval_s: float = 0.02) -> None:
        self._interval = interval_s
        self._stop = threading.Event()
        self._peak = _rss_bytes()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        while not self._stop.is_set():
            self._peak = max(self._peak, _rss_bytes())
            self._stop.wait(self._interval)

    def __enter__(self) -> "_RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> bool:
        self._stop.set()
        self._thread.join()
        self._peak = max(self._peak, _rss_bytes())
        return False

    @property
    def peak_mb(self) -> float:
        return self._peak / 2 ** 20


def _result_counters(stage: str) -> tuple[int, int]:
    return (METRICS.count(f"{stage}.result_bytes"),
            METRICS.count(f"{stage}.result_tasks"))


def run_scale(n_traces: int = 100_000, intervals: int = 24,
              shard: int = 5_000, workers: int = 2, chunk: int = 50,
              rss_budget_mb: float = 4096.0,
              output: Path | None = None,
              full_guards: bool = True) -> tuple[dict, list[str]]:
    """The ``--scale`` tier: a ≥10^5-trace dataset build, two ways.

    Builds the same corpus once sharded with shared-memory result
    return (``REPRO_EXEC_SHARD`` + ``REPRO_EXEC_SHMRES=1``) under a
    hard peak-RSS budget, then once unsharded over pickled returns,
    asserts bitwise identity, and records bytes-returned-per-task for
    both paths plus shard throughput into the ``scale`` section of
    ``BENCH_perf.json``. The chunk size is pinned so per-task result
    bytes are directly comparable between the two runs.

    ``full_guards=False`` (the CI scale smoke, which runs a far
    smaller corpus) only guards that shm results are smaller than
    pickled ones, and records its section only in an explicit
    ``output``; the full tier also enforces the RSS budget and the
    ≥10x per-task reduction.
    """
    counter_ids = list(range(8))
    stage = "build_dataset"
    n_apps = 8
    gen_s, traces = _timed(lambda: _generate_corpus(
        n_apps, -(-n_traces // n_apps), intervals))
    traces = traces[:n_traces]
    n_shards = -(-len(traces) // shard)
    print(f"scale corpus: {len(traces)} traces x {intervals} intervals "
          f"generated in {gen_s:.3f}s")

    def _build():
        return build_mode_dataset(
            traces, Mode.LOW_POWER, counter_ids,
            collector=TelemetryCollector(),
            pmap=ParallelMap("process", n_workers=workers,
                             chunk_size=chunk))

    close_pools()
    bytes0, tasks0 = _result_counters(stage)
    with _env("REPRO_EXEC_SHMRES", "1"), \
            _env("REPRO_EXEC_SHARD", str(shard)), \
            _RssSampler() as shm_rss:
        shm_s, ds_shm = _timed(_build)
    bytes1, tasks1 = _result_counters(stage)
    close_pools()
    with _env("REPRO_EXEC_SHMRES", "0"), _env("REPRO_EXEC_SHARD", ""), \
            _RssSampler() as pickled_rss:
        pickled_s, ds_pickled = _timed(_build)
    bytes2, tasks2 = _result_counters(stage)
    close_pools()

    failures: list[str] = []
    for field in ("x", "y", "groups", "workloads", "traces"):
        a = getattr(ds_shm, field)
        b = getattr(ds_pickled, field)
        if a.dtype != b.dtype or not np.array_equal(a, b):
            failures.append(
                f"sharded shm build diverged from unsharded pickled "
                f"build on {field!r}")
    shm_bpt = (bytes1 - bytes0) / max(1, tasks1 - tasks0) / chunk
    pickled_bpt = (bytes2 - bytes1) / max(1, tasks2 - tasks1) / chunk
    reduction = pickled_bpt / shm_bpt if shm_bpt > 0 else float("inf")
    throughput = len(traces) / shm_s if shm_s > 0 else float("inf")
    print(f"scale build ({n_shards} shards of {shard}): shm "
          f"{shm_s:.1f}s ({throughput:.0f} traces/s, peak RSS "
          f"{shm_rss.peak_mb:.0f} MB); unsharded pickled "
          f"{pickled_s:.1f}s (peak RSS {pickled_rss.peak_mb:.0f} MB)")
    print(f"result return: shm {shm_bpt:.0f} B/task, pickled "
          f"{pickled_bpt:.0f} B/task ({reduction:.1f}x smaller)")

    if shm_bpt >= pickled_bpt:
        failures.append(
            f"shm result payload not smaller than pickled "
            f"({shm_bpt:.0f} vs {pickled_bpt:.0f} B/task)")
    if full_guards:
        if reduction < 10.0:
            failures.append(
                f"per-task result bytes reduced only {reduction:.1f}x "
                f"(budget: >=10x)")
        if shm_rss.peak_mb > rss_budget_mb:
            failures.append(
                f"sharded build peak RSS {shm_rss.peak_mb:.0f} MB "
                f"exceeds the {rss_budget_mb:.0f} MB budget")

    section = {
        "n_traces": len(traces),
        "intervals_per_trace": intervals,
        "n_samples": int(ds_shm.n_samples),
        "shard_traces": shard,
        "n_shards": n_shards,
        "workers": workers,
        "chunk_traces": chunk,
        "generation_s": round(gen_s, 3),
        "sharded_shm_build_s": round(shm_s, 3),
        "unsharded_pickled_build_s": round(pickled_s, 3),
        "shard_throughput_traces_per_s": round(throughput, 1),
        "sharded_peak_rss_mb": round(shm_rss.peak_mb, 1),
        "unsharded_peak_rss_mb": round(pickled_rss.peak_mb, 1),
        "rss_budget_mb": round(rss_budget_mb, 1),
        "result_bytes_per_task_shm": round(shm_bpt, 1),
        "result_bytes_per_task_pickled": round(pickled_bpt, 1),
        "result_reduction": round(reduction, 2),
        "bit_identical": not any("diverged" in f for f in failures),
    }
    if full_guards or output is not None:
        output = _merge_bench_doc(output, {"scale": section})
        print(f"wrote scale section to {output}")
    for failure in failures:
        print(f"SCALE REGRESSION: {failure}")
    return section, failures


def _bench_parallel_quick(traces, workers: int = 2) -> dict | None:
    """Measured multi-core ``evaluate_predictor`` speedup, CI-sized.

    The full ``run()`` records this section, but full runs mostly
    happen on single-CPU containers where ``speedup`` is honestly
    ``null``. When the quick tier lands on a multi-core host it
    re-measures serial vs process-parallel evaluation and refreshes
    the section with a *real* speedup; on one CPU it returns ``None``
    and the recorded ``single_cpu: true`` annotation stands.
    """
    cpus = os.cpu_count() or 1
    if cpus == 1:
        print("evaluate_predictor: single CPU visible; keeping the "
              "recorded single_cpu annotation (no measured speedup)")
        return None
    predictor = _predictor()
    serial_s, serial_suite = _timed(lambda: evaluate_predictor(
        predictor, traces, collector=TelemetryCollector(),
        pmap=ParallelMap("serial")))
    parallel_s, parallel_suite = _timed(lambda: evaluate_predictor(
        predictor, traces, collector=TelemetryCollector(),
        pmap=ParallelMap("process", n_workers=workers)))
    assert serial_suite.mean_ppw_gain == parallel_suite.mean_ppw_gain, \
        "parallel run diverged from serial"
    ratio = serial_s / parallel_s if parallel_s > 0 else float("inf")
    print(f"evaluate_predictor: serial {serial_s:.3f}s, "
          f"{workers}-worker process {parallel_s:.3f}s "
          f"({ratio:.2f}x measured on {cpus} CPUs)")
    return {
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "backend": "process",
        "workers": workers,
        "single_cpu": False,
        "speedup": round(ratio, 3),
        "parallel_vs_serial_ratio": round(ratio, 3),
    }


def _staleness_failures(computed: dict) -> list[str]:
    """Cross-check section keys: emissions vs SECTION_KEYS vs the file."""
    failures = []
    for name, section in computed.items():
        if set(section) != SECTION_KEYS[name]:
            failures.append(
                f"benchmark section {name!r} now emits keys that "
                f"diverge from SECTION_KEYS — update the table and "
                f"regenerate BENCH_perf.json")
    path = REPO_ROOT / "BENCH_perf.json"
    if not path.exists():
        return failures
    doc = json.loads(path.read_text())
    for name, expected in SECTION_KEYS.items():
        recorded = doc.get(name)
        if isinstance(recorded, dict) and set(recorded) != expected:
            missing = sorted(expected - set(recorded))
            extra = sorted(set(recorded) - expected)
            failures.append(
                f"BENCH_perf.json section {name!r} is stale (missing "
                f"keys {missing}, stray keys {extra}) — regenerate it "
                f"with the matching benchmark tier")
    return failures


def run_quick(n_apps: int = 3, workloads_per_app: int = 2,
              intervals: int = 100, output: Path | None = None) -> int:
    """CI perf smoke: the guarded mechanisms must still pay for themselves.

    Runs the arena payload, cycle kernel, tree fit,
    simcache-verification and tracing-overhead guards on a small corpus; exits non-zero on a
    regression. A multi-core ``evaluate_predictor`` measurement is
    recorded only in an explicit ``output``.
    """
    traces = _generate_corpus(n_apps, workloads_per_app, intervals)
    arena = _bench_arena(traces, workers=2, repeats=2)
    kernel = _bench_cycle_kernel(n_uops=12000)
    tree_fit = _bench_tree_fit(n_rows=8000, n_trees=4)
    resilience = _bench_resilience(traces)
    obs = _bench_obs(traces, span_iters=100_000)
    parallel_eval = _bench_parallel_quick(traces)
    # Staleness guard: the recorded BENCH_perf.json must carry exactly
    # the keys the current benchmarks emit, or its numbers describe a
    # measurement that no longer exists.
    computed = {
        "arena": arena,
        "cycle_kernel": kernel,
        "tree_fit": tree_fit,
        "resilience": resilience,
        "observability": obs,
    }
    if parallel_eval is not None:
        computed["evaluate_predictor"] = parallel_eval
        # A real multi-core measurement supersedes any recorded
        # single-CPU annotation for this section.
        if output is not None:
            _merge_bench_doc(output, {"evaluate_predictor": parallel_eval})
    failures = _staleness_failures(computed)
    # Checksumming every loaded entry must stay in the noise: fail only
    # when the overhead is both >5% relative AND >50 ms absolute, so a
    # microsecond-scale wobble on a fast machine cannot flake CI.
    if (resilience["overhead_ratio"] > 1.05
            and (resilience["verify_on_s"] - resilience["verify_off_s"])
            > 0.05):
        failures.append(
            f"simcache verification overhead "
            f"{(resilience['overhead_ratio'] - 1) * 100:.1f}% exceeds "
            f"the 5% budget")
    if (arena["payload_arena_bytes_per_task"]
            >= arena["payload_pickled_bytes_per_task"]):
        failures.append(
            f"arena dispatch ships more payload than pickled baseline "
            f"({arena['payload_arena_bytes_per_task']:.0f} vs "
            f"{arena['payload_pickled_bytes_per_task']:.0f} B/task)")
    if kernel["speedup"] < 1.0:
        failures.append(
            f"cycle kernel: soa slower than reference "
            f"({kernel['speedup']:.2f}x)")
    if tree_fit["speedup"] < 1.0:
        failures.append(
            f"tree fit: rank-keyed slower than reference "
            f"({tree_fit['speedup']:.2f}x)")
    # A disabled span is one branch + a shared singleton; 2 µs/call is
    # ~10x its expected cost, so tripping this means the fast path grew
    # an allocation. The traced-run gate is relative AND absolute so
    # timer noise on a fast corpus cannot flake CI.
    if obs["disabled_span_ns"] > 2000:
        failures.append(
            f"disabled tracer span costs "
            f"{obs['disabled_span_ns']:.0f} ns/call (budget 2000 ns)")
    if (obs["overhead_ratio"] > 1.25
            and (obs["traced_s"] - obs["untraced_s"]) > 0.1):
        failures.append(
            f"tracing overhead {(obs['overhead_ratio'] - 1) * 100:.1f}% "
            f"exceeds the 25% budget")
    for failure in failures:
        print(f"PERF REGRESSION: {failure}")
    print("perf smoke:", "FAIL" if failures else "OK")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--apps", type=int, default=8)
    parser.add_argument("--workloads-per-app", type=int, default=3)
    parser.add_argument("--intervals", type=int, default=240)
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--quick", action="store_true",
                        help="perf smoke on a small corpus; non-zero "
                             "exit on a regression")
    parser.add_argument("--scale", action="store_true",
                        help="scale tier: sharded shm dataset build vs "
                             "unsharded pickled on a large corpus; "
                             "merges a 'scale' section into the "
                             "perf JSON, non-zero exit on regression")
    parser.add_argument("--scale-traces", type=int, default=100_000,
                        help="corpus size for --scale (default 100000)")
    parser.add_argument("--scale-shard", type=int, default=5_000,
                        help="traces per shard for --scale "
                             "(default 5000)")
    parser.add_argument("--scale-smoke", action="store_true",
                        help="with --scale: only guard shm < pickled "
                             "result bytes (CI smoke on a small corpus)")
    parser.add_argument("--rss-budget-mb", type=float, default=4096.0,
                        help="peak-RSS budget for the sharded --scale "
                             "build (default 4096)")
    args = parser.parse_args(argv)
    if args.quick:
        return run_quick(output=args.output)
    if args.scale:
        _, failures = run_scale(
            n_traces=args.scale_traces, shard=args.scale_shard,
            workers=args.workers, rss_budget_mb=args.rss_budget_mb,
            output=args.output, full_guards=not args.scale_smoke)
        print("scale bench:", "FAIL" if failures else "OK")
        return 1 if failures else 0
    run(workers=args.workers, n_apps=args.apps,
        workloads_per_app=args.workloads_per_app,
        intervals=args.intervals, output=args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
