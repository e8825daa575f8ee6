"""Tests for the shared execution engine (repro.exec).

The engine's contract: for any seed, parallel and cached runs produce
bit-identical results to the serial uncached path. Every test here
asserts exact equality, never approximate.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.config import MachineConfig, active_exec_config
from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.predictor import DualModePredictor
from repro.data.builders import build_mode_dataset
from repro.errors import (
    ConfigurationError,
    DatasetError,
    WorkerTimeoutError,
)
from repro.eval.runner import evaluate_predictor
from repro.exec import (
    FaultPlan,
    ParallelMap,
    SimCache,
    close_pools,
    inject,
    reset_default,
)
from repro.exec import shmres
from repro.exec.simcache import default_simcache
from repro.obs.metrics import METRICS
from repro.ml.base import Estimator
from repro.ml.crossval import Fold
from repro.ml.hyperscreen import screen_configs
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.interval_model import IntervalModel
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application


def _square(i):
    return i * i


def _block(i):
    """A result big enough to be hoisted into a shm segment."""
    return np.full((40, 8), float(i))


class _ConstModel(Estimator):
    """Fixed-probability model; module level so process pools can
    pickle it."""

    def __init__(self, prob: float) -> None:
        self.prob = prob
        self.decision_threshold = 0.5

    def fit(self, x, y):
        return self

    def predict_proba(self, x):
        return np.full(x.shape[0], self.prob)


def _const_factory(config):
    return _ConstModel(float(config["prob"]))


def _accuracy(y_true, y_pred, scores):
    return float((y_true == y_pred).mean())


@pytest.fixture(autouse=True)
def _no_global_override():
    reset_default()
    yield
    reset_default()


@pytest.fixture(scope="module")
def traces():
    out = []
    for i, family in enumerate(["pointer_chase", "compute_fp",
                                "store_burst"]):
        app = generate_application(f"exeapp{i}", "test", {family: 1.0},
                                   seed=40 + i)
        out.extend(app.workload(w).trace(90, 0) for w in range(2))
    return out


@pytest.fixture(scope="module")
def predictor():
    return DualModePredictor(
        name="const",
        models={Mode.HIGH_PERF: _ConstModel(0.7),
                Mode.LOW_POWER: _ConstModel(0.4)},
        counter_ids=np.array([0, 1, 2]),
        granularity_factor=1,
    )


class TestParallelMap:
    def test_results_ordered_across_backends(self):
        expected = [_square(i) for i in range(23)]
        for backend in ("serial", "thread", "process"):
            pmap = ParallelMap(backend=backend, n_workers=2, chunk_size=3)
            assert pmap.map(_square, range(23)) == expected, backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelMap(backend="gpu")

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelMap(n_workers=0)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "thread")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        pmap = ParallelMap()
        assert pmap.backend == "thread"
        assert pmap.n_workers == 3

    def test_unpicklable_fn_falls_back_to_serial(self):
        before = METRICS.count("parallel.fallback_serial")
        pmap = ParallelMap(backend="process", n_workers=2)
        result = pmap.map(lambda i: i + 1, range(6))
        assert result == [1, 2, 3, 4, 5, 6]
        assert METRICS.count("parallel.fallback_serial") == before + 1

    def test_task_errors_propagate(self):
        pmap = ParallelMap(backend="serial")
        with pytest.raises(ZeroDivisionError):
            pmap.map(lambda i: 1 // i, [1, 0, 2])

    def test_stage_recorded(self):
        pmap = ParallelMap(backend="serial")
        pmap.map(_square, range(4), stage="unit_stage")
        snap = METRICS.snapshot()
        assert "unit_stage" in snap["stages"]
        assert snap["counters"]["unit_stage.items"] >= 4

    def test_nested_thread_map_runs_inline(self):
        # Every outer task maps over the same persistent thread pool;
        # unless nested maps run inline, both workers wait forever on
        # inner tasks that no free worker can pick up. A subprocess
        # gives the check a hard timeout.
        code = (
            "from repro.exec import ParallelMap, close_pools\n"
            "def inner(i):\n"
            "    return i * i\n"
            "def outer(i):\n"
            "    pmap = ParallelMap('thread', n_workers=2, persistent=True)\n"
            "    return sum(pmap.map(inner, range(i, i + 4)))\n"
            "pmap = ParallelMap('thread', n_workers=2, persistent=True)\n"
            "print(pmap.map(outer, range(6)))\n"
            "close_pools()\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        try:
            done = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("nested thread-pool map deadlocked")
        assert done.returncode == 0, done.stderr
        expected = [sum(j * j for j in range(i, i + 4)) for i in range(6)]
        assert done.stdout.strip() == str(expected)


class TestParallelEquivalence:
    """Serial == thread == process, bit for bit (same seeds)."""

    def test_run_many_bitwise_identical(self, traces, predictor,
                                        monkeypatch):
        """serial == thread == process == arena-backed, bit for bit —
        including two back-to-back process runs on a reused warm pool."""
        results = {}
        # Arena off: thread and process ship pickled traces per chunk.
        monkeypatch.setenv("REPRO_EXEC_ARENA", "0")
        for backend in ("serial", "thread", "process"):
            cpu = AdaptiveCPU(predictor, collector=TelemetryCollector())
            results[backend] = cpu.run_many(
                traces, pmap=ParallelMap(backend=backend, n_workers=2))
        # Arena on: process workers attach to the shared mapping; the
        # second call reuses the warm persistent pool.
        monkeypatch.setenv("REPRO_EXEC_ARENA", "1")
        cpu = AdaptiveCPU(predictor, collector=TelemetryCollector())
        arena_pmap = ParallelMap(backend="process", n_workers=2,
                                 persistent=True)
        results["arena"] = cpu.run_many(traces, pmap=arena_pmap)
        reuse_before = METRICS.count("parallel.pool_reuse")
        results["arena_warm"] = cpu.run_many(traces, pmap=arena_pmap)
        assert METRICS.count("parallel.pool_reuse") > reuse_before
        serial = results["serial"]
        for variant in ("thread", "process", "arena", "arena_warm"):
            for rs, rp in zip(serial, results[variant]):
                assert rs.trace_name == rp.trace_name, variant
                assert np.array_equal(rs.modes, rp.modes), variant
                assert np.array_equal(rs.ipc, rp.ipc), variant
                assert np.array_equal(rs.cycles, rp.cycles), variant
                assert rs.energy_j == rp.energy_j, variant
                assert rs.switch_count == rp.switch_count, variant

    def test_suite_metrics_bitwise_identical(self, traces, predictor):
        serial = evaluate_predictor(predictor, traces,
                                    collector=TelemetryCollector())
        process = evaluate_predictor(
            predictor, traces, collector=TelemetryCollector(),
            pmap=ParallelMap(backend="process", n_workers=2))
        assert serial.mean_ppw_gain == process.mean_ppw_gain
        assert serial.mean_rsv == process.mean_rsv
        assert serial.mean_pgos == process.mean_pgos
        assert serial.mean_residency == process.mean_residency

    def test_build_dataset_bitwise_identical(self, traces):
        ids = [0, 1, 2, 3]
        serial = build_mode_dataset(traces, Mode.LOW_POWER, ids,
                                    collector=TelemetryCollector())
        for backend in ("thread", "process"):
            parallel = build_mode_dataset(
                traces, Mode.LOW_POWER, ids,
                collector=TelemetryCollector(),
                pmap=ParallelMap(backend=backend, n_workers=2))
            assert np.array_equal(serial.x, parallel.x)
            assert np.array_equal(serial.y, parallel.y)
            assert np.array_equal(serial.traces, parallel.traces)

    def test_hyperscreen_identical(self, traces):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 4))
        y = (x[:, 0] > 0).astype(np.int64)
        folds = [Fold(fold_id=0, tuning_apps=("a",),
                      validation_apps=("b",),
                      tuning_idx=np.arange(0, 40),
                      validation_idx=np.arange(40, 60)),
                 Fold(fold_id=1, tuning_apps=("b",),
                      validation_apps=("a",),
                      tuning_idx=np.arange(20, 60),
                      validation_idx=np.arange(0, 20))]
        configs = [{"prob": 0.2}, {"prob": 0.8}]
        serial = screen_configs(_const_factory, configs, x, y, folds,
                                {"acc": _accuracy})
        process = screen_configs(_const_factory, configs, x, y, folds,
                                 {"acc": _accuracy},
                                 pmap=ParallelMap("process", 2))
        assert [r.config for r in serial] == [r.config for r in process]
        assert [r.per_fold for r in serial] == [r.per_fold for r in process]


def _spool_entries() -> int:
    """Files/dirs currently under the shmres spool root (0 when the
    root was never created or already swept)."""
    root = shmres._SPOOL_ROOT
    if root is None or not os.path.isdir(root):
        return 0
    return sum(len(files) + len(dirs)
               for _, dirs, files in os.walk(root))


class TestShmResults:
    """Shared-memory result return: lifecycle, faults, bit-identity."""

    def test_map_roundtrip_and_spool_clean(self):
        serial = ParallelMap("serial").map(_block, range(12))
        decodes = METRICS.count("shmres.decodes")
        pmap = ParallelMap("process", n_workers=2)
        out = pmap.map(_block, range(12))
        assert METRICS.count("shmres.decodes") > decodes
        for a, b in zip(serial, out):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert _spool_entries() == 0

    def test_kill_switch_restores_pickled_returns(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_SHMRES", "0")
        segments = METRICS.count("shmres.segments")
        out = ParallelMap("process", n_workers=2).map(_block, range(8))
        assert METRICS.count("shmres.segments") == segments
        for a, b in zip(ParallelMap("serial").map(_block, range(8)), out):
            assert np.array_equal(a, b)

    def test_segment_reuse_across_pool_generations(self):
        """Fresh pool generations get fresh spools; results stay
        identical and nothing leaks between generations."""
        expected = ParallelMap("serial").map(_block, range(10))
        pmap = ParallelMap("process", n_workers=2)
        first = pmap.map(_block, range(10))
        close_pools()
        second = pmap.map(_block, range(10))
        for run in (first, second):
            for a, b in zip(expected, run):
                assert np.array_equal(a, b)
        assert _spool_entries() == 0

    def test_corrupt_segment_quarantines_to_pickled(self):
        expected = ParallelMap("serial").map(_block, range(10))
        quarantined = METRICS.count("shmres.quarantine")
        with inject(FaultPlan(seed=5, corrupt_result=1.0)):
            out = ParallelMap("process", n_workers=2).map(
                _block, range(10))
        assert METRICS.count("shmres.quarantine") > quarantined
        for a, b in zip(expected, out):
            assert np.array_equal(a, b)
        assert _spool_entries() == 0

    def test_crash_ladder_reclaims_and_stays_identical(self, monkeypatch):
        expected = ParallelMap("serial").map(_block, range(10))
        close_pools()  # new pools must fork with the spec in their env
        monkeypatch.setenv("REPRO_FAULT_SPEC", "seed=5,crash=1.0")
        fallbacks = METRICS.count("parallel.fallback_serial")
        out = ParallelMap("process", n_workers=2, chunk_size=3,
                          retries=2).map(_block, range(10),
                                         stage="unit_shmcrash")
        assert (METRICS.count("parallel.fallback_serial")
                == fallbacks + 1)
        for a, b in zip(expected, out):
            assert np.array_equal(a, b)
        assert _spool_entries() == 0
        close_pools()  # drop pools carrying the crash spec

    def test_timeout_sweeps_spool(self, monkeypatch):
        close_pools()  # new pools must fork with the spec in their env
        monkeypatch.setenv("REPRO_FAULT_SPEC", "seed=5,hang=1.0,hang_s=1.0")
        with pytest.raises(WorkerTimeoutError):
            ParallelMap("process", n_workers=2, retries=0,
                        timeout=0.2).map(_block, range(6),
                                         stage="unit_shmhang")
        close_pools()  # drop the poisoned pool and its workers
        assert _spool_entries() == 0

    def test_orphaned_segments_counted_reclaimed(self, tmp_path):
        spool = shmres.open_call_spool()
        (tmp_path / "probe").write_bytes(b"x")  # unrelated file
        with open(os.path.join(spool, "seg-orphan.shm"), "wb") as fh:
            fh.write(b"leftover")
        reclaimed = METRICS.count("shmres.reclaimed")
        assert shmres.close_call_spool(spool) == 1
        assert METRICS.count("shmres.reclaimed") == reclaimed + 1
        assert not os.path.isdir(spool)

    def test_small_results_skip_segments(self):
        """Chunks with no array >= MIN_BLOCK_BYTES never touch disk."""
        segments = METRICS.count("shmres.segments")
        out = ParallelMap("process", n_workers=2).map(_square, range(8))
        assert out == [_square(i) for i in range(8)]
        assert METRICS.count("shmres.segments") == segments


class TestSharding:
    """REPRO_EXEC_SHARD streams corpora; results stay bit-identical."""

    def test_sharded_build_bitwise_identical(self, traces, monkeypatch):
        ids = [0, 1, 2, 3]
        plain = build_mode_dataset(traces, Mode.LOW_POWER, ids,
                                   collector=TelemetryCollector())
        monkeypatch.setenv("REPRO_EXEC_SHARD", "2")
        shards = METRICS.count("build_dataset.shards")
        sharded = build_mode_dataset(traces, Mode.LOW_POWER, ids,
                                     collector=TelemetryCollector())
        assert METRICS.count("build_dataset.shards") > shards
        for field in ("x", "y", "groups", "workloads", "traces"):
            a = getattr(plain, field)
            b = getattr(sharded, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field

    def test_sharded_build_process_shm_identical(self, traces,
                                                 monkeypatch):
        ids = [0, 1, 2, 3]
        plain = build_mode_dataset(traces, Mode.LOW_POWER, ids,
                                   collector=TelemetryCollector())
        monkeypatch.setenv("REPRO_EXEC_SHARD", "2")
        monkeypatch.setenv("REPRO_EXEC_SHMRES", "1")
        sharded = build_mode_dataset(
            traces, Mode.LOW_POWER, ids, collector=TelemetryCollector(),
            pmap=ParallelMap("process", n_workers=2))
        assert np.array_equal(plain.x, sharded.x)
        assert np.array_equal(plain.y, sharded.y)
        assert _spool_entries() == 0

    def test_sharded_evaluate_identical(self, traces, predictor,
                                        monkeypatch):
        plain = evaluate_predictor(predictor, traces,
                                   collector=TelemetryCollector())
        monkeypatch.setenv("REPRO_EXEC_SHARD", "2")
        shards = METRICS.count("adaptive_run.shards")
        sharded = evaluate_predictor(predictor, traces,
                                     collector=TelemetryCollector())
        assert METRICS.count("adaptive_run.shards") > shards
        assert plain.mean_ppw_gain == sharded.mean_ppw_gain
        assert plain.mean_rsv == sharded.mean_rsv
        assert plain.mean_pgos == sharded.mean_pgos

    def test_sharded_hyperscreen_identical(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 4))
        y = (x[:, 0] > 0).astype(np.int64)
        folds = [Fold(fold_id=0, tuning_apps=("a",),
                      validation_apps=("b",),
                      tuning_idx=np.arange(0, 40),
                      validation_idx=np.arange(40, 60))]
        configs = [{"prob": p} for p in (0.2, 0.4, 0.6, 0.8)]
        plain = screen_configs(_const_factory, configs, x, y, folds,
                               {"acc": _accuracy})
        monkeypatch.setenv("REPRO_EXEC_SHARD", "3")
        shards = METRICS.count("hyperscreen.shards")
        sharded = screen_configs(_const_factory, configs, x, y, folds,
                                 {"acc": _accuracy})
        assert METRICS.count("hyperscreen.shards") > shards
        assert [r.per_fold for r in plain] == [r.per_fold
                                               for r in sharded]


SNAP_IDS = [0, 5, 9, 40]
SNAP_FIELDS = ("counter_ids", "counts", "normalized", "cycles", "ipc")


def _snapshot(trace, cache=None, machine=None):
    """One low-power snapshot through a fresh collector (empty LRU)."""
    collector = TelemetryCollector(model=IntervalModel(machine=machine),
                                   simcache=cache)
    return collector.snapshot(trace, Mode.LOW_POWER, SNAP_IDS)


def _assert_same_snapshot(a, b):
    for field in SNAP_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.interval_instructions == b.interval_instructions


class TestSimCache:
    def test_roundtrip_bitwise_identical(self, traces, tmp_path):
        trace = traces[0]
        plain = _snapshot(trace)
        cache = SimCache(tmp_path / "c")
        written = _snapshot(trace, cache)
        hits_before = METRICS.count("simcache.hit")
        loaded = _snapshot(trace, cache)
        assert METRICS.count("simcache.hit") == hits_before + 1
        for snap in (written, loaded):
            _assert_same_snapshot(plain, snap)
        assert loaded.trace_name == trace.name
        assert loaded.mode is Mode.LOW_POWER

    def test_machine_config_invalidates(self, traces, tmp_path):
        trace = traces[0]
        cache = SimCache(tmp_path / "c")
        default = MachineConfig()
        slower = MachineConfig(memory_latency=400)
        token = TelemetryCollector().catalog_token()
        assert (cache.snapshot_key(trace, Mode.LOW_POWER, default,
                                   SNAP_IDS, token)
                != cache.snapshot_key(trace, Mode.LOW_POWER, slower,
                                      SNAP_IDS, token))
        _snapshot(trace, cache)
        misses_before = METRICS.count("simcache.miss")
        got = _snapshot(trace, cache, machine=slower)
        assert METRICS.count("simcache.miss") == misses_before + 1
        _assert_same_snapshot(_snapshot(trace, machine=slower), got)

    def test_mode_and_trace_distinguish_keys(self, traces, tmp_path):
        cache = SimCache(tmp_path / "c")
        machine = MachineConfig()
        token = TelemetryCollector().catalog_token()
        keys = {
            cache.snapshot_key(traces[0], Mode.LOW_POWER, machine,
                               SNAP_IDS, token),
            cache.snapshot_key(traces[0], Mode.HIGH_PERF, machine,
                               SNAP_IDS, token),
            cache.snapshot_key(traces[1], Mode.LOW_POWER, machine,
                               SNAP_IDS, token),
            cache.snapshot_key(traces[0], Mode.LOW_POWER, machine,
                               SNAP_IDS[:3], token),
            cache.snapshot_key(traces[0], Mode.LOW_POWER, machine,
                               SNAP_IDS, token + "x"),
        }
        assert len(keys) == 5

    def test_corrupt_entry_treated_as_miss(self, traces, tmp_path):
        trace = traces[0]
        cache = SimCache(tmp_path / "c")
        collector = TelemetryCollector(simcache=cache)
        expected = collector.snapshot(trace, Mode.LOW_POWER, SNAP_IDS)
        key = cache.snapshot_key(trace, Mode.LOW_POWER,
                                 collector.model.machine, SNAP_IDS,
                                 collector.catalog_token())
        cache._path(key).write_bytes(b"not an npz file")
        _assert_same_snapshot(expected, _snapshot(trace, cache))

    def test_evaluate_stores_only_snapshots(self, traces, predictor,
                                            tmp_path):
        # Simulation results and label sets are recomputed, never
        # stored: a cold evaluation persists each trace's two
        # snapshots, and a warm rerun stores nothing.
        plain = evaluate_predictor(predictor, traces,
                                   collector=TelemetryCollector())
        cache = SimCache(tmp_path / "c")
        suites = []
        for expected in (2 * len(traces), 0):
            stored = METRICS.count("simcache.store")
            suites.append(evaluate_predictor(
                predictor, traces,
                collector=TelemetryCollector(simcache=cache)))
            assert METRICS.count("simcache.store") - stored == expected
            assert len(list(cache.root.glob("*/*.npz"))) == 2 * len(traces)
        for suite in suites:
            assert suite.per_benchmark == plain.per_benchmark
            for a, b in zip(plain.runs, suite.runs):
                for field in dataclasses.fields(a):
                    va, vb = getattr(a, field.name), getattr(b, field.name)
                    if isinstance(va, np.ndarray):
                        assert np.array_equal(va, vb), field.name
                    else:
                        assert va == vb, field.name

    def test_dataset_roundtrip_bitwise_identical(self, traces, tmp_path):
        ids = [0, 1, 2]
        plain = build_mode_dataset(traces, Mode.HIGH_PERF, ids,
                                   collector=TelemetryCollector())
        cache = SimCache(tmp_path / "d")
        first = build_mode_dataset(traces, Mode.HIGH_PERF, ids,
                                   collector=TelemetryCollector(),
                                   simcache=cache)
        second = build_mode_dataset(traces, Mode.HIGH_PERF, ids,
                                    collector=TelemetryCollector(),
                                    simcache=cache)
        for ds in (first, second):
            assert np.array_equal(plain.x, ds.x)
            assert np.array_equal(plain.y, ds.y)
            assert np.array_equal(plain.groups, ds.groups)
            assert ds.mode is Mode.HIGH_PERF
            assert ds.granularity == plain.granularity

    def test_env_default(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_SIMCACHE_DIR", raising=False)
        assert default_simcache() is None
        monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path / "env"))
        cache = default_simcache()
        assert cache is not None
        assert cache.root == tmp_path / "env"


class TestIntervalLRU:
    def test_env_configures_bound(self, monkeypatch):
        monkeypatch.setenv("REPRO_INTERVAL_LRU", "2")
        assert active_exec_config().interval_lru == 2
        model = IntervalModel()
        assert model._cache_size == 2

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_INTERVAL_LRU", "zero")
        with pytest.raises(ValueError):
            active_exec_config().interval_lru
        monkeypatch.setenv("REPRO_INTERVAL_LRU", "0")
        with pytest.raises(ValueError):
            active_exec_config().interval_lru

    def test_bound_enforced_and_counters_reported(self, traces):
        model = IntervalModel(cache_size=1)
        misses_before = METRICS.count("interval_lru.miss")
        hits_before = METRICS.count("interval_lru.hit")
        model.simulate(traces[0], Mode.LOW_POWER)
        model.simulate(traces[0], Mode.LOW_POWER)  # hit
        model.simulate(traces[1], Mode.LOW_POWER)  # evicts traces[0]
        model.simulate(traces[0], Mode.LOW_POWER)  # miss again
        assert len(model._cache) == 1
        assert METRICS.count("interval_lru.hit") == hits_before + 1
        assert METRICS.count("interval_lru.miss") == misses_before + 3


class TestSuiteEvalLookup:
    def test_benchmark_by_name(self, traces, predictor):
        suite = evaluate_predictor(predictor, traces,
                                   collector=TelemetryCollector())
        for bench in suite.per_benchmark:
            assert suite.benchmark(bench.app_name) is bench

    def test_missing_benchmark_raises(self, traces, predictor):
        suite = evaluate_predictor(predictor, traces,
                                   collector=TelemetryCollector())
        with pytest.raises(DatasetError):
            suite.benchmark("no_such_app")


class TestStatsReport:
    def test_report_contains_stages_and_rates(self):
        with METRICS.stage("report_stage"):
            pass
        METRICS.incr("simcache.hit")
        text = METRICS.report()
        assert "report_stage" in text
        assert "simcache hit rate" in text

    def test_snapshot_roundtrip(self):
        METRICS.add_time("snap_stage", 2.0, busy_s=3.0, workers=2)
        snap = METRICS.snapshot()
        stage = snap["stages"]["snap_stage"]
        assert stage["workers"] == 2
        assert stage["utilization"] == pytest.approx(0.75)
