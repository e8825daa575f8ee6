"""The one-pass training build and blocked counter selection.

``dataset_from_traces`` builds both telemetry modes in one pass over
the corpus: each (trace, mode) pair is simulated once and each trace
labelled once. Its output must equal one independent
``build_mode_dataset`` per mode bit for bit, on every backend, with
the arena on and off, sharded, and with a cold or a warm SimCache.
Counter selection stacks its simulations and sums outer products over
row blocks; its statistics must match per-snapshot accumulation and
its picks must not move.
"""

import numpy as np
import pytest

from repro.core.labels import gating_labels
from repro.core.pipeline import select_counters
from repro.data import builders
from repro.data.builders import build_mode_dataset, dataset_from_traces
from repro.exec import ParallelMap, SimCache, close_pools, reset_default
from repro.obs.metrics import METRICS
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.selection import (
    OUTER_BLOCK_ROWS,
    gather_selection_stats,
)
from repro.uarch.interval_model import IntervalModel
from repro.uarch.modes import Mode
from repro.workloads.categories import hdtr_corpus
from repro.workloads.generator import generate_application

IDS = [0, 3, 7, 40]
FIELDS = ("x", "y", "groups", "workloads", "traces")


@pytest.fixture(autouse=True)
def _clean_engine(monkeypatch):
    monkeypatch.delenv("REPRO_SIMCACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_EXEC_SHARD", raising=False)
    reset_default()
    yield
    reset_default()


@pytest.fixture(scope="module")
def traces():
    out = []
    for i, family in enumerate(["pointer_chase", "compute_fp",
                                "store_burst"]):
        app = generate_application(f"onepass{i}", "test", {family: 1.0},
                                   seed=70 + i)
        out.extend(app.workload(w).trace(64, 0) for w in range(2))
    return out


def _per_mode(traces, **kwargs):
    """The reference: one independent serial, uncached build per mode."""
    return {mode: build_mode_dataset(traces, mode, IDS,
                                     collector=TelemetryCollector(),
                                     granularity_factor=2,
                                     pmap=ParallelMap("serial"), **kwargs)
            for mode in Mode}


@pytest.fixture(scope="module")
def reference(traces):
    return _per_mode(traces)


def _assert_same(expected, got):
    assert list(got) == list(Mode)
    for mode in Mode:
        assert got[mode].mode is mode
        for field in FIELDS:
            a = getattr(expected[mode], field)
            b = getattr(got[mode], field)
            assert a.dtype == b.dtype and np.array_equal(a, b), \
                (mode, field)


def _one_pass(traces, **kwargs):
    kwargs.setdefault("pmap", ParallelMap("serial"))
    kwargs.setdefault("collector", TelemetryCollector())
    return dataset_from_traces(traces, IDS, granularity_factor=2, **kwargs)


class TestOnePassEquivalence:
    @pytest.mark.parametrize("backend,arena", [
        ("serial", "1"), ("thread", "1"), ("process", "1"),
        ("process", "0"),
    ])
    def test_backends_and_arena(self, traces, reference, backend, arena,
                                monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_ARENA", arena)
        try:
            got = _one_pass(traces,
                            pmap=ParallelMap(backend, n_workers=2))
        finally:
            close_pools()
        _assert_same(reference, got)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_sharded(self, traces, reference, backend, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_SHARD", "4")
        shards = METRICS.count("build_dataset.shards")
        try:
            got = _one_pass(traces,
                            pmap=ParallelMap(backend, n_workers=2))
        finally:
            close_pools()
        assert METRICS.count("build_dataset.shards") == shards + 2
        _assert_same(reference, got)

    def test_cold_then_warm_simcache(self, traces, reference, tmp_path):
        cache = SimCache(tmp_path / "sc")
        _assert_same(reference, _one_pass(traces, simcache=cache))
        misses = METRICS.count("interval_lru.miss")
        _assert_same(reference, _one_pass(traces, simcache=cache))
        assert METRICS.count("interval_lru.miss") == misses

    def test_one_mode_cached_builds_the_other(self, traces, reference,
                                              tmp_path):
        cache = SimCache(tmp_path / "sc")
        build_mode_dataset(traces, Mode.HIGH_PERF, IDS,
                           collector=TelemetryCollector(),
                           granularity_factor=2, simcache=cache)
        _assert_same(reference, _one_pass(traces, simcache=cache))

    def test_snapshot_and_label_tiers_skip_simulation(self, traces,
                                                      tmp_path):
        # After a cold build, a collector with a cold interval LRU
        # reads every snapshot from the disk tier without simulating.
        # The label tier is gone: labels come from the results the
        # build already holds, which costs no further simulation.
        cache = SimCache(tmp_path / "sc")
        _one_pass(traces, collector=TelemetryCollector(simcache=cache))
        warm = TelemetryCollector(simcache=cache)
        misses = METRICS.count("interval_lru.miss")
        hits = METRICS.count("simcache.hit")
        got = [warm.snapshot(trace, mode, IDS)
               for trace in traces for mode in Mode]
        assert METRICS.count("interval_lru.miss") == misses
        assert METRICS.count("simcache.hit") - hits == 2 * len(traces)
        plain = TelemetryCollector()
        want = [plain.snapshot(trace, mode, IDS)
                for trace in traces for mode in Mode]
        for a, b in zip(want, got):
            assert np.array_equal(a.counts, b.counts)
        for trace in traces:
            results = {mode: plain.model.simulate(trace, mode)
                       for mode in Mode}
            misses = METRICS.count("interval_lru.miss")
            fresh = gating_labels(trace, model=IntervalModel(),
                                  granularity_factor=2, results=results)
            assert METRICS.count("interval_lru.miss") == misses
            assert np.array_equal(
                fresh.labels,
                gating_labels(trace, granularity_factor=2).labels)

    def test_new_horizon_simulates_each_pair_once(self, traces,
                                                  tmp_path):
        # A new horizon misses the dataset tier while every snapshot is
        # on disk: the labels need both modes of every trace, so each
        # pair is simulated exactly once, and only the two new per-mode
        # datasets are stored.
        cache = SimCache(tmp_path / "sc")

        def collector():
            return TelemetryCollector(simcache=cache)

        _one_pass(traces, collector=collector())
        misses = METRICS.count("interval_lru.miss")
        stored = METRICS.count("simcache.store")
        got = _one_pass(traces, collector=collector(), horizon=3)
        assert METRICS.count("interval_lru.miss") - misses \
            == 2 * len(traces)
        assert METRICS.count("simcache.store") - stored == 2
        _assert_same(_per_mode(traces, horizon=3), got)


class TestOnePassWork:
    def test_each_pair_simulated_once_and_labelled_once(self, traces,
                                                        monkeypatch):
        calls = []
        labels = builders.gating_labels

        def counting(trace, *args, **kwargs):
            calls.append(trace.name)
            return labels(trace, *args, **kwargs)

        monkeypatch.setattr(builders, "gating_labels", counting)
        misses = METRICS.count("interval_lru.miss")
        _one_pass(traces)
        assert METRICS.count("interval_lru.miss") - misses \
            == 2 * len(traces)
        assert sorted(calls) == sorted(t.name for t in traces)


@pytest.fixture(scope="module")
def selection_traces():
    apps = hdtr_corpus(11, counts={
        "hpc_perf": 2, "cloud_security": 2, "web_productivity": 2,
        "multimedia": 1, "ai_analytics": 1,
    })
    return [a.workload(0).trace(90, 0) for a in apps]


class TestBlockedSelection:
    def test_matches_per_snapshot_accumulation(self, selection_traces):
        collector = TelemetryCollector()
        misses = METRICS.count("interval_lru.miss")
        stats = gather_selection_stats(collector, selection_traces)
        assert METRICS.count("interval_lru.miss") - misses \
            == 2 * len(selection_traces)
        assert stats.n_samples > 2 * OUTER_BLOCK_ROWS
        sum_x = np.zeros(stats.n_counters)
        sum_outer = np.zeros((stats.n_counters, stats.n_counters))
        sum_lag = np.zeros(stats.n_counters)
        for trace in selection_traces:
            for mode in Mode:
                x = collector.snapshot(trace, mode).normalized
                sum_x += x.sum(axis=0)
                sum_outer += x.T @ x
                sum_lag += (x[:-1] * x[1:]).sum(axis=0)
        assert np.array_equal(stats.sum_x, sum_x)
        assert np.array_equal(stats.sum_lag, sum_lag)
        np.testing.assert_allclose(stats.sum_outer, sum_outer,
                                   rtol=1e-12, atol=0.0)

    def test_selected_ids_recorded(self, selection_traces):
        assert select_counters(selection_traces, TelemetryCollector(),
                               r=8) == [54, 2, 226, 52, 56, 9, 4, 585]
