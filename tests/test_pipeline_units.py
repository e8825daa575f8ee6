"""Unit tests for pipeline internals not covered by the integration
tests: the calibration split, SRCH's label floor, and counter-set
plumbing."""

import dataclasses

import numpy as np
import pytest

from repro.config import DEFAULT_SLA
from repro.core.pipeline import (
    GRANULARITY_FACTORS,
    SRCHEstimator,
    _calibration_split,
    select_counters,
    train_dual_predictor,
)
from repro.data.builders import dataset_from_traces
from repro.data.dataset import GatingDataset, RowNames
from repro.ml.forest import RandomForestClassifier
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application


@pytest.fixture(scope="module")
def collector():
    return TelemetryCollector()


@pytest.fixture(scope="module")
def traces():
    apps = [generate_application(
        f"pu{i}", "t", {"pointer_chase": 0.5, "compute_fp": 0.5},
        seed=70 + i) for i in range(8)]
    return [a.workload(w).trace(60, 0) for a in apps for w in range(2)]


def _dataset(rows_per_app=10, n_apps=6):
    rng = np.random.default_rng(0)
    n = rows_per_app * n_apps
    return GatingDataset(
        x=rng.random((n, 3)),
        y=rng.integers(0, 2, n),
        names=RowNames.from_rows(
            np.repeat([f"a{i}" for i in range(n_apps)], rows_per_app),
            np.repeat([f"w{i}" for i in range(n_apps)], rows_per_app),
            np.repeat([f"t{i}" for i in range(n_apps)], rows_per_app)),
        mode=Mode.HIGH_PERF,
        counter_ids=np.arange(3),
        granularity=10_000,
        sla_floor=0.9,
    )


class TestCalibrationSplit:
    def test_apps_disjoint(self):
        ds = _dataset()
        fit, cal = _calibration_split(ds, 0.3, seed=1)
        assert not set(np.unique(fit.groups)) & set(np.unique(cal.groups))
        assert fit.n_samples + cal.n_samples == ds.n_samples

    def test_at_least_one_calibration_app(self):
        ds = _dataset(n_apps=3)
        _fit, cal = _calibration_split(ds, 0.05, seed=1)
        assert cal.n_applications >= 1

    def test_deterministic(self):
        ds = _dataset()
        a = _calibration_split(ds, 0.25, seed=4)[1]
        b = _calibration_split(ds, 0.25, seed=4)[1]
        assert np.array_equal(a.groups, b.groups)


class TestGranularityTable:
    def test_matches_paper_placements(self):
        assert GRANULARITY_FACTORS == {
            "best_rf": 4, "best_mlp": 5, "charstar": 2, "srch": 4,
            "srch_coarse": 20,
        }


class TestSelectCounters:
    def test_returns_requested_count(self, collector, traces):
        counters = select_counters(traces[:8], collector, r=6)
        assert len(counters) == 6
        assert len(set(counters)) == 6

    def test_prefix_property_through_pipeline(self, collector, traces):
        r8 = select_counters(traces[:8], collector, r=8)
        r6 = select_counters(traces[:8], collector, r=6)
        assert r8[:6] == r6


class TestSRCHEstimator:
    def test_threshold_attribute(self):
        model = SRCHEstimator()
        assert model.decision_threshold == 0.5

    def test_uses_width_buckets(self):
        assert SRCHEstimator().encoder.strategy == "width"

    def test_unweighted_logistic(self):
        assert SRCHEstimator().logreg.class_weight is None


class TestTrainDualPredictor:
    def test_counter_mismatch_rejected(self, collector, traces):
        from repro.errors import ConfigurationError
        ds_a = dataset_from_traces(traces[:4], [0, 1],
                                   collector=collector)
        ds_b = dataset_from_traces(traces[:4], [2, 3],
                                   collector=collector)
        mismatched = {Mode.HIGH_PERF: ds_a[Mode.HIGH_PERF],
                      Mode.LOW_POWER: ds_b[Mode.LOW_POWER]}

        def factory(mode):
            return RandomForestClassifier(2, 3, seed=0)

        with pytest.raises(ConfigurationError):
            train_dual_predictor("bad", factory, mismatched, 1)

    def test_baseline_skips_tuning(self, collector, traces):
        datasets = dataset_from_traces(traces, [0, 1, 2],
                                       collector=collector)

        def factory(mode):
            return RandomForestClassifier(2, 3, seed=0)

        predictor = train_dual_predictor("raw", factory, datasets, 1,
                                         rsv_budget=None)
        assert all(t == 0.5 for t in predictor.thresholds.values())

    def test_relaxed_sla_labels_gate_more(self, collector, traces):
        strict = dataset_from_traces(
            traces, [0], DEFAULT_SLA, collector)[Mode.LOW_POWER]
        relaxed_sla = dataclasses.replace(DEFAULT_SLA,
                                          performance_floor=0.7)
        relaxed = dataset_from_traces(
            traces, [0], relaxed_sla, collector)[Mode.LOW_POWER]
        assert relaxed.positive_rate >= strict.positive_rate
        assert relaxed.sla_floor == pytest.approx(0.7)


def _rf_factory(mode):
    """Module-level (picklable) factory for the arena fan-out test."""
    return RandomForestClassifier(3, 3, seed=11)


class TestArenaTrainFanOut:
    def test_arena_round_trip_preserves_datasets(self):
        from repro.core.pipeline import (
            _build_train_arena,
            _datasets_from_arena,
        )
        datasets = {m: dataclasses.replace(_dataset(), mode=m)
                    for m in Mode}
        arena = _build_train_arena(_rf_factory, datasets)
        try:
            back = _datasets_from_arena(arena)
            for mode, ds in datasets.items():
                twin = back[mode]
                assert np.array_equal(twin.x, ds.x)
                assert np.array_equal(twin.y, ds.y)
                # String columns ride the data region as unicode views.
                assert np.array_equal(twin.groups, ds.groups)
                assert np.array_equal(twin.traces, ds.traces)
                assert twin.granularity == ds.granularity
                assert twin.sla_floor == ds.sla_floor
        finally:
            arena.close()

    def test_process_backend_matches_serial_via_arena(self, monkeypatch):
        from repro.exec import ParallelMap, close_pools
        from repro.obs.metrics import METRICS
        monkeypatch.setenv("REPRO_EXEC_ARENA", "1")
        datasets = {m: dataclasses.replace(_dataset(rows_per_app=20),
                                           mode=m)
                    for m in Mode}
        serial = train_dual_predictor(
            "t", _rf_factory, datasets, 1, n_candidates=3, seed=5,
            pmap=ParallelMap(backend="serial"))
        close_pools()
        builds = METRICS.count("arena.builds")
        tasks = METRICS.count("train_candidates.payload_tasks")
        parallel = train_dual_predictor(
            "t", _rf_factory, datasets, 1, n_candidates=3, seed=5,
            pmap=ParallelMap(backend="process", n_workers=2))
        # The shared matrices rode the arena, not the task pickles.
        assert METRICS.count("arena.builds") == builds + 1
        assert (METRICS.count("train_candidates.payload_tasks")
                > tasks)
        x_test = np.random.default_rng(1).random((30, 3))
        for mode in Mode:
            assert np.array_equal(
                serial.models[mode].predict_proba(x_test),
                parallel.models[mode].predict_proba(x_test))
        close_pools()

    def test_standard_factories_reach_the_pool(self, monkeypatch):
        """The standard models' factories pickle, so their grid fans out
        through the arena instead of falling back to serial fits."""
        import functools

        from repro.core.pipeline import _best_rf_model, _mlp_model
        from repro.exec import ParallelMap, close_pools
        from repro.obs.metrics import METRICS
        monkeypatch.setenv("REPRO_EXEC_ARENA", "1")
        datasets = {m: dataclasses.replace(_dataset(rows_per_app=30),
                                           mode=m)
                    for m in Mode}
        x_test = np.random.default_rng(2).random((25, 3))
        for factory in (functools.partial(_best_rf_model, seed=3),
                        functools.partial(_mlp_model, hidden=(4,),
                                          tag="t", seed=3)):
            serial = train_dual_predictor(
                "t", factory, datasets, 1, n_candidates=2, seed=5,
                pmap=ParallelMap(backend="serial"))
            counters = ("parallel.fallback_serial",
                        "arena.build_fallback", "arena.builds")
            before = {name: METRICS.count(name) for name in counters}
            try:
                pooled = train_dual_predictor(
                    "t", factory, datasets, 1, n_candidates=2, seed=5,
                    pmap=ParallelMap(backend="process", n_workers=2))
            finally:
                close_pools()
            delta = {name: METRICS.count(name) - before[name]
                     for name in counters}
            assert delta == {"parallel.fallback_serial": 0,
                             "arena.build_fallback": 0,
                             "arena.builds": 1}
            for mode in Mode:
                assert np.array_equal(
                    serial.models[mode].predict_proba(x_test),
                    pooled.models[mode].predict_proba(x_test))
                assert (serial.thresholds[mode]
                        == pooled.thresholds[mode])
