"""Tests for dataset containers, builders, labels and caching."""

import numpy as np
import pytest

from repro.config import DEFAULT_SLA, SLAConfig
from repro.core.labels import coarsen_cycles, gating_labels, ideal_residency
from repro.data.builders import (
    PREDICTION_HORIZON,
    build_mode_dataset,
    dataset_from_traces,
    hdtr_traces,
)
from repro.data.dataset import (
    DatasetAssembler,
    GatingDataset,
    RowNames,
    concat_datasets,
)
from repro.errors import DatasetError
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.counters import default_catalog
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application


@pytest.fixture(scope="module")
def collector():
    return TelemetryCollector()


@pytest.fixture(scope="module")
def traces():
    apps = [
        generate_application(
            f"dsapp{i}", "test",
            {"pointer_chase": 0.5, "compute_fp": 0.3, "balanced": 0.2},
            seed=50 + i)
        for i in range(4)
    ]
    out = []
    for app in apps:
        for input_id in range(2):
            out.append(app.workload(input_id).trace(80, 0))
    return out


class TestLabels:
    def test_labels_match_ratio_threshold(self, collector, traces):
        labels = gating_labels(traces[0], model=collector.model)
        expected = (labels.ratio >= DEFAULT_SLA.performance_floor)
        assert np.array_equal(labels.labels, expected.astype(np.int64))

    def test_relaxed_sla_gates_more(self, collector, traces):
        strict = gating_labels(traces[0], SLAConfig(performance_floor=0.95),
                               collector.model)
        relaxed = gating_labels(traces[0], SLAConfig(performance_floor=0.7),
                                collector.model)
        assert relaxed.residency >= strict.residency

    def test_coarsening_aggregates_cycles(self, collector, traces):
        fine = gating_labels(traces[0], model=collector.model)
        coarse = gating_labels(traces[0], model=collector.model,
                               granularity_factor=4)
        assert coarse.n_intervals == fine.n_intervals // 4
        assert coarse.cycles_high[0] == pytest.approx(
            fine.cycles_high[:4].sum())

    def test_coarsen_cycles_validation(self):
        with pytest.raises(DatasetError):
            coarsen_cycles(np.ones(3), 0)
        with pytest.raises(DatasetError):
            coarsen_cycles(np.ones(3), 5)

    def test_ideal_residency_in_unit_range(self, collector, traces):
        res = ideal_residency(traces, model=collector.model)
        assert 0.0 <= res <= 1.0


class TestBuilders:
    def test_feature_label_alignment(self, collector, traces):
        """x_t must pair with y_{t+2} (Figure 3)."""
        trace = traces[0]
        ids = default_catalog().table4_ids
        ds = build_mode_dataset([trace], Mode.HIGH_PERF, ids,
                                collector=collector)
        labels = gating_labels(trace, model=collector.model)
        t_count = labels.n_intervals
        assert ds.n_samples == t_count - PREDICTION_HORIZON
        assert np.array_equal(ds.y, labels.labels[PREDICTION_HORIZON:])
        snap = collector.snapshot(trace, Mode.HIGH_PERF, ids)
        assert np.allclose(ds.x,
                           snap.normalized[:t_count - PREDICTION_HORIZON])

    def test_groups_and_workloads_recorded(self, collector, traces):
        ids = default_catalog().table4_ids[:4]
        ds = build_mode_dataset(traces, Mode.LOW_POWER, ids,
                                collector=collector)
        assert ds.n_applications == 4
        assert len(np.unique(ds.workloads)) == 8

    def test_granularity_recorded(self, collector, traces):
        ids = [0, 1]
        ds = build_mode_dataset(traces[:2], Mode.HIGH_PERF, ids,
                                collector=collector, granularity_factor=4)
        assert ds.granularity == 40_000

    def test_both_modes_built(self, collector, traces):
        ds = dataset_from_traces(traces[:2], [0, 1], collector=collector)
        assert set(ds) == {Mode.HIGH_PERF, Mode.LOW_POWER}
        assert ds[Mode.HIGH_PERF].n_samples == ds[Mode.LOW_POWER].n_samples

    def test_too_short_trace_rejected(self, collector):
        app = generate_application("tiny", "t", {"balanced": 1.0}, seed=1)
        trace = app.workload(0).trace(5, 0)
        with pytest.raises(DatasetError):
            build_mode_dataset([trace], Mode.HIGH_PERF, [0],
                               collector=collector, granularity_factor=4)

    def test_empty_traces_rejected(self, collector):
        with pytest.raises(DatasetError):
            build_mode_dataset([], Mode.HIGH_PERF, [0],
                               collector=collector)

    def test_hdtr_traces_scaled(self):
        from repro.workloads.categories import hdtr_corpus
        apps = hdtr_corpus(3, counts={"hpc_perf": 2})
        out = hdtr_traces(3, apps=apps, workloads_per_app=3,
                          intervals_per_trace=20)
        assert len(out) == 6
        assert all(t.n_intervals == 20 for t in out)


class TestDatasetContainer:
    def _make(self, collector, traces):
        return build_mode_dataset(traces, Mode.HIGH_PERF, [0, 1],
                                  collector=collector)

    def test_subset_filters_rows(self, collector, traces):
        ds = self._make(collector, traces)
        app = ds.groups[0]
        sub = ds.for_applications([app])
        assert set(np.unique(sub.groups)) == {app}
        assert sub.n_samples < ds.n_samples

    def test_positive_rate(self, collector, traces):
        ds = self._make(collector, traces)
        assert ds.positive_rate == pytest.approx(ds.y.mean())

    def test_concat_roundtrip(self, collector, traces):
        a = self._make(collector, traces[:3])
        b = self._make(collector, traces[3:])
        both = concat_datasets([a, b])
        assert both.n_samples == a.n_samples + b.n_samples

    def test_concat_rejects_mode_mismatch(self, collector, traces):
        a = self._make(collector, traces[:2])
        b = build_mode_dataset(traces[2:4], Mode.LOW_POWER, [0, 1],
                               collector=collector)
        with pytest.raises(DatasetError):
            concat_datasets([a, b])

    def test_misaligned_rows_rejected(self):
        with pytest.raises(DatasetError):
            GatingDataset(
                x=np.zeros((4, 2)), y=np.zeros(3),
                names=RowNames.from_rows(np.array(["a"] * 4),
                                         np.array(["w"] * 4),
                                         np.array(["t"] * 4)),
                mode=Mode.HIGH_PERF, counter_ids=np.array([0, 1]),
                granularity=10_000, sla_floor=0.9)

    def test_assembler_matches_concat_bitwise(self, collector, traces):
        parts = [self._make(collector, traces[i:i + 2])
                 for i in range(0, len(traces), 2)]
        whole = concat_datasets(parts)
        assembler = DatasetAssembler()
        for part in parts:
            assembler.append(part)
        assert assembler.n_rows == whole.n_samples
        streamed = assembler.finish()
        for field in ("x", "y", "groups", "workloads", "traces"):
            a = getattr(whole, field)
            b = getattr(streamed, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field

    def test_assembler_rejects_mode_mismatch(self, collector, traces):
        assembler = DatasetAssembler()
        assembler.append(self._make(collector, traces[:2]))
        other = build_mode_dataset(traces[2:4], Mode.LOW_POWER, [0, 1],
                                   collector=collector)
        with pytest.raises(DatasetError):
            assembler.append(other)

    def test_assembler_rejects_dtype_mismatch(self, collector, traces):
        first = self._make(collector, traces[:2])
        assembler = DatasetAssembler()
        assembler.append(first)
        import dataclasses
        narrowed = dataclasses.replace(
            first, x=first.x.astype(np.float32))
        with pytest.raises(DatasetError):
            assembler.append(narrowed)

    def test_assembler_empty_finish_rejected(self):
        with pytest.raises(DatasetError):
            DatasetAssembler().finish()
