"""What the cold paths keep resident.

* No runtime path imports ``scipy``: counter selection uses numpy's
  ``eigh``, and ``scipy.optimize`` loads only for the L-BFGS fits.
* The cold dataset build hands each stacked simulation straight to
  labelling and snapshotting: it reads the interval LRU but never
  fills it, while the SimCache snapshot and dataset tiers still store
  and are read back.
* Dataset rows carry one ``int32`` trace code; the per-row name
  columns are expanded on request and must equal the names the rows
  were built from, through every container round trip.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import _build_train_arena, _datasets_from_arena
from repro.data.builders import dataset_from_traces
from repro.data.dataset import (
    DatasetAssembler,
    RowNames,
    concat_datasets,
)
from repro.errors import DatasetError
from repro.exec import ParallelMap, SimCache, close_pools, reset_default
from repro.ml.forest import RandomForestClassifier
from repro.obs.metrics import METRICS
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application

SRC = str(Path(__file__).resolve().parents[1] / "src")
IDS = [0, 3, 7, 40]
T, FACTOR, HORIZON = 64, 2, 2
ROWS_PER_TRACE = T // FACTOR - HORIZON


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
    # Applications out of name order, so the codes must be re-ranked.
    for i, family in enumerate(["store_burst", "compute_fp",
                                "pointer_chase"]):
        app = generate_application(f"memfp{2 - i}", "test", {family: 1.0},
                                   seed=90 + i)
        out.extend(app.workload(w).trace(T, 0) for w in range(2))
    return out


def _build(traces, **kwargs):
    kwargs.setdefault("pmap", ParallelMap("serial"))
    kwargs.setdefault("collector", TelemetryCollector())
    return dataset_from_traces(traces, IDS, granularity_factor=FACTOR,
                               **kwargs)


def _row_names(traces, rows=ROWS_PER_TRACE):
    """The per-row name columns, spelled out row by row."""
    return {
        "groups": np.concatenate([np.full(rows, t.app.name)
                                  for t in traces]),
        "workloads": np.concatenate([np.full(rows, t.workload.name)
                                     for t in traces]),
        "traces": np.concatenate([np.full(rows, t.name) for t in traces]),
    }


def _assert_names(ds, expected):
    for field, want in expected.items():
        got = getattr(ds, field)
        assert got.dtype == want.dtype and np.array_equal(got, want), field
        assert not got.flags.writeable
    assert ds.names.codes.dtype == np.int32
    assert list(ds.names.traces) == sorted(ds.names.traces)


def _rf_factory(mode):
    return RandomForestClassifier(n_trees=1)


def _imports_scipy(body: str) -> list[str]:
    code = textwrap.dedent(body) + textwrap.dedent("""
        import sys
        print(sorted(m for m in sys.modules
                     if m == "scipy" or m.startswith("scipy.")))
    """)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=300,
                         env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    return eval(out.stdout.strip().splitlines()[-1])


class TestNoScipyAtRuntime:
    def test_entry_points_import_no_scipy(self):
        assert _imports_scipy(
            "import repro.cli, repro.serve.server, repro.core.pipeline"
        ) == []

    def test_selection_and_build_load_no_scipy(self):
        assert _imports_scipy("""
            from repro.core.pipeline import select_counters
            from repro.data.builders import dataset_from_traces
            from repro.workloads.generator import generate_application
            app = generate_application("noscipy", "test",
                                       {"compute_fp": 1.0}, seed=5)
            traces = [app.workload(w).trace(40, 0) for w in range(3)]
            ids = select_counters(traces, r=4)
            dataset_from_traces(traces, ids, granularity_factor=2)
        """) == []


class TestColdBuildLeavesLRUEmpty:
    def test_cold_build_inserts_no_lru_entries(self, traces):
        collector = TelemetryCollector()
        misses = METRICS.count("interval_lru.miss")
        _build(traces, collector=collector)
        assert METRICS.count("interval_lru.miss") - misses \
            == 2 * len(traces)
        assert len(collector.model._cache) == 0

    def test_build_over_warm_lru_makes_no_misses(self, traces):
        collector = TelemetryCollector()
        collector.model.simulate_batch(traces)
        reference = _build(traces)
        misses = METRICS.count("interval_lru.miss")
        got = _build(traces, collector=collector)
        assert METRICS.count("interval_lru.miss") == misses
        for mode in Mode:
            assert np.array_equal(got[mode].x, reference[mode].x)
            assert np.array_equal(got[mode].y, reference[mode].y)

    def test_builder_simcache_serves_snapshots(self, traces, tmp_path):
        # A plain collector carries no cache; the builder's ``simcache``
        # must still hold the snapshots, so a new horizon (a
        # dataset-tier miss) simulates each pair once, for the labels,
        # and reads every snapshot back.
        cache = SimCache(tmp_path / "sc")
        _build(traces, simcache=cache)
        misses = METRICS.count("interval_lru.miss")
        hits = METRICS.count("simcache.hit")
        got = _build(traces, simcache=cache, horizon=3)
        assert METRICS.count("interval_lru.miss") - misses \
            == 2 * len(traces)
        assert METRICS.count("simcache.hit") - hits == 2 * len(traces)
        want = _build(traces, horizon=3)
        for mode in Mode:
            assert np.array_equal(got[mode].x, want[mode].x)
            assert np.array_equal(got[mode].y, want[mode].y)

    def test_cold_then_warm_model_cache_simulates_nothing(self, traces,
                                                          tmp_path):
        # The cache now belongs to the collector that simulates for the
        # build; with no builder ``simcache`` the build falls back to
        # it, and a warm rerun loads both datasets and simulates and
        # stores nothing.
        cache = SimCache(tmp_path / "sc")

        def collector():
            return TelemetryCollector(simcache=cache)

        cold = _build(traces, collector=collector())
        stored = METRICS.count("simcache.store")
        misses = METRICS.count("interval_lru.miss")
        warm = _build(traces, collector=collector())
        assert METRICS.count("interval_lru.miss") == misses
        assert METRICS.count("simcache.store") == stored
        for mode in Mode:
            assert np.array_equal(warm[mode].x, cold[mode].x)
            assert np.array_equal(warm[mode].y, cold[mode].y)


class TestIntegerCodedNames:
    @pytest.mark.parametrize("backend,shard", [
        ("serial", None), ("thread", None), ("process", None),
        ("serial", "4"), ("process", "4"),
    ])
    def test_build_matches_row_names(self, traces, backend, shard,
                                     monkeypatch):
        if shard is not None:
            monkeypatch.setenv("REPRO_EXEC_SHARD", shard)
        try:
            got = _build(traces, pmap=ParallelMap(backend, n_workers=2))
        finally:
            close_pools()
        for mode in Mode:
            _assert_names(got[mode], _row_names(traces))

    def test_containers_round_trip(self, traces, tmp_path):
        ds = _build(traces)[Mode.HIGH_PERF]
        expected = _row_names(traces)
        # subset: every other row, and one application.
        mask = np.arange(ds.n_samples) % 2 == 0
        _assert_names(ds.subset(mask),
                      {k: v[mask] for k, v in expected.items()})
        app = traces[2].app.name
        keep = expected["groups"] == app
        only = ds.for_applications([app])
        _assert_names(only, {k: v[keep] for k, v in expected.items()})
        assert only.n_applications == 1
        assert ds.n_applications == len({t.app.name for t in traces})
        # concat and the streamed assembler, parts out of name order.
        parts = [ds.subset(~keep), only]
        order = np.concatenate([np.flatnonzero(~keep), np.flatnonzero(keep)])
        reordered = {k: v[order] for k, v in expected.items()}
        _assert_names(concat_datasets(parts), reordered)
        assembler = DatasetAssembler()
        for part in parts:
            assembler.append(part)
        _assert_names(assembler.finish(), reordered)
        # The SimCache dataset tier.
        cache = SimCache(tmp_path / "sc")
        cache.store_dataset("k" * 64, ds)
        _assert_names(cache.load_dataset("k" * 64), expected)
        # The train arena ships codes and tables as bulk arrays.
        arena = _build_train_arena(_rf_factory, {Mode.HIGH_PERF: ds})
        try:
            _assert_names(_datasets_from_arena(arena)[Mode.HIGH_PERF],
                          expected)
        finally:
            arena.close()

    def test_from_rows_rejects_ambiguous_trace_names(self):
        with pytest.raises(DatasetError):
            RowNames.from_rows(np.array(["a", "b"]), np.array(["w", "w"]),
                               np.array(["t", "t"]))
