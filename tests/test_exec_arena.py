"""Tests for the zero-copy trace arena and adaptive dispatch.

The arena's contract: packing a corpus into a memory-mapped segment
and reconstructing it (in this process or a worker) changes *where*
arrays live, never their values — every test here asserts exact
equality. Adaptive dispatch's contract: backend selection is an
execution detail with no effect on results.
"""

import os
import pickle

import numpy as np
import pytest

from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.predictor import DualModePredictor
from repro.data.builders import build_mode_dataset
from repro.errors import ArenaIntegrityError
from repro.exec import ParallelMap, TraceArena, reset_default
from repro.obs.metrics import METRICS
from repro.exec import arena as arena_mod
from repro.exec.parallel import AUTO_MIN_PARALLEL_S
from repro.obs.metrics import Metrics
from repro.ml.base import Estimator
from repro.ml.forest import RandomForestClassifier
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.interval_model import IntervalModel
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application


class _ConstModel(Estimator):
    """Fixed-probability model; module level so pools can pickle it."""

    def __init__(self, prob: float) -> None:
        self.prob = prob
        self.decision_threshold = 0.5

    def fit(self, x, y):
        return self

    def predict_proba(self, x):
        return np.full(x.shape[0], self.prob)


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
        app = generate_application(f"arnapp{i}", "test", {family: 1.0},
                                   seed=50 + i)
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


def _results_equal(a, b):
    assert a.trace_name == b.trace_name
    assert np.array_equal(a.modes, b.modes)
    assert np.array_equal(a.ipc, b.ipc)
    assert np.array_equal(a.cycles, b.cycles)
    assert a.energy_j == b.energy_j
    assert a.switch_count == b.switch_count


class TestArenaRoundTrip:
    def test_traces_reconstruct_bit_identical(self, traces):
        arena = TraceArena.build(traces)
        try:
            arena_mod.detach_all()
            attached = TraceArena.attach(arena.handle)
            assert attached.n_traces == len(traces)
            for i, original in enumerate(traces):
                rebuilt = attached.trace(i)
                assert rebuilt.name == original.name
                assert rebuilt.seed == original.seed
                assert (rebuilt.interval_instructions
                        == original.interval_instructions)
                assert np.array_equal(rebuilt.phase_seq,
                                      original.phase_seq)
                assert np.array_equal(rebuilt.physics(),
                                      original.physics())
        finally:
            arena.close()

    def test_views_are_zero_copy_and_read_only(self, traces):
        arena = TraceArena.build(
            traces[:2],
            arrays={"x": np.arange(12, dtype=np.float64).reshape(3, 4)})
        try:
            seq = arena.trace(0).phase_seq
            x = arena.array("x")
            assert not seq.flags.writeable
            assert not x.flags.writeable
            assert not seq.flags.owndata  # a view of the mapping
            with pytest.raises(ValueError):
                x[0, 0] = 99.0
            assert np.array_equal(x,
                                  np.arange(12.0).reshape(3, 4))
        finally:
            arena.close()

    def test_objects_and_machine_round_trip(self, traces):
        model = IntervalModel()
        arena = TraceArena.build(traces[:1],
                                 objects={"payload": {"k": [1, 2, 3]}},
                                 machine=model.machine)
        try:
            arena_mod.detach_all()
            attached = TraceArena.attach(arena.handle)
            assert attached.object("payload") == {"k": [1, 2, 3]}
            assert attached.machine == model.machine
        finally:
            arena.close()

    def test_simulation_equal_on_reconstructed_traces(self, traces):
        arena = TraceArena.build(traces[:2])
        try:
            arena_mod.detach_all()
            attached = TraceArena.attach(arena.handle)
            for i in range(2):
                direct = IntervalModel().simulate(
                    traces[i], Mode.LOW_POWER)
                rebuilt = IntervalModel().simulate(
                    attached.trace(i), Mode.LOW_POWER)
                assert np.array_equal(direct.ipc, rebuilt.ipc)
                assert np.array_equal(direct.cycles, rebuilt.cycles)
                assert np.array_equal(direct.signals, rebuilt.signals)
        finally:
            arena.close()

    def test_attach_is_memoised(self, traces):
        arena = TraceArena.build(traces[:1])
        try:
            hits = METRICS.count("arena.attach_hit")
            assert TraceArena.attach(arena.handle) is arena
            assert METRICS.count("arena.attach_hit") == hits + 1
        finally:
            arena.close()

    def test_close_unlinks_backing_file(self, traces):
        arena = TraceArena.build(traces[:1])
        path = arena.handle
        assert os.path.exists(path)
        arena.close()
        assert not os.path.exists(path)
        arena.close()  # idempotent

    def test_closed_arena_leaves_worker_attach_cache(self, traces):
        first = TraceArena.build(traces[:1], objects={"held": [1, 2, 3]})
        # Forget the owner's own entry, so the next attach maps the
        # segment as a pool worker does.
        arena_mod.detach_all()
        attached = TraceArena.attach(first.handle)
        assert attached is not first
        first.close()
        second = TraceArena.build(traces[1:2])
        try:
            TraceArena.attach(second.handle)
            assert first.handle not in arena_mod._ATTACHED
            assert attached._closed
        finally:
            second.close()

    def test_non_arena_file_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.bin"
        bogus.write_bytes(b"not an arena" * 10)
        with pytest.raises(ArenaIntegrityError):
            TraceArena.attach(str(bogus))


class TestArenaDispatch:
    def test_kill_switch_equivalent(self, traces, predictor, monkeypatch):
        cpu = AdaptiveCPU(predictor, collector=TelemetryCollector())
        serial = cpu.run_many(traces, pmap=ParallelMap(backend="serial"))
        pmap = ParallelMap(backend="process", n_workers=2)
        monkeypatch.setenv("REPRO_EXEC_ARENA", "0")
        plain = cpu.run_many(traces, pmap=pmap)
        monkeypatch.setenv("REPRO_EXEC_ARENA", "1")
        builds = METRICS.count("arena.builds")
        packed = cpu.run_many(traces, pmap=pmap)
        assert METRICS.count("arena.builds") == builds + 1
        for a, b, c in zip(serial, plain, packed):
            _results_equal(a, b)
            _results_equal(a, c)

    def test_pool_reuse_deterministic(self, traces, predictor):
        """Two back-to-back run_many calls on a reused warm pool."""
        cpu = AdaptiveCPU(predictor, collector=TelemetryCollector())
        pmap = ParallelMap(backend="process", n_workers=2,
                           persistent=True)
        first = cpu.run_many(traces, pmap=pmap)
        reuse = METRICS.count("parallel.pool_reuse")
        second = cpu.run_many(traces, pmap=pmap)
        assert METRICS.count("parallel.pool_reuse") > reuse
        for a, b in zip(first, second):
            _results_equal(a, b)

    def test_build_dataset_kill_switch_equivalent(self, traces,
                                                  monkeypatch):
        ids = [0, 1, 2]
        serial = build_mode_dataset(traces, Mode.LOW_POWER, ids,
                                    collector=TelemetryCollector())
        pmap = ParallelMap(backend="process", n_workers=2)
        by_arena = {}
        for setting in ("0", "1"):
            monkeypatch.setenv("REPRO_EXEC_ARENA", setting)
            by_arena[setting] = build_mode_dataset(
                traces, Mode.LOW_POWER, ids,
                collector=TelemetryCollector(), pmap=pmap)
        for ds in by_arena.values():
            assert np.array_equal(serial.x, ds.x)
            assert np.array_equal(serial.y, ds.y)
            assert np.array_equal(serial.traces, ds.traces)

    def test_forest_fit_arena_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(400, 6))
        y = (x[:, 0] + 0.3 * x[:, 1] > 0).astype(np.int64)

        def fit(backend, arena):
            monkeypatch.setenv("REPRO_EXEC_ARENA", arena)
            monkeypatch.setenv("REPRO_EXEC_BACKEND", backend)
            return RandomForestClassifier(n_trees=4, max_depth=4,
                                          seed=5).fit(x, y)

        reference = fit("serial", "1")
        for backend, arena in (("process", "1"), ("process", "0"),
                               ("thread", "1")):
            forest = fit(backend, arena)
            assert np.array_equal(reference.predict_proba(x),
                                  forest.predict_proba(x)), \
                (backend, arena)
            assert forest.total_nodes == reference.total_nodes

    def test_shared_model_infers_once_per_model(self, traces):
        """Modes sharing one estimator get one concatenated call."""
        shared = _ConstModel(0.6)
        predictor = DualModePredictor(
            name="shared",
            models={Mode.HIGH_PERF: shared, Mode.LOW_POWER: shared},
            counter_ids=np.array([0, 1, 2]),
            granularity_factor=1,
        )
        cpu = AdaptiveCPU(predictor, collector=TelemetryCollector())
        calls = METRICS.count("adaptive_infer.model_calls")
        batched = cpu.run_many(traces, pmap=ParallelMap(backend="serial"))
        assert METRICS.count("adaptive_infer.model_calls") == calls + 1
        singles = [cpu.run(trace) for trace in traces]
        for a, b in zip(singles, batched):
            _results_equal(a, b)

    def test_interval_model_pickles_without_lru(self, traces):
        model = IntervalModel()
        model.simulate(traces[0], Mode.LOW_POWER)
        assert len(model._cache) > 0
        clone = pickle.loads(pickle.dumps(model))
        assert len(clone._cache) == 0
        direct = model.simulate(traces[1], Mode.HIGH_PERF)
        rebuilt = clone.simulate(traces[1], Mode.HIGH_PERF)
        assert np.array_equal(direct.signals, rebuilt.signals)


class TestAdaptiveDispatch:
    def test_auto_single_item_stays_serial(self):
        pmap = ParallelMap(backend="auto", n_workers=2)
        assert pmap._resolve_backend(1, "auto_stage") == "serial"
        creates = METRICS.count("parallel.pool_create")
        assert pmap.map(lambda v: v + 1, [41],
                        stage="auto_single") == [42]
        assert METRICS.count("parallel.pool_create") == creates

    def test_auto_probe_keeps_cheap_work_serial(self):
        pmap = ParallelMap(backend="auto", n_workers=2)
        creates = METRICS.count("parallel.pool_create")
        result = pmap.map(lambda v: v * 2, range(8),
                          stage="auto_cheap_stage")
        assert result == [v * 2 for v in range(8)]
        # Microsecond items never amortise a pool.
        assert METRICS.count("parallel.pool_create") == creates

    def test_auto_uses_cost_history(self):
        stats = METRICS
        stage = "auto_history_stage"
        stats.add_time(stage, 1.0, busy_s=1.0)
        stats.incr(f"{stage}.items", 10)  # 0.1 s/item
        pmap = ParallelMap(backend="auto", n_workers=2)
        if (os.cpu_count() or 1) > 1:
            assert pmap._resolve_backend(100, stage) == "process"
            assert pmap.uses_processes(100, stage)
        assert pmap._resolve_backend(
            1, stage) == "serial"

    def test_probe_threshold_decision(self):
        assert ParallelMap._decide_from_probe(
            AUTO_MIN_PARALLEL_S, 1) == "process"
        assert ParallelMap._decide_from_probe(1e-6, 10) == "serial"

    def test_adaptive_chunk_size_from_cost(self):
        stage = "chunk_cost_stage"
        METRICS.add_time(stage, 1.0, busy_s=1.0)
        METRICS.incr(f"{stage}.items", 100)  # 0.01 s/item
        pmap = ParallelMap(backend="process", n_workers=2)
        indexed = list(enumerate(range(40)))
        chunks = pmap._chunks(indexed, stage)
        # TARGET_CHUNK_S / 0.01 = 5 items per chunk.
        assert all(len(c) <= 5 for c in chunks)
        assert sum(len(c) for c in chunks) == 40

    def test_env_chunk_size_pins_chunking(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_CHUNK", "7")
        pmap = ParallelMap(backend="process", n_workers=2)
        chunks = pmap._chunks(list(enumerate(range(20))), "env_stage")
        assert [len(c) for c in chunks] == [7, 7, 6]

    def test_payload_bytes_counted_for_process_maps(self, traces,
                                                    predictor):
        stage = "payload_probe_stage"
        before = METRICS.count(f"{stage}.payload_tasks")
        pmap = ParallelMap(backend="process", n_workers=2)
        pmap.map(abs, range(16), stage=stage)
        assert METRICS.count(f"{stage}.payload_tasks") == before + 1
        assert METRICS.count(f"{stage}.payload_bytes") > 0


class TestUtilizationAccounting:
    def test_capacity_tracks_per_call_workers(self):
        stats = Metrics()
        # A 4-worker parallel call at full tilt...
        stats.add_time("mixed", 1.0, busy_s=4.0, workers=4)
        # ...then a serial-fallback call of the same stage.
        stats.add_time("mixed", 1.0, busy_s=1.0, workers=1)
        stage = stats.snapshot()["stages"]["mixed"]
        # capacity = 4*1 + 1*1 = 5; busy = 5 -> fully utilised, where
        # the old max-workers denominator would report 5/8.
        assert stage["capacity_s"] == pytest.approx(5.0)
        assert stage["utilization"] == pytest.approx(1.0)

    def test_serial_only_stage_reports_full_utilization(self):
        stats = Metrics()
        stats.add_time("serial_stage", 2.0, busy_s=2.0, workers=1)
        snap = stats.snapshot()["stages"]["serial_stage"]
        assert snap["utilization"] == pytest.approx(1.0)

    def test_per_item_cost(self):
        stats = Metrics()
        assert stats.per_item_cost("nope") is None
        stats.add_time("costed", 2.0, busy_s=1.0)
        assert stats.per_item_cost("costed") is None  # no items yet
        stats.incr("costed.items", 4)
        assert stats.per_item_cost("costed") == pytest.approx(0.25)
