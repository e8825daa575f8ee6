"""Chaos-mode tests for the fault-tolerant execution engine.

The resilience contract (``repro.exec``): under any deterministic
fault plan — worker crashes, task hangs, unpicklable payloads,
cache bit-rot, corrupt arena segments — a run either produces results
bit-identical to the fault-free serial path, or raises a typed
:class:`~repro.errors.ExecFaultError`. It never silently returns a
wrong answer. Every equivalence assertion here is exact, never
approximate.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.predictor import DualModePredictor
from repro.data.builders import build_mode_dataset
from repro.errors import (
    ArenaIntegrityError,
    ConfigurationError,
    ExecFaultError,
    WorkerTimeoutError,
)
from repro.exec import (
    FaultPlan,
    ParallelMap,
    SimCache,
    TraceArena,
    close_pools,
    inject,
    install_fault_plan,
    reset_default,
)
from repro.exec import parallel as parallel_mod
from repro.obs.metrics import METRICS
from repro.exec.arena import MAGIC, _PREFIX_LEN
from repro.exec.faults import active_plan
from repro.exec.simcache import _flip_byte
from repro.ml.base import Estimator
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application


def _square(i):
    return i * i


def _inverse(i):
    return 1 // i


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


@pytest.fixture(autouse=True)
def _fault_hygiene(monkeypatch):
    """No plan leaks in or out of a test; pools never outlive one."""
    reset_default()
    install_fault_plan(None)
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    yield
    install_fault_plan(None)
    close_pools()
    reset_default()


@pytest.fixture(scope="module")
def traces():
    out = []
    for i, family in enumerate(["pointer_chase", "compute_fp",
                                "store_burst"]):
        app = generate_application(f"fltapp{i}", "test", {family: 1.0},
                                   seed=60 + i)
        out.extend(app.workload(w).trace(80, 0) for w in range(2))
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


def _results_equal(a, b, context=""):
    assert a.trace_name == b.trace_name, context
    assert np.array_equal(a.modes, b.modes), context
    assert np.array_equal(a.ipc, b.ipc), context
    assert np.array_equal(a.cycles, b.cycles), context
    assert a.energy_j == b.energy_j, context
    assert a.switch_count == b.switch_count, context


class TestFaultPlan:
    def test_parse_and_spec_round_trip(self):
        plan = FaultPlan.parse("seed=7,crash=0.05,corrupt_cache=0.1,"
                               "hang_s=0.5")
        assert plan.seed == 7
        assert plan.crash == 0.05
        assert plan.corrupt_cache == 0.1
        assert plan.hang_s == 0.5
        assert FaultPlan.parse(plan.spec()) == plan

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("bogus")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("unknown_kind=0.5")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("crash=lots")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("crash=1.5")
        with pytest.raises(ConfigurationError):
            FaultPlan(hang_s=-1.0)

    def test_fires_is_deterministic_and_rate_bounded(self):
        plan = FaultPlan(seed=11, crash=0.3)
        first = [plan.fires("crash", f"site{i}") for i in range(2000)]
        second = [plan.fires("crash", f"site{i}") for i in range(2000)]
        assert first == second
        rate = sum(first) / len(first)
        assert 0.25 < rate < 0.35
        assert not any(FaultPlan(seed=11).fires("crash", f"site{i}")
                       for i in range(100))
        assert all(FaultPlan(seed=11, crash=1.0).fires("crash", f"s{i}")
                   for i in range(100))

    def test_occurrences_draw_fresh_decisions(self):
        plan = FaultPlan(seed=4, corrupt_cache=0.5)
        draws = {plan.fires("corrupt_cache", "key", occurrence=i)
                 for i in range(64)}
        assert draws == {True, False}

    def test_install_overrides_env(self, monkeypatch):
        assert active_plan() is None
        monkeypatch.setenv("REPRO_FAULT_SPEC", "seed=1,crash=0.2")
        assert active_plan() == FaultPlan(seed=1, crash=0.2)
        installed = FaultPlan(seed=9, hang=0.4)
        install_fault_plan(installed)
        assert active_plan() is installed
        install_fault_plan(None)
        assert active_plan() == FaultPlan(seed=1, crash=0.2)


class TestCrashRecovery:
    def test_thread_crash_retries_then_serial(self):
        expected = [_square(i) for i in range(9)]
        with inject(FaultPlan(seed=0, crash=1.0)):
            pmap = ParallelMap(backend="thread", n_workers=2,
                               chunk_size=3, retries=1)
            retries_before = METRICS.count("parallel.retries")
            serial_before = METRICS.count("parallel.fallback_serial")
            assert pmap.map(_square, range(9),
                            stage="unit_tcrash") == expected
        assert METRICS.count("parallel.retries") >= retries_before + 1
        assert (METRICS.count("parallel.fallback_serial")
                == serial_before + 1)
        assert METRICS.count("faults.injected.crash") >= 2

    def test_process_crash_walks_the_full_ladder(self, monkeypatch):
        close_pools()  # new pools must fork with the spec in their env
        monkeypatch.setenv("REPRO_FAULT_SPEC", "seed=0,crash=1.0")
        pmap = ParallelMap(backend="process", n_workers=2,
                           chunk_size=3, retries=2)
        rebuilds = METRICS.count("parallel.pool_rebuild")
        degrades = METRICS.count("parallel.degrade_thread")
        fallbacks = METRICS.count("parallel.fallback_serial")
        expected = [_square(i) for i in range(10)]
        assert pmap.map(_square, range(10),
                        stage="unit_pcrash") == expected
        assert METRICS.count("parallel.pool_rebuild") == rebuilds + 1
        assert (METRICS.count("parallel.degrade_thread")
                == degrades + 1)
        assert (METRICS.count("parallel.fallback_serial")
                == fallbacks + 1)

    def test_genuine_task_error_is_never_retried(self):
        with inject(FaultPlan(seed=0)):
            pmap = ParallelMap(backend="thread", n_workers=2, retries=3)
            retries_before = METRICS.count("parallel.retries")
            with pytest.raises(ZeroDivisionError):
                pmap.map(_inverse, [1, 0, 2], stage="unit_generr")
            assert METRICS.count("parallel.retries") == retries_before


class TestTimeouts:
    def test_hang_recovered_by_retry(self):
        # A plan whose hang fires on attempt 0 but not on attempt 1 at
        # the (stage, first_index) site the single chunk maps to.
        seed = next(
            s for s in range(4000)
            if FaultPlan(seed=s, hang=0.6).fires("hang", "unit_hrec/0/0")
            and not FaultPlan(seed=s, hang=0.6).fires("hang",
                                                      "unit_hrec/0/1")
        )
        expected = [_square(i) for i in range(6)]
        with inject(FaultPlan(seed=seed, hang=0.6, hang_s=0.4)):
            pmap = ParallelMap(backend="thread", n_workers=2,
                               chunk_size=10, retries=2, timeout=0.05)
            timeouts_before = METRICS.count("parallel.timeouts")
            assert pmap.map(_square, range(6),
                            stage="unit_hrec") == expected
        assert (METRICS.count("parallel.timeouts")
                == timeouts_before + 1)

    def test_timeout_exhaustion_raises_typed_error(self):
        with inject(FaultPlan(seed=0, hang=1.0, hang_s=0.4)):
            pmap = ParallelMap(backend="thread", n_workers=2,
                               chunk_size=20, retries=1, timeout=0.05)
            with pytest.raises(WorkerTimeoutError):
                pmap.map(_square, range(4), stage="unit_hfatal")
        assert METRICS.count("parallel.timeouts") >= 2

    def test_retries_and_timeout_validated(self):
        with pytest.raises(ConfigurationError):
            ParallelMap(retries=-1)
        with pytest.raises(ConfigurationError):
            ParallelMap(timeout=0)

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_RETRIES", "5")
        monkeypatch.setenv("REPRO_EXEC_TIMEOUT", "2.5")
        pmap = ParallelMap()
        assert pmap._retries() == 5
        assert pmap._timeout() == 2.5
        monkeypatch.setenv("REPRO_EXEC_TIMEOUT", "0")
        assert pmap._timeout() is None
        assert ParallelMap(retries=0, timeout=9.0)._retries() == 0


class TestPayloadFaults:
    def test_payload_fault_falls_back_serial(self):
        expected = [_square(i) for i in range(8)]
        with inject(FaultPlan(seed=0, payload=1.0)):
            serial_before = METRICS.count("parallel.fallback_serial")
            pmap = ParallelMap(backend="process", n_workers=2)
            assert pmap.map(_square, range(8),
                            stage="unit_payload") == expected
            assert (METRICS.count("parallel.fallback_serial")
                    == serial_before + 1)
        assert METRICS.count("faults.injected.payload") >= 1


SNAP_IDS = [0, 5, 9, 40]


def _snapshot(trace, cache=None):
    """One low-power snapshot through a fresh collector (empty LRU)."""
    return TelemetryCollector(simcache=cache).snapshot(
        trace, Mode.LOW_POWER, SNAP_IDS)


def _assert_same_snapshot(a, b):
    for field in ("counter_ids", "counts", "normalized", "cycles", "ipc"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


class TestSimCacheIntegrity:
    def _stale_digest_entry(self, cache):
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, __meta__=np.array(json.dumps({"m": 1})),
                 __digest__=np.array("0" * 64), a=np.arange(3))
        return key, path

    def test_digest_mismatch_quarantined(self, tmp_path):
        cache = SimCache(tmp_path / "c")
        key, path = self._stale_digest_entry(cache)
        quarantined = METRICS.count("simcache.quarantine")
        assert cache._read(key) is None
        assert METRICS.count("simcache.quarantine") == quarantined + 1
        assert not path.exists()
        assert (cache.root / "quarantine" / path.name).exists()

    def test_verify_can_be_disabled(self, monkeypatch, tmp_path):
        cache = SimCache(tmp_path / "c")
        key, _ = self._stale_digest_entry(cache)
        monkeypatch.setenv("REPRO_SIMCACHE_VERIFY", "0")
        entry = cache._read(key)
        assert entry is not None
        payload, meta = entry
        assert meta == {"m": 1}
        assert np.array_equal(payload["a"], np.arange(3))

    def test_flipped_byte_detected_and_recomputed(self, traces, tmp_path):
        trace = traces[0]
        plain = _snapshot(trace)
        cache = SimCache(tmp_path / "c")
        collector = TelemetryCollector(simcache=cache)
        collector.snapshot(trace, Mode.LOW_POWER, SNAP_IDS)
        key = cache.snapshot_key(trace, Mode.LOW_POWER,
                                 collector.model.machine, SNAP_IDS,
                                 collector.catalog_token())
        _flip_byte(cache._path(key))
        quarantined = METRICS.count("simcache.quarantine")
        reloaded = _snapshot(trace, cache)
        assert METRICS.count("simcache.quarantine") == quarantined + 1
        _assert_same_snapshot(plain, reloaded)

    def test_injected_corruption_recovers_bit_identical(self, traces,
                                                        tmp_path):
        trace = traces[1]
        plain = _snapshot(trace)
        cache = SimCache(tmp_path / "c")
        _snapshot(trace, cache)
        quarantined = METRICS.count("simcache.quarantine")
        with inject(FaultPlan(seed=0, corrupt_cache=1.0)):
            loaded = _snapshot(trace, cache)
        assert METRICS.count("simcache.quarantine") == quarantined + 1
        assert METRICS.count("faults.injected.corrupt_cache") >= 1
        _assert_same_snapshot(plain, loaded)

    def test_chaotic_cached_dataset_bit_identical(self, traces, tmp_path):
        ids = [0, 1, 2]
        plain = build_mode_dataset(traces, Mode.HIGH_PERF, ids,
                                   collector=TelemetryCollector())
        cache = SimCache(tmp_path / "d")
        with inject(FaultPlan(seed=3, corrupt_cache=0.5)):
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


class TestArenaIntegrity:
    def test_truncated_segment_rejected(self, traces, tmp_path):
        arena = TraceArena.build(traces[:2])
        try:
            blob = Path(arena.handle).read_bytes()
            bad = tmp_path / "trunc.bin"
            bad.write_bytes(blob[:len(MAGIC) + 4])
            with pytest.raises(ArenaIntegrityError):
                TraceArena.attach(str(bad))
        finally:
            arena.close()

    def test_corrupt_header_fails_checksum(self, traces, tmp_path):
        arena = TraceArena.build(traces[:2])
        try:
            blob = bytearray(Path(arena.handle).read_bytes())
            blob[len(MAGIC) + _PREFIX_LEN + 3] ^= 0xFF
            bad = tmp_path / "rot.bin"
            bad.write_bytes(bytes(blob))
            with pytest.raises(ArenaIntegrityError):
                TraceArena.attach(str(bad))
        finally:
            arena.close()

    def test_injected_attach_fault_falls_back_bit_identical(
            self, traces, predictor, monkeypatch):
        cpu = AdaptiveCPU(predictor, collector=TelemetryCollector())
        serial = cpu.run_many(traces,
                              pmap=ParallelMap(backend="serial"))
        close_pools()
        monkeypatch.setenv("REPRO_FAULT_SPEC", "seed=1,corrupt_arena=1.0")
        monkeypatch.setenv("REPRO_EXEC_ARENA", "1")
        fallbacks = METRICS.count("arena.attach_fallback")
        chaotic = cpu.run_many(
            traces, pmap=ParallelMap(backend="process", n_workers=2))
        assert (METRICS.count("arena.attach_fallback")
                == fallbacks + 1)
        for rs, rc in zip(serial, chaotic):
            _results_equal(rs, rc, "corrupt_arena")


class TestChaosEquivalence:
    """The headline contract, end to end: any plan, any backend —
    bit-identical results or a typed error, never a wrong answer."""

    PLANS = (
        "seed=3,crash=0.3",
        "seed=5,hang=0.2,hang_s=0.05",
        "seed=2,corrupt_arena=1.0",
        "seed=9,payload=1.0",
    )

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("spec", PLANS)
    def test_run_many_under_chaos(self, traces, predictor, monkeypatch,
                                  spec, backend):
        cpu = AdaptiveCPU(predictor, collector=TelemetryCollector())
        serial = cpu.run_many(traces,
                              pmap=ParallelMap(backend="serial"))
        close_pools()  # pools must fork after the spec lands in env
        monkeypatch.setenv("REPRO_FAULT_SPEC", spec)
        pmap = ParallelMap(backend=backend, n_workers=2, retries=2,
                           timeout=30.0)
        try:
            chaotic = cpu.run_many(traces, pmap=pmap)
        except ExecFaultError:
            return  # typed surrender is allowed; silent wrongness is not
        for rs, rc in zip(serial, chaotic):
            _results_equal(rs, rc, f"{spec}/{backend}")

    def test_serial_injected_run_is_fault_free_identical(
            self, traces, predictor, monkeypatch):
        """Crash/hang faults only exist where there is a worker, so a
        serial run under an aggressive plan is still bit-identical."""
        cpu = AdaptiveCPU(predictor, collector=TelemetryCollector())
        baseline = cpu.run_many(traces,
                                pmap=ParallelMap(backend="serial"))
        with inject(FaultPlan(seed=0, crash=1.0, hang=1.0, hang_s=0.0)):
            injected = cpu.run_many(traces,
                                    pmap=ParallelMap(backend="serial"))
        for rs, ri in zip(baseline, injected):
            _results_equal(rs, ri, "serial-under-injection")


class TestPoolHygiene:
    def test_close_pools_drains_discarded(self):
        pool = parallel_mod._get_pool("thread", 2)
        parallel_mod._discard_pool("thread", 2, pool)
        assert pool in parallel_mod._DISCARDED_POOLS
        close_pools()
        assert not parallel_mod._DISCARDED_POOLS
        assert ("thread", 2) not in parallel_mod._POOLS


class TestResilienceReport:
    def test_report_has_resilience_section(self):
        METRICS.incr("parallel.retries")
        METRICS.incr("faults.injected.crash")
        text = METRICS.report()
        assert "resilience:" in text
        assert "parallel.retries" in text
        assert "faults.injected.crash" in text
        resilience = METRICS.resilience()
        assert resilience["parallel.retries"] >= 1
        assert resilience["faults.injected.crash"] >= 1
