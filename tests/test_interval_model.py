"""Tests for the fast interval performance model."""

import sys
import threading

import numpy as np
import pytest

from repro.uarch.interval_model import (
    IntervalModel,
    SQ_PENALTY_HIGH_PERF,
    SQ_PENALTY_LOW_POWER,
)
from repro.uarch.modes import Mode
from repro.uarch.signals import signal_index
from repro.workloads.generator import generate_application, physics_matrix
from repro.workloads.phases import get_archetype
from repro import rng as rng_mod


@pytest.fixture(scope="module")
def model():
    return IntervalModel()


@pytest.fixture(scope="module")
def trace():
    app = generate_application(
        "im", "test",
        {"pointer_chase": 0.4, "compute_fp": 0.4, "store_burst": 0.2},
        seed=11)
    return app.workload(0).trace(200, 0)


class TestSimulate:
    def test_ipc_bounded_by_width(self, model, trace):
        for mode in Mode:
            result = model.simulate(trace, mode)
            assert np.all(result.ipc > 0.0)
            assert np.all(result.ipc <= model.effective_width(mode) + 1e-9)

    def test_deterministic(self, trace):
        a = IntervalModel().simulate(trace, Mode.HIGH_PERF)
        b = IntervalModel().simulate(trace, Mode.HIGH_PERF)
        assert np.array_equal(a.ipc, b.ipc)
        assert np.array_equal(a.signals, b.signals)

    def test_cycles_consistent_with_ipc(self, model, trace):
        result = model.simulate(trace, Mode.LOW_POWER)
        expected = trace.interval_instructions / result.ipc
        assert np.allclose(result.cycles, expected)

    def test_mean_ipc_aggregates(self, model, trace):
        result = model.simulate(trace, Mode.HIGH_PERF)
        total_inst = result.n_intervals * result.interval_instructions
        assert result.mean_ipc == pytest.approx(
            total_inst / result.total_cycles)

    def test_cache_returns_same_object(self, trace):
        m = IntervalModel()
        a = m.simulate(trace, Mode.HIGH_PERF)
        b = m.simulate(trace, Mode.HIGH_PERF)
        assert a is b

    def test_cache_eviction_bounded(self, trace):
        m = IntervalModel(cache_size=1)
        m.simulate(trace, Mode.HIGH_PERF)
        m.simulate(trace, Mode.LOW_POWER)
        assert len(m._cache) == 1


class TestModeEffects:
    def _phase_ratio(self, model, archetype_name):
        phase = get_archetype(archetype_name).sample(
            rng_mod.stream(5, "ratio", archetype_name))
        physics = physics_matrix([phase])
        ipc = {}
        for mode in Mode:
            adjusted = model.mode_adjusted_physics(physics, mode)
            cpi = sum(model.cpi_components(adjusted, mode).values())
            ipc[mode] = min(1.0 / cpi[0], model.effective_width(mode))
        return ipc[Mode.LOW_POWER] / ipc[Mode.HIGH_PERF]

    def test_compute_phases_lose_when_gated(self, model):
        assert self._phase_ratio(model, "gemm_tile") < 0.8

    def test_pointer_chase_gates_for_free(self, model):
        assert self._phase_ratio(model, "linked_list_walk") > 0.95

    def test_store_burst_violates_but_plausibly(self, model):
        # The blindspot phase: a clear SLA violation, but not a crash
        # to near-zero IPC (Section 7.1 discussion).
        ratio = self._phase_ratio(model, "store_burst_serialize")
        assert 0.4 < ratio < 0.85

    def test_bandwidth_penalised_by_halved_mshrs(self, model):
        assert self._phase_ratio(model, "stream_copy") < 0.85

    def test_sq_penalty_ordering(self):
        assert SQ_PENALTY_LOW_POWER > SQ_PENALTY_HIGH_PERF

    def test_low_power_sees_more_frontend_misses(self, model, trace):
        physics = trace.physics()
        adjusted = model.mode_adjusted_physics(physics, Mode.LOW_POWER)
        col = list(physics_matrix(trace.app.phases)[0]).index  # noqa: F841
        from repro.workloads.generator import PHYSICS_FIELDS
        ic = PHYSICS_FIELDS.index("icache_mpki")
        assert np.all(adjusted[:, ic] >= physics[:, ic])

    def test_workload_jitter_shared_between_modes(self, model, trace):
        # Both-mode runs must observe the same workload: the memory
        # signal counts (mode-independent physics) should correlate
        # almost perfectly across modes.
        hp = model.simulate(trace, Mode.HIGH_PERF)
        lp = model.simulate(trace, Mode.LOW_POWER)
        i = signal_index("l3_misses")
        corr = np.corrcoef(hp.signals[:, i], lp.signals[:, i])[0, 1]
        # Only per-mode measurement noise may decorrelate the modes.
        assert corr > 0.9


class TestSignals:
    def test_instructions_signal_exact(self, model, trace):
        result = model.simulate(trace, Mode.HIGH_PERF)
        assert np.allclose(result.signal("instructions"),
                           trace.interval_instructions)

    def test_cycles_signal_matches(self, model, trace):
        result = model.simulate(trace, Mode.HIGH_PERF)
        assert np.allclose(result.signal("cycles"), result.cycles)

    def test_l1_hits_non_negative(self, model, trace):
        result = model.simulate(trace, Mode.LOW_POWER)
        assert np.all(result.signal("l1d_hits") >= 0.0)

    def test_evictions_split_into_silent_and_dirty(self, model, trace):
        result = model.simulate(trace, Mode.HIGH_PERF)
        total = result.signal("l2_evictions")
        parts = (result.signal("l2_silent_evictions")
                 + result.signal("l2_dirty_evictions"))
        # Signals carry independent noise; check they track closely.
        assert np.corrcoef(total, parts)[0, 1] > 0.95

    def test_no_intercluster_transfers_when_gated(self, model, trace):
        result = model.simulate(trace, Mode.LOW_POWER)
        assert np.all(result.signal("intercluster_transfers") == 0.0)

    def test_stall_cycles_below_cycles(self, model, trace):
        result = model.simulate(trace, Mode.LOW_POWER)
        # Allow noise headroom.
        assert np.all(result.signal("stall_cycles")
                      <= result.cycles * 1.5)

    def test_sq_occupancy_separates_store_bursts(self, model):
        ratios = {}
        for name in ("store_burst_log", "linked_list_walk"):
            phase = get_archetype(name).sample(rng_mod.stream(2, name))
            app = generate_application(
                name, "t", {get_archetype(name).family: 1.0}, seed=13)
            tr = app.workload(0).trace(50, 0)
            res = model.simulate(tr, Mode.HIGH_PERF)
            ratios[name] = (res.signal("sq_occupancy")
                            / res.signal("cycles")).mean()
        assert ratios["store_burst_log"] > 5 * ratios["linked_list_walk"]


class TestLruThreadSafety:
    def test_concurrent_lookups_and_evictions(self):
        # A lookup refreshes recency while other threads insert and
        # evict. Without one lock around each lookup-plus-refresh and
        # insert-plus-evict, an entry evicted between the two steps
        # raises KeyError. A tiny switch interval forces interleaving.
        traces = [generate_application(f"lru{i}", "test",
                                       {"pointer_chase": 1.0},
                                       seed=40 + i).workload(0).trace(8, 0)
                  for i in range(2)]
        pairs = [(trace, mode) for trace in traces for mode in Mode][:3]
        model = IntervalModel(cache_size=2)
        errors = []

        def worker(seed):
            order = np.random.default_rng(seed).integers(0, len(pairs), 1000)
            try:
                for i in order:
                    model.simulate(*pairs[i])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(model._cache) <= 2
