"""Tier-0 learned surrogate (repro.surrogate).

Contract under test: with ``REPRO_SURROGATE`` off the pipeline is
bit-identical to a build where the surrogate never existed; with it
on, every rejected pair falls back bit-identically, the
accept/fallback partition is a pure function of ``(trace, mode,
trained tier)`` — never of batching or backend — and a damaged
persisted tier is quarantined and retrained, not trusted.
"""

import numpy as np
import pytest

import repro.surrogate.tier as tier_mod
from repro.data.builders import build_mode_dataset
from repro.exec import ParallelMap, SimCache, reset_default
from repro.obs.metrics import METRICS
from repro.surrogate import SurrogateTier
from repro.telemetry.collector import TelemetryCollector
from repro.uarch.interval_model import IntervalModel
from repro.uarch.modes import Mode
from repro.workloads.generator import generate_application

IDS = [0, 1, 2, 3]


@pytest.fixture(autouse=True)
def _no_global_override(monkeypatch):
    reset_default()
    monkeypatch.delenv("REPRO_SIMCACHE_DIR", raising=False)
    # Small probe corpus keeps per-test training cheap; the gate still
    # passes because the interval tier's CPI is linear in the features.
    monkeypatch.setenv("REPRO_SURROGATE_PROBES", "16")
    yield
    reset_default()


@pytest.fixture(scope="module")
def traces():
    out = []
    for i, family in enumerate(["pointer_chase", "compute_fp",
                                "store_burst"]):
        app = generate_application(f"surapp{i}", "test", {family: 1.0},
                                   seed=40 + i)
        out.extend(app.workload(w).trace(90, 0) for w in range(2))
    return out


def _build(traces, pmap=None):
    return build_mode_dataset(traces, Mode.HIGH_PERF, IDS,
                              collector=TelemetryCollector(), pmap=pmap)


def _assert_identical(a, b):
    for field in ("x", "y", "groups", "workloads", "traces",
                  "counter_ids"):
        fa, fb = getattr(a, field), getattr(b, field)
        assert fa.dtype == fb.dtype and np.array_equal(fa, fb), field
    assert a.mode == b.mode
    assert a.granularity == b.granularity
    assert a.sla_floor == b.sla_floor


class TestBitIdentity:
    def test_gate_reject_all_matches_flag_off(self, traces, monkeypatch):
        monkeypatch.setenv("REPRO_SURROGATE", "0")
        off = _build(traces)
        # An impossible confidence bar: the tier trains and activates
        # but rejects every pair, so the interval fallback must
        # reproduce the flag-off build bit for bit.
        monkeypatch.setenv("REPRO_SURROGATE", "1")
        monkeypatch.setenv("REPRO_SURROGATE_THRESHOLD", "1e-12")
        accepted = METRICS.count("surrogate.accepted")
        fallback = METRICS.count("surrogate.fallback")
        on = _build(traces)
        assert METRICS.count("surrogate.accepted") == accepted
        # One miss per (trace, mode) pair; both modes simulate (labels
        # come from the cross-mode gating comparison).
        assert (METRICS.count("surrogate.fallback")
                == fallback + 2 * len(traces))
        _assert_identical(off, on)

    def test_default_threshold_accepts_and_labels_agree(self, traces,
                                                        monkeypatch):
        monkeypatch.setenv("REPRO_SURROGATE", "0")
        off = _build(traces)
        monkeypatch.setenv("REPRO_SURROGATE", "1")
        accepted = METRICS.count("surrogate.accepted")
        on = _build(traces)
        assert METRICS.count("surrogate.accepted") > accepted
        # The supervised signal survives the fast path: identical rows
        # and identical labels even where the surrogate served physics.
        assert np.array_equal(off.traces, on.traces)
        assert np.array_equal(off.y, on.y)


class TestCrossBackend:
    def test_partition_and_bits_backend_invariant(self, traces,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_SURROGATE", "1")
        base_acc = METRICS.count("surrogate.accepted")
        base_fb = METRICS.count("surrogate.fallback")
        serial = _build(traces)
        acc = METRICS.count("surrogate.accepted") - base_acc
        fb = METRICS.count("surrogate.fallback") - base_fb
        # The corpus must split both ways, or invariance is vacuous.
        assert acc > 0 and fb > 0
        for backend in ("thread", "process"):
            parallel = _build(
                traces, pmap=ParallelMap(backend=backend, n_workers=2))
            _assert_identical(serial, parallel)


class TestAgreementGate:
    def test_refusal_serves_full_fallback(self, traces, monkeypatch):
        monkeypatch.setenv("REPRO_SURROGATE", "0")
        off = _build(traces)
        monkeypatch.setenv("REPRO_SURROGATE", "1")
        # An unreachable agreement bar: training completes but the
        # gate refuses activation, so every pair falls back.
        monkeypatch.setattr(tier_mod, "MIN_SPEARMAN", 2.0)
        refused = METRICS.count("surrogate.refused")
        accepted = METRICS.count("surrogate.accepted")
        on = _build(traces)
        assert METRICS.count("surrogate.refused") > refused
        assert METRICS.count("surrogate.accepted") == accepted
        _assert_identical(off, on)


class TestPersistence:
    def test_cache_round_trip_hit(self, tmp_path):
        cache = SimCache(tmp_path)
        tier = SurrogateTier(IntervalModel(simcache=cache),
                             threshold=0.02, n_probes=8)
        tier.train()
        assert tier.active
        key = tier._cache_key()
        assert key and cache.has(key)
        hits = METRICS.count("surrogate.cache_hit")
        warm = SurrogateTier(IntervalModel(simcache=SimCache(tmp_path)),
                             threshold=0.02, n_probes=8)
        warm.train()
        assert METRICS.count("surrogate.cache_hit") == hits + 1
        assert warm.active
        assert warm.agreement == tier.agreement
        for mode in Mode:
            for a, b in zip(tier._ensembles[mode].weights,
                            warm._ensembles[mode].weights):
                assert np.array_equal(a, b)

    def test_corrupt_entry_quarantined_and_retrained(self, tmp_path):
        cache = SimCache(tmp_path)
        tier = SurrogateTier(IntervalModel(simcache=cache),
                             threshold=0.02, n_probes=8)
        tier.train()
        key = tier._cache_key()
        path = cache._path(key)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        quarantined = METRICS.count("simcache.quarantine")
        hits = METRICS.count("surrogate.cache_hit")
        fresh = SurrogateTier(IntervalModel(simcache=SimCache(tmp_path)),
                              threshold=0.02, n_probes=8)
        fresh.train()
        # The damaged entry was moved aside, read as a miss, and the
        # tier retrained to the same bits — never trusted.
        assert METRICS.count("simcache.quarantine") == quarantined + 1
        assert METRICS.count("surrogate.cache_hit") == hits
        assert fresh.active
        assert (tmp_path / "quarantine").is_dir()
        assert cache.has(key)
        for mode in Mode:
            for a, b in zip(tier._ensembles[mode].weights,
                            fresh._ensembles[mode].weights):
                assert np.array_equal(a, b)
