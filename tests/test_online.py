"""Tests for continual adaptation (repro.online) and the typed serve API."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.predictor import DualModePredictor
from repro.errors import (CheckpointError, ProtocolError,
                          StaleGenerationError, SwapGateError)
from repro.online import (DriftDetector, ModelRegistry, OnlineLearner,
                          OP_ADAPT, OP_DECIDE, TelemetryRing,
                          population_stability_index)
from repro.serve import (AdaptRequest, DecideRequest, HealthStatus,
                         SCHEMA_VERSION, ServeClient, adapt_payload,
                         build_server, load_checkpoint, parse_request,
                         save_checkpoint, serving_corpus,
                         wait_until_ready)
from repro.serve.checkpoint import corpus_fingerprint
from repro.serve.server import ConstProbModel, const_predictor
from repro.uarch.modes import Mode


def const_variant(name: str, p_high: float, p_low: float,
                  counter_ids=None,
                  granularity: int = 1) -> DualModePredictor:
    """A const predictor compatible (by default) with const_predictor()."""
    return DualModePredictor(
        name=name,
        models={Mode.HIGH_PERF: ConstProbModel(p_high),
                Mode.LOW_POWER: ConstProbModel(p_low)},
        counter_ids=(np.array([0, 1, 2, 3]) if counter_ids is None
                     else np.asarray(counter_ids)),
        granularity_factor=granularity,
    )


# ---------------------------------------------------------------------
# Telemetry ring.
# ---------------------------------------------------------------------
class TestTelemetryRing:
    def test_validates_construction(self):
        with pytest.raises(ValueError, match="capacity"):
            TelemetryRing(4)
        with pytest.raises(ValueError, match="sample"):
            TelemetryRing(16, sample=0)

    def test_records_and_windows(self):
        ring = TelemetryRing(16)
        for i in range(5):
            assert ring.record_adapt(i, 0, 0.9, 0.1, 0.5)
        assert ring.record_decide(0, 0.25)
        assert ring.occupancy() == 6
        adapt = ring.window(10, op=OP_ADAPT)
        assert adapt.shape[0] == 5
        assert list(adapt["trace_index"]) == [0, 1, 2, 3, 4]
        decide = ring.window(10, op=OP_DECIDE)
        assert decide.shape[0] == 1
        assert decide["trace_index"][0] == -1
        assert decide["low_rate"][0] == pytest.approx(0.25)

    def test_wraparound_keeps_most_recent(self):
        ring = TelemetryRing(8)
        for i in range(20):
            ring.record_adapt(i, 0, 0.5, 0.0, 0.0)
        assert ring.occupancy() == 8
        rows = ring.window(8)
        assert list(rows["trace_index"]) == list(range(12, 20))
        # seq is monotonically increasing, oldest first.
        assert list(rows["seq"]) == list(range(12, 20))
        assert ring.snapshot()["wrapped"]

    def test_sampling_is_deterministic_and_seeded(self):
        a = TelemetryRing(32, sample=3, seed=0)
        b = TelemetryRing(32, sample=3, seed=0)
        shifted = TelemetryRing(32, sample=3, seed=1)
        for i in range(12):
            a.record_adapt(i, 0, 0.5, 0.0, 0.0)
            b.record_adapt(i, 0, 0.5, 0.0, 0.0)
            shifted.record_adapt(i, 0, 0.5, 0.0, 0.0)
        assert a.sampled == b.sampled == 4
        assert list(a.window(8)["trace_index"]) == \
            list(b.window(8)["trace_index"])
        # A different seed samples a different (but deterministic)
        # phase of the same stream.
        assert list(shifted.window(8)["trace_index"]) != \
            list(a.window(8)["trace_index"])


# ---------------------------------------------------------------------
# Drift detection.
# ---------------------------------------------------------------------
def fill(ring, indices, accuracy=0.9):
    for i in indices:
        ring.record_adapt(i, 0, accuracy, 0.1, 0.5)


class TestDriftDetector:
    def test_psi_zero_for_identical_and_large_for_shift(self):
        same = np.array([0, 1, 2, 3] * 4)
        assert population_stability_index(same, same, 4) == \
            pytest.approx(0.0, abs=1e-6)
        shifted = np.full(16, 3)
        assert population_stability_index(same, shifted, 4) > 1.0

    def test_first_full_window_baselines_without_signal(self):
        ring = TelemetryRing(64)
        det = DriftDetector(8, 0.25, n_traces=4)
        assert det.check(ring, 0) is None  # empty ring, no baseline
        assert not det.snapshot()["baselined"]
        fill(ring, [0, 1, 2, 3] * 2)
        assert det.check(ring, 0) is None  # becomes the baseline
        assert det.snapshot()["baselined"]

    def test_stable_mix_never_trips(self):
        ring = TelemetryRing(64)
        det = DriftDetector(8, 0.25, n_traces=4)
        fill(ring, [0, 1, 2, 3] * 2)
        det.check(ring, 0)
        fill(ring, [0, 1, 2, 3] * 2)
        assert det.check(ring, 0) is None
        assert det.last_score == pytest.approx(0.0, abs=1e-6)

    def test_population_shift_trips(self):
        ring = TelemetryRing(64)
        det = DriftDetector(8, 0.25, n_traces=4)
        fill(ring, [0, 1, 2, 3] * 2)
        det.check(ring, 0)
        fill(ring, [3] * 8)
        signal = det.check(ring, generation=7)
        assert signal is not None
        assert signal.kind == "population"
        assert signal.score >= 0.25
        assert signal.generation == 7

    def test_accuracy_drop_trips_when_mix_is_stable(self):
        ring = TelemetryRing(64)
        det = DriftDetector(8, 0.25, n_traces=4)
        fill(ring, [0, 1, 2, 3] * 2, accuracy=0.9)
        det.check(ring, 0)
        fill(ring, [0, 1, 2, 3] * 2, accuracy=0.6)
        signal = det.check(ring, 0)
        assert signal is not None
        assert signal.kind == "accuracy"
        assert signal.score == pytest.approx(0.3, abs=1e-3)

    def test_overlapping_window_is_not_compared(self):
        # Without fresh samples the recent window IS the reference;
        # comparing them would mask real drift forever after.
        ring = TelemetryRing(64)
        det = DriftDetector(8, 0.25, n_traces=4)
        fill(ring, [0, 1, 2, 3] * 2)
        det.check(ring, 0)
        checks = det.checks
        assert det.check(ring, 0) is None
        assert det.checks == checks + 1
        assert det.last_score is None  # no comparison was made

    def test_rebaseline_adopts_recent_window(self):
        ring = TelemetryRing(64)
        det = DriftDetector(8, 0.25, n_traces=4)
        assert not det.rebaseline(ring)  # not enough samples yet
        fill(ring, [0, 1, 2, 3] * 2)
        det.check(ring, 0)
        fill(ring, [3] * 8)
        assert det.check(ring, 0) is not None
        assert det.rebaseline(ring)
        # The shifted mix is now the reference: more of it is stable.
        fill(ring, [3] * 8)
        assert det.check(ring, 0) is None


# ---------------------------------------------------------------------
# Model registry and the swap gate.
# ---------------------------------------------------------------------
class TestModelRegistry:
    def test_swap_bumps_generation_atomically(self):
        registry = ModelRegistry(AdaptiveCPU(const_predictor()))
        assert registry.generation == 0
        entry = registry.swap(const_variant("v2", 0.8, 0.3), tag="v2")
        assert entry.generation == 1
        assert registry.generation == 1
        assert registry.current() is entry
        assert registry.current().cpu.predictor.name == "v2"
        snap = registry.snapshot()
        assert snap["swaps"] == 1 and snap["tag"] == "v2"
        assert snap["last_swap_latency_ms"] is not None

    def test_gate_rejects_changed_counter_set(self):
        registry = ModelRegistry(AdaptiveCPU(const_predictor()))
        bad = const_variant("bad", 0.7, 0.4, counter_ids=[0, 1, 2])
        with pytest.raises(SwapGateError, match="counter set"):
            registry.swap(bad)
        assert registry.generation == 0  # nothing changed

    def test_gate_rejects_changed_granularity(self):
        registry = ModelRegistry(AdaptiveCPU(const_predictor()))
        bad = const_variant("bad", 0.7, 0.4, granularity=2)
        with pytest.raises(SwapGateError, match="granularity"):
            registry.swap(bad)
        assert registry.generation == 0

    def test_swapped_cpu_shares_warm_state_and_arena(self):
        founder = AdaptiveCPU(const_predictor())
        traces = serving_corpus(2, 1, 32, 11)
        founder.install_resident_arena(traces)
        registry = ModelRegistry(founder)
        try:
            shadow = registry.shadow_cpu(const_variant("s", 0.8, 0.3))
            assert shadow.collector is founder.collector
            assert shadow.power is founder.power
            assert shadow._resident_arena is founder._resident_arena
            assert shadow._resident_index is founder._resident_index
            assert shadow._resident_memo is founder._resident_memo
        finally:
            registry.close()
        assert founder._resident_arena is None


# ---------------------------------------------------------------------
# Learner: shadow gate promotion/rejection.
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def loop_parts():
    """Registry/ring/detector over a tiny const-served corpus, with a
    drift signal already tripped: baseline on traces {2,3}, recent
    window all trace 1 — the trace where an SLA-careless predictor
    realises actual violation windows."""
    traces = serving_corpus(4, 1, 64, 11)

    def build():
        registry = ModelRegistry(AdaptiveCPU(const_predictor()))
        ring = TelemetryRing(128)
        detector = DriftDetector(8, 0.25, n_traces=len(traces))
        fill(ring, [2, 3] * 4)
        detector.check(ring, 0)  # baseline
        fill(ring, [1] * 8)
        return registry, ring, detector

    return traces, build


class TestOnlineLearner:
    def test_no_drift_means_no_retrain(self, loop_parts):
        traces, build = loop_parts
        registry, ring, detector = build()
        detector.rebaseline(ring)  # adopt the shifted mix: quiet again
        learner = OnlineLearner(registry, ring, detector, traces)
        assert learner.step() is None
        assert learner.retrains == 0

    def test_equal_candidate_is_promoted(self, loop_parts):
        traces, build = loop_parts
        registry, ring, detector = build()
        promoted_gens = []
        learner = OnlineLearner(
            registry, ring, detector, traces,
            candidate_fn=lambda lr, sig, gen: const_predictor(),
            on_promote=promoted_gens.append)
        verdict = learner.step()
        assert verdict is not None and verdict.promoted
        assert verdict.generation == 1
        assert verdict.candidate_ppw == pytest.approx(
            verdict.incumbent_ppw)
        assert registry.generation == 1
        assert promoted_gens == [1]
        # Promotion re-baselines: the drifted mix is the new normal.
        assert learner.step() is None

    def test_sla_degrading_candidate_is_rejected(self, loop_parts):
        # Always-switch gates aggressively: higher PPW but it buys the
        # throughput with SLA violations — the RSV axis must veto it.
        traces, build = loop_parts
        registry, ring, detector = build()
        learner = OnlineLearner(
            registry, ring, detector, traces,
            candidate_fn=lambda lr, sig, gen:
                const_variant("always_switch", 1.0, 1.0))
        verdict = learner.step()
        assert verdict is not None and not verdict.promoted
        assert verdict.candidate_rsv > verdict.incumbent_rsv
        assert registry.generation == 0
        assert "rsv" in verdict.reason

    def test_throughput_degrading_candidate_is_rejected(self, loop_parts):
        # Never-switch is perfectly SLA-safe but gains nothing — the
        # PPW axis must veto it.
        traces, build = loop_parts
        registry, ring, detector = build()
        learner = OnlineLearner(
            registry, ring, detector, traces,
            candidate_fn=lambda lr, sig, gen:
                const_variant("never_switch", 0.0, 0.0))
        verdict = learner.step()
        assert verdict is not None and not verdict.promoted
        assert verdict.candidate_ppw < verdict.incumbent_ppw
        assert registry.generation == 0

    def test_gate_incompatible_candidate_is_rejected_not_raised(
            self, loop_parts):
        traces, build = loop_parts
        registry, ring, detector = build()
        learner = OnlineLearner(
            registry, ring, detector, traces,
            candidate_fn=lambda lr, sig, gen:
                const_variant("bad", 0.7, 0.4, counter_ids=[0, 1]))
        verdict = learner.step()
        assert verdict is not None and not verdict.promoted
        assert "swap gate" in verdict.reason
        assert registry.generation == 0

    def test_default_retrain_produces_compatible_forest(self, loop_parts):
        traces, build = loop_parts
        registry, ring, detector = build()
        learner = OnlineLearner(registry, ring, detector, traces,
                                n_trees=4, max_depth=3)
        verdict = learner.step()
        assert verdict is not None
        if verdict.promoted:
            predictor = registry.current().cpu.predictor
            assert predictor.name == "online_gen1"
            assert np.array_equal(predictor.counter_ids,
                                  np.array([0, 1, 2, 3]))


# ---------------------------------------------------------------------
# Typed API.
# ---------------------------------------------------------------------
class TestTypedApi:
    def test_adapt_request_round_trip(self):
        request = AdaptRequest(trace_index=3, tenant="t", budget_ms=5.0,
                               key="k", min_generation=1,
                               pin_generation=2)
        wire = request.to_wire()
        assert wire["op"] == "adapt"
        assert wire["schema_version"] == SCHEMA_VERSION
        assert AdaptRequest.from_wire(wire) == request

    def test_decide_request_round_trip(self):
        request = DecideRequest(mode="low_power",
                                window=[[0.0, 1.0, 2.0, 3.0]])
        assert DecideRequest.from_wire(request.to_wire()) == request

    def test_optional_fields_stay_off_the_wire(self):
        wire = AdaptRequest(trace_index=0).to_wire()
        for absent in ("budget_ms", "key", "min_generation",
                       "pin_generation"):
            assert absent not in wire

    def test_unversioned_frame_is_rejected(self):
        with pytest.raises(ProtocolError, match="schema_version None"):
            parse_request({"op": "adapt", "trace_index": 2})

    def test_future_schema_version_is_rejected(self):
        with pytest.raises(ProtocolError, match="schema_version"):
            parse_request({"op": "adapt", "trace_index": 0,
                           "schema_version": SCHEMA_VERSION + 1})

    def test_unknown_op_has_no_typed_form(self):
        with pytest.raises(ProtocolError, match="typed"):
            parse_request({"op": "fry"})

    def test_health_status_ignores_unknown_wire_keys(self):
        health = HealthStatus.from_wire({
            "ready": True, "uptime_s": 1.0, "init_s": 0.1,
            "requests": 2, "queue_depth": {}, "drain_rps": {},
            "breakers": {}, "watchdog": {}, "batch_timeout_s": 30.0,
            "checkpoint": None, "dedup_entries": 0,
            "model_generation": 4, "novel_future_key": "x"})
        assert health.model_generation == 4


# ---------------------------------------------------------------------
# Checkpoint <-> registry interplay.
# ---------------------------------------------------------------------
class TestCheckpointGeneration:
    def test_generation_round_trips(self, tmp_path):
        path = str(tmp_path / "g.ckpt")
        traces = serving_corpus(2, 1, 32, 11)
        cpu = AdaptiveCPU(const_predictor())
        fingerprint = corpus_fingerprint("const", 2, 1, 32, 11)
        save_checkpoint(path, cpu, traces, fingerprint, generation=3)
        assert load_checkpoint(path, fingerprint)["generation"] == 3

    def test_pre_online_checkpoints_load_as_generation_zero(
            self, tmp_path):
        path = str(tmp_path / "g0.ckpt")
        traces = serving_corpus(2, 1, 32, 11)
        fingerprint = corpus_fingerprint("const", 2, 1, 32, 11)
        save_checkpoint(path, AdaptiveCPU(const_predictor()), traces,
                        fingerprint)
        assert load_checkpoint(path, fingerprint)["generation"] == 0

    def test_fingerprint_gate_still_rejects(self, tmp_path):
        path = str(tmp_path / "fp.ckpt")
        traces = serving_corpus(2, 1, 32, 11)
        fingerprint = corpus_fingerprint("const", 2, 1, 32, 11)
        save_checkpoint(path, AdaptiveCPU(const_predictor()), traces,
                        fingerprint, generation=5)
        other = corpus_fingerprint("const", 4, 1, 32, 11)
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(path, other)


# ---------------------------------------------------------------------
# End-to-end: live daemon with the continual loop.
# ---------------------------------------------------------------------
@pytest.fixture
def online_env(monkeypatch):
    monkeypatch.setenv("REPRO_ONLINE", "1")
    monkeypatch.setenv("REPRO_ONLINE_RING", "256")
    monkeypatch.setenv("REPRO_ONLINE_DRIFT_WINDOW", "8")
    monkeypatch.setenv("REPRO_ONLINE_INTERVAL_S", "3600")


class TestOnlineDaemon:
    def _serve(self, tmp_path, checkpoint=None, n_apps=4):
        path = str(tmp_path / "online.sock")
        server = build_server(path, predictor_kind="const",
                              n_apps=n_apps, workloads_per_app=1,
                              intervals=64, checkpoint_path=checkpoint)
        server.start()
        wait_until_ready(path, timeout_s=60.0)
        return server, path

    def _drift(self, server, client):
        """Baseline on traces {0,1}, then shift to {2,3}."""
        for _ in range(4):
            for i in (0, 1):
                client.adapt(i)
        assert server.learner.step() is None  # baselines
        for _ in range(4):
            for i in (2, 3):
                client.adapt(i)

    def test_promotion_persists_and_restart_resumes(self, online_env,
                                                    tmp_path):
        ckpt = str(tmp_path / "online.ckpt")
        server, path = self._serve(tmp_path, checkpoint=ckpt)
        try:
            assert server.online_enabled
            with ServeClient(path) as client:
                assert client.adapt(0)["model_generation"] == 0
                self._drift(server, client)
                server.learner.candidate_fn = \
                    lambda lr, sig, gen: const_predictor()
                verdict = server.learner.step()
                assert verdict is not None and verdict.promoted
                response = client.adapt(0)
                assert response["model_generation"] == 1
                health = client.health_status()
                assert health.model_generation == 1
                assert health.online["registry"]["swaps"] == 1
                assert health.online["learner"]["last_verdict"][
                    "promoted"]
                assert health.online["drift"]["last_signal"][
                    "kind"] == "population"
        finally:
            server.request_stop()
            server.serve_forever()
        # Supervised-restart path: the rewritten checkpoint resumes
        # the daemon warm at the promoted generation.
        server2, path = self._serve(tmp_path, checkpoint=ckpt)
        try:
            assert server2.checkpoint_info["loaded"]
            assert server2.registry.generation == 1
            with ServeClient(path, min_generation=1) as client:
                assert client.adapt(0)["model_generation"] == 1
        finally:
            server2.request_stop()
            server2.serve_forever()

    def test_corpus_change_rejects_checkpoint_and_generation(
            self, online_env, tmp_path):
        ckpt = str(tmp_path / "online.ckpt")
        server, path = self._serve(tmp_path, checkpoint=ckpt)
        try:
            with ServeClient(path) as client:
                self._drift(server, client)
                server.learner.candidate_fn = \
                    lambda lr, sig, gen: const_predictor()
                assert server.learner.step().promoted
        finally:
            server.request_stop()
            server.serve_forever()
        # A different corpus must not resume the promoted state.
        server2, path = self._serve(tmp_path, checkpoint=ckpt, n_apps=2)
        try:
            assert not server2.checkpoint_info["loaded"]
            assert server2.registry.generation == 0
        finally:
            server2.request_stop()
            server2.serve_forever()

    def test_generation_constraints_end_to_end(self, online_env,
                                               tmp_path):
        server, path = self._serve(tmp_path)
        try:
            with ServeClient(path, min_generation=3) as client:
                with pytest.raises(StaleGenerationError) as info:
                    client.adapt(0)
                assert info.value.requested == 3
                assert info.value.current == 0
            with ServeClient(path, pin_generation=0) as client:
                assert client.adapt(0)["model_generation"] == 0
            server.registry.swap(const_variant("v2", 0.8, 0.3))
            with ServeClient(path, pin_generation=0) as client:
                with pytest.raises(StaleGenerationError):
                    client.adapt(0)
            with ServeClient(path, min_generation=1) as client:
                assert client.adapt(0)["model_generation"] == 1
        finally:
            server.request_stop()
            server.serve_forever()

    def test_swap_under_load_is_digest_stable(self, online_env,
                                              tmp_path):
        """The acceptance demo: hot-swap mid-traffic, zero failures,
        every response digest-identical to a direct run on the model
        of its stamped generation."""
        server, path = self._serve(tmp_path)
        candidate = const_variant("v2", 0.9, 0.2)
        try:
            gen0_cpu = server.registry.current().cpu
            direct = {
                0: [adapt_payload(gen0_cpu.run(t))
                    for t in server.traces],
            }
            observed = []
            failures = []
            swapped = threading.Event()

            def worker(cid):
                try:
                    with ServeClient(path, tenant=f"t{cid}") as client:
                        for i in range(30):
                            response = client.adapt(i % 4)
                            observed.append(
                                (response["model_generation"],
                                 i % 4, response["result"]))
                            if i == 10:
                                swapped.wait(10.0)
                except Exception as exc:  # noqa: BLE001 - asserted
                    failures.append(exc)

            threads = [threading.Thread(target=worker, args=(c,))
                       for c in range(4)]
            for t in threads:
                t.start()
            # Let every worker bank generation-0 responses, then swap
            # mid-traffic.
            deadline = time.monotonic() + 30.0
            while (len(observed) < 20
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            entry = server.registry.swap(candidate)
            direct[1] = [adapt_payload(entry.cpu.run(t))
                         for t in server.traces]
            swapped.set()
            for t in threads:
                t.join()
            assert not failures
            generations = {gen for gen, _, _ in observed}
            assert generations == {0, 1}  # traffic spanned the swap
            for gen, index, result in observed:
                assert result == direct[gen][index]
        finally:
            server.request_stop()
            server.serve_forever()

    def test_ring_samples_served_traffic(self, online_env, tmp_path):
        server, path = self._serve(tmp_path)
        try:
            window = np.random.default_rng(3).random((4, 4)).tolist()
            with ServeClient(path) as client:
                for i in range(4):
                    client.adapt(i)
                client.decide("low_power", window)
            assert server.ring.occupancy() == 5
            adapt = server.ring.window(8, op=OP_ADAPT)
            assert sorted(adapt["trace_index"]) == [0, 1, 2, 3]
            assert (adapt["accuracy"] >= 0).all()
            assert server.ring.window(8, op=OP_DECIDE).shape[0] == 1
        finally:
            server.request_stop()
            server.serve_forever()
