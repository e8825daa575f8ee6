"""Tests for the serving layer's resilience machinery.

Covers the chaos-hardening PR end to end at unit scope: protocol edge
cases (split frames, the exact MAX_FRAME_BYTES bound, zero-length
payloads), serve-site fault injection, the circuit breaker ladder,
execution abandonment and the watchdog, drain-rate retry hints, warm-state
checkpoints, server-side idempotency dedup, client retry/hedging and
the supervised re-exec loop. The end-to-end chaos suite (real daemon,
real crashes) lives in ``benchmarks/bench_serve.py --chaos-smoke``.
"""

from __future__ import annotations

import collections
import socket
import struct
import sys
import threading
import time

import pytest

from repro.core.adaptive_cpu import AdaptiveCPU
from repro.errors import (BatchTimeoutError, BusyError, CheckpointError,
                          ConfigurationError, ProtocolError,
                          RetriesExhaustedError)
from repro.exec import faults
from repro.exec.faults import FaultPlan
from repro.obs.metrics import METRICS
from repro.serve import (ServeClient, adapt_payload, build_server,
                         corpus_fingerprint, load_checkpoint,
                         recv_frame, save_checkpoint, send_frame,
                         serving_corpus, wait_until_ready)
from repro.serve.admission import (DrainTracker, RETRY_AFTER_MAX_MS,
                                   RETRY_AFTER_MIN_MS, retry_after_ms)
from repro.serve.protocol import MAX_FRAME_BYTES, encode_frame
from repro.serve.server import AdaptationServer, const_predictor
from repro.serve.supervisor import (Execution, ExecutionWatchdog,
                                    InflightTable, ServeCircuitBreaker,
                                    run_supervised)


# ---------------------------------------------------------------------
# Protocol edge cases.
# ---------------------------------------------------------------------
class TestProtocolEdges:
    def _pair(self):
        return socket.socketpair()

    def test_frame_split_byte_by_byte_reassembles(self):
        # A slow peer dribbling one byte at a time must still deliver
        # one intact frame: _recv_exact loops until the length is met.
        a, b = self._pair()
        payload = {"op": "adapt", "schema_version": 3, "trace_index": 3,
                   "tenant": "t0"}
        frame = encode_frame(payload)

        def dribble():
            for i in range(len(frame)):
                a.sendall(frame[i:i + 1])
                if i % 4 == 0:
                    time.sleep(0.001)

        writer = threading.Thread(target=dribble)
        writer.start()
        assert recv_frame(b) == payload
        writer.join()
        a.close(), b.close()

    def test_encode_accepts_exactly_max_frame_bytes(self):
        # Body (header length + header) of exactly MAX_FRAME_BYTES
        # encodes; one byte more is a typed rejection, not a giant
        # allocation on the peer.
        pad = MAX_FRAME_BYTES - 4 - len('{"p":""}')
        frame = encode_frame({"p": "a" * pad})
        assert len(frame) == 4 + MAX_FRAME_BYTES
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            encode_frame({"p": "a" * (pad + 1)})

    def test_recv_rejects_length_one_past_the_bound(self):
        a, b = self._pair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            recv_frame(b)
        a.close(), b.close()

    def test_recv_accepts_length_at_the_bound(self):
        # The header passes validation at exactly MAX_FRAME_BYTES; the
        # failure (peer closed before the body) is the body-read error.
        a, b = self._pair()
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES))
        a.close()
        with pytest.raises(ProtocolError,
                           match="between header and body"):
            recv_frame(b)
        b.close()

    def test_zero_length_payload_is_typed_error(self):
        # length 0 == empty body == no header: a ProtocolError, never
        # a hang waiting for bytes that will not come.
        a, b = self._pair()
        a.sendall(struct.pack(">I", 0))
        with pytest.raises(ProtocolError, match="undecodable"):
            recv_frame(b)
        a.close(), b.close()

    def test_empty_object_round_trips(self):
        a, b = self._pair()
        send_frame(a, {})
        assert recv_frame(b) == {}
        a.close(), b.close()


# ---------------------------------------------------------------------
# Serve-site fault injection.
# ---------------------------------------------------------------------
class TestServeFaults:
    def test_serve_kind_spec_round_trip(self):
        plan = FaultPlan(seed=5, conn_drop=0.25, slow_peer=0.1,
                         corrupt_frame=0.2, batch_hang=0.5,
                         daemon_crash=0.05, hang_s=0.1)
        assert FaultPlan.parse(plan.spec()) == plan

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ConfigurationError, match="frobnicate"):
            FaultPlan.parse("seed=1,frobnicate=0.5")

    def test_should_inject_matches_pure_fires(self):
        # should_inject's occurrence counter walks the same schedule
        # the pure decision function describes — the property that
        # lets tests and restarted daemons predict firings.
        plan = FaultPlan(seed=9, corrupt_frame=0.5)
        with faults.inject(plan):
            observed = [faults.should_inject("corrupt_frame", "unit")
                        for _ in range(8)]
        expected = [plan.fires("corrupt_frame", "unit", i)
                    for i in range(8)]
        assert observed == expected

    def test_conn_drop_closes_without_response(self):
        a, b = socket.socketpair()
        with faults.inject(FaultPlan(seed=0, conn_drop=1.0)):
            with pytest.raises(OSError, match="injected conn_drop"):
                send_frame(a, {"ok": True}, fault_key="serve.send/ping")
        assert recv_frame(b) is None  # peer sees clean EOF, no frame
        b.close()

    def test_corrupt_frame_always_fails_decode(self):
        a, b = socket.socketpair()
        with faults.inject(FaultPlan(seed=0, corrupt_frame=1.0)):
            send_frame(a, {"ok": True}, fault_key="serve.send/ping")
        with pytest.raises(ProtocolError, match="undecodable"):
            recv_frame(b)
        a.close(), b.close()

    def test_slow_peer_still_delivers_intact_frame(self):
        a, b = socket.socketpair()
        payload = {"ok": True, "v": [1.5, 2.5]}
        with faults.inject(FaultPlan(seed=0, slow_peer=1.0,
                                     hang_s=0.05)):
            writer = threading.Thread(
                target=send_frame, args=(a, payload),
                kwargs={"fault_key": "serve.send/ping"})
            writer.start()
            start = time.monotonic()
            assert recv_frame(b) == payload
            assert time.monotonic() - start >= 0.04
            writer.join()
        a.close(), b.close()

    def test_no_fault_key_never_injects(self):
        a, b = socket.socketpair()
        with faults.inject(FaultPlan(seed=0, conn_drop=1.0,
                                     corrupt_frame=1.0)):
            send_frame(a, {"ok": True})  # clients pass no fault_key
        assert recv_frame(b) == {"ok": True}
        a.close(), b.close()


# ---------------------------------------------------------------------
# Circuit breaker.
# ---------------------------------------------------------------------
class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestServeCircuitBreaker:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ServeCircuitBreaker(0, 1.0)
        with pytest.raises(ValueError):
            ServeCircuitBreaker(1, 0.0)

    def test_escalates_per_threshold_run(self):
        clock = _FakeClock()
        breaker = ServeCircuitBreaker(2, 10.0, clock=clock)
        assert breaker.state() == "closed" and breaker.route() == 0
        breaker.record_failure()
        assert breaker.level == 0  # one failure is not a trip
        breaker.record_failure()
        assert breaker.level == 1 and breaker.state() == "open"
        assert breaker.route() == 1  # serial while open
        breaker.record_failure(), breaker.record_failure()
        assert breaker.level == 2 and breaker.route() == 2  # shed
        breaker.record_failure(), breaker.record_failure()
        assert breaker.level == 2  # capped at shed
        assert breaker.snapshot()["trips"] == 3

    def test_success_resets_the_failure_run(self):
        breaker = ServeCircuitBreaker(2, 10.0, clock=_FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.level == 0  # never two consecutive failures

    def test_half_open_probe_success_walks_back_to_closed(self):
        clock = _FakeClock()
        breaker = ServeCircuitBreaker(1, 10.0, clock=clock)
        breaker.record_failure(), breaker.record_failure()
        assert breaker.level == 2
        clock.now += 10.0
        assert breaker.state() == "half_open"
        assert breaker.route() == 1  # probe one level down
        breaker.record_success()
        assert breaker.level == 1 and breaker.state() == "open"
        clock.now += 10.0
        assert breaker.route() == 0
        breaker.record_success()
        assert breaker.level == 0 and breaker.state() == "closed"

    def test_half_open_probe_failure_restarts_cooldown(self):
        clock = _FakeClock()
        breaker = ServeCircuitBreaker(1, 10.0, clock=clock)
        breaker.record_failure()
        clock.now += 10.0
        assert breaker.route() == 0  # probe armed
        breaker.record_failure()
        assert breaker.level == 1  # probe failed: no escalation...
        assert breaker.state() == "open"  # ...but cooldown restarted
        clock.now += 9.0
        assert breaker.route() == 1  # still open, no probe yet


# ---------------------------------------------------------------------
# Execution abandonment and the watchdog.
# ---------------------------------------------------------------------
class TestAbandonment:
    def _started(self, table: InflightTable, age_s: float) -> Execution:
        execution = Execution("adapt")
        table.admit(execution)
        execution.started -= age_s
        return execution

    def test_abandon_fails_inflight_only_and_drains_queue(self):
        # Only the overdue execution is abandoned; the op's other
        # executions keep running and finish normally.
        table = InflightTable(8, name="adapt")
        hung = self._started(table, age_s=10.0)
        healthy = self._started(table, age_s=0.0)
        assert table.overdue(1.0) == [hung]
        assert hung.abandoned and table.abandoned == 1
        assert table.depth() == 1
        assert table.finish(healthy)
        # The hung thread, returning late, learns it must drop its
        # result; its slot was already freed for new admissions.
        assert not table.finish(hung)
        assert table.depth() == 0

    def test_abandoning_a_hung_holder_frees_the_executor_slot(self):
        table = InflightTable(8, name="adapt")
        hung = self._started(table, age_s=10.0)
        assert table.enter(hung)
        waiting = self._started(table, age_s=0.0)
        entered = threading.Event()
        waiter = threading.Thread(
            target=lambda: table.enter(waiting) and entered.set())
        waiter.start()
        assert not entered.wait(0.05)
        assert table.overdue(1.0) == [hung]
        waiter.join(timeout=5.0)
        assert entered.is_set()  # the op keeps serving
        # The hung thread's late finish must not free the slot its
        # successor now holds.
        assert not table.finish(hung)
        assert waiting.holds_slot
        assert table.finish(waiting)

    def test_request_abandoned_while_waiting_never_runs(self):
        table = InflightTable(8, name="adapt")
        holder = self._started(table, age_s=0.0)
        assert table.enter(holder)
        stale = self._started(table, age_s=10.0)
        outcome = []
        waiter = threading.Thread(
            target=lambda: outcome.append(table.enter(stale)))
        waiter.start()
        assert table.overdue(1.0) == [stale]
        assert table.finish(holder)
        waiter.join(timeout=5.0)
        assert outcome == [False]
        assert not stale.holds_slot
        # The slot is free again for the next request.
        assert table.enter(self._started(table, age_s=0.0))

    def test_abandon_with_nothing_inflight_is_benign(self):
        table = InflightTable(4)
        assert table.overdue(0.0) == []
        watchdog = ExecutionWatchdog({"adapt": table}, timeout_s=0.05)
        assert watchdog.check_once() == 0
        assert watchdog.trips == 0

    def test_watchdog_trips_and_records_breaker_failure(self):
        table = InflightTable(4, name="adapt")
        abandoned = []
        watchdog = ExecutionWatchdog(
            {"adapt": table}, timeout_s=0.05,
            on_abandon=lambda execution, error:
                abandoned.append((execution, error)))
        before = METRICS.count("serve.watchdog_trips")
        hung = self._started(table, age_s=0.1)
        assert watchdog.check_once() == 1
        assert abandoned == [(hung, hung.error)]
        assert isinstance(hung.error, BatchTimeoutError)
        assert "REPRO_SERVE_BATCH_TIMEOUT" in str(hung.error)
        assert watchdog.trips == 1
        assert METRICS.count("serve.watchdog_trips") == before + 1
        snap = watchdog.snapshot()
        assert snap["trips"] == 1
        assert snap["abandoned"]["adapt"] == 1
        assert watchdog.check_once() == 0  # abandoned exactly once

    def test_healthy_batcher_is_left_alone(self):
        table = InflightTable(4)
        watchdog = ExecutionWatchdog({"adapt": table}, timeout_s=5.0)
        running = self._started(table, age_s=0.0)
        assert watchdog.check_once() == 0
        assert watchdog.trips == 0
        assert table.finish(running)

    def test_hung_execution_times_out_and_connection_keeps_serving(
            self, tmp_path):
        path = str(tmp_path / "hang.sock")
        server = build_server(path, predictor_kind="const", n_apps=2,
                              workloads_per_app=1, intervals=48,
                              batch_timeout_s=0.2, breaker_threshold=1)
        execute = server._executors["adapt"]
        release = threading.Event()
        calls = []

        def hang_first(request):
            calls.append(request)
            if len(calls) == 1:
                release.wait(10.0)
            return execute(request)

        server._executors["adapt"] = hang_first
        server.start()
        request = {"op": "adapt", "schema_version": 3, "trace_index": 0,
                   "key": "hung-1"}
        try:
            wait_until_ready(path, timeout_s=30.0)
            before = METRICS.count("serve.abandoned_results_discarded")
            with ServeClient(path) as client:
                with pytest.raises(BatchTimeoutError,
                                   match="REPRO_SERVE_BATCH_TIMEOUT"):
                    client.request(request)
                # The same connection keeps serving through the
                # replacement reader while the executor is still hung.
                assert client.ping()
                release.set()
                deadline = time.monotonic() + 5.0
                while (METRICS.count("serve.abandoned_results_discarded")
                       == before and time.monotonic() < deadline):
                    time.sleep(0.01)
                # The late result was dropped, not sent: the next
                # response on this connection answers the next request.
                assert METRICS.count(
                    "serve.abandoned_results_discarded") == before + 1
                assert client.ping()
                # The abandoned key did not poison dedup: a keyed retry
                # runs fresh.
                response = client.request(request)
                assert response["ok"]
                assert len(calls) == 2
                assert response["result"] == adapt_payload(
                    server.cpu.run(server.traces[0]))
            assert server.supervisor.trips == 1
            # The abandonment counted as a failure on the op's breaker.
            assert server.breakers["adapt"].snapshot()["trips"] == 1
        finally:
            release.set()
            server.request_stop()
            server.serve_forever()


# ---------------------------------------------------------------------
# Drain tracking / retry hints.
# ---------------------------------------------------------------------
class TestRetryHints:
    def test_drain_rate_over_window(self):
        tracker = DrainTracker(window_s=5.0)
        tracker.record(10, now=100.0)
        tracker.record(10, now=102.0)
        assert tracker.rate_rps(now=104.0) == pytest.approx(20 / 4.0)
        # The older event ages out of the window.
        assert tracker.rate_rps(now=106.0) == pytest.approx(10 / 4.0)
        # Everything aged out: idle.
        assert tracker.rate_rps(now=108.0) == 0.0

    def test_single_burst_span_is_floored(self):
        tracker = DrainTracker(window_s=5.0)
        tracker.record(100, now=50.0)
        # Zero elapsed span would read as an infinite rate; the floor
        # caps it.
        assert tracker.rate_rps(now=50.0) == pytest.approx(100 / 0.05)

    def test_retry_after_from_drain_rate(self):
        assert retry_after_ms(4, 100.0) == 40.0

    def test_retry_after_fallback_and_clamps(self):
        assert retry_after_ms(1, 0.0) == 25.0  # per-request fallback
        assert retry_after_ms(10_000, 0.0) == RETRY_AFTER_MAX_MS
        assert retry_after_ms(1, 1e6) == RETRY_AFTER_MIN_MS
        assert retry_after_ms(0, 0.0) == 25.0  # empty queue floors at 1


# ---------------------------------------------------------------------
# Warm-state checkpoints.
# ---------------------------------------------------------------------
class TestCheckpoint:
    FP = corpus_fingerprint("const", 2, 1, 48, 11)

    def _state(self):
        return AdaptiveCPU(const_predictor()), serving_corpus(2, 1, 48)

    def test_round_trip_restores_bit_identical_state(self, tmp_path):
        path = str(tmp_path / "serve.ckpt")
        cpu, traces = self._state()
        info = save_checkpoint(path, cpu, traces, self.FP)
        assert info["bytes"] > 0
        state = load_checkpoint(path, self.FP)
        assert len(state["traces"]) == len(traces)
        assert state["age_s"] >= 0.0
        # The restored daemon answers bit-identically to the original.
        original = adapt_payload(cpu.run(traces[0]))
        restored = adapt_payload(state["cpu"].run(state["traces"][0]))
        assert restored == original

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "serve.ckpt")
        cpu, traces = self._state()
        save_checkpoint(path, cpu, traces, self.FP)
        other = corpus_fingerprint("const", 2, 1, 48, 12)
        with pytest.raises(CheckpointError, match="does not match"):
            load_checkpoint(path, other)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "absent.ckpt"), self.FP)

    def _saved_bytes(self, tmp_path) -> tuple[str, bytes]:
        path = str(tmp_path / "serve.ckpt")
        cpu, traces = self._state()
        save_checkpoint(path, cpu, traces, self.FP)
        with open(path, "rb") as fh:
            return path, fh.read()

    def test_crc_corruption_rejected(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        corrupted = bytearray(data)
        corrupted[40] ^= 0xFF  # one payload byte
        with open(path, "wb") as fh:
            fh.write(corrupted)
        with pytest.raises(CheckpointError, match="CRC32"):
            load_checkpoint(path, self.FP)

    def test_truncated_payload_rejected(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        with open(path, "wb") as fh:
            fh.write(data[:-20])
        with pytest.raises(CheckpointError,
                           match="truncated in payload"):
            load_checkpoint(path, self.FP)

    def test_truncated_header_rejected(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        with open(path, "wb") as fh:
            fh.write(data[:10])
        with pytest.raises(CheckpointError,
                           match="truncated in header"):
            load_checkpoint(path, self.FP)

    def test_bad_magic_rejected(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        with open(path, "wb") as fh:
            fh.write(b"XXXX" + data[4:])
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path, self.FP)

    def test_version_mismatch_rejected(self, tmp_path):
        path, data = self._saved_bytes(tmp_path)
        mutated = bytearray(data)
        mutated[7] ^= 0x01  # low byte of the big-endian version field
        with open(path, "wb") as fh:
            fh.write(mutated)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, self.FP)

    def test_unpicklable_state_is_typed(self, tmp_path):
        path = str(tmp_path / "serve.ckpt")
        cpu, traces = self._state()
        cpu.collector.model.hook = lambda: None  # not picklable
        with pytest.raises(CheckpointError,
                           match="not checkpointable"):
            save_checkpoint(path, cpu, traces, self.FP)


# ---------------------------------------------------------------------
# Server-side idempotency dedup (no sockets: _dispatch directly).
# ---------------------------------------------------------------------
@pytest.fixture()
def bare_server(tmp_path):
    server = AdaptationServer(
        AdaptiveCPU(const_predictor()), serving_corpus(2, 1, 48),
        str(tmp_path / "bare.sock"), queue_bound=8)
    yield server
    server.shutdown()


class TestDedup:
    def test_keyed_retry_returns_original_payload(self, bare_server):
        before = METRICS.count("serve.dedup_hits")
        first = bare_server._dispatch(
            {"id": 1, "op": "adapt", "schema_version": 3,
             "trace_index": 0, "key": "K1"})
        retry = bare_server._dispatch(
            {"id": 2, "op": "adapt", "schema_version": 3,
             "trace_index": 0, "key": "K1"})
        assert first["ok"] and retry["ok"]
        assert retry["result"] == first["result"]
        assert METRICS.count("serve.dedup_hits") == before + 1

    def test_failed_execution_does_not_poison_the_key(
            self, bare_server, monkeypatch):
        calls = []

        def routed(execution, request, level):
            calls.append(execution.op)
            if len(calls) == 1:
                raise RuntimeError("transient executor fault")
            return {"value": 42}

        monkeypatch.setattr(bare_server, "_execute_routed", routed)
        request = {"id": 1, "op": "adapt", "schema_version": 3,
                   "trace_index": 0, "key": "R"}
        failed = bare_server._dispatch(request)
        assert not failed["ok"] and failed["error"] == "internal"
        # The failure dropped the entry: the retry re-executes...
        retried = bare_server._dispatch(request)
        assert retried["ok"] and retried["value"] == 42
        assert len(calls) == 2
        # ...and the success is retained: a third attempt is a pure
        # dedup hit.
        deduped = bare_server._dispatch(request)
        assert deduped["ok"] and deduped["value"] == 42
        assert len(calls) == 2

    def test_non_string_key_bypasses_dedup(self, bare_server,
                                           monkeypatch):
        calls = []
        monkeypatch.setattr(
            bare_server, "_execute_routed",
            lambda execution, request, level:
                (calls.append(execution.op) or {"value": 1}))
        request = {"id": 1, "op": "adapt", "schema_version": 3,
                   "trace_index": 0, "key": 99}
        bare_server._dispatch(request)
        bare_server._dispatch(request)
        assert len(calls) == 2

    def test_health_reports_resilience_surface(self, bare_server):
        response = bare_server._dispatch({"id": 5, "op": "health"})
        assert response["ok"]
        health = response["health"]
        assert health["ready"]
        assert health["breakers"]["adapt"]["mode"] == "direct"
        assert health["breakers"]["decide"]["state"] == "closed"
        assert health["watchdog"]["timeout_s"] == \
            bare_server.batch_timeout_s
        assert set(health["queue_depth"]) == {"adapt", "decide"}
        assert "dedup_entries" in health


# ---------------------------------------------------------------------
# Client retry / hedging, against a scripted protocol peer.
# ---------------------------------------------------------------------
class _FakeDaemon:
    """Scripted peer: one action consumed per request received.

    Actions: ``("reply", extra)`` answers ok; ``("busy", hint_ms)``
    sheds; ``("timeout",)`` answers the watchdog's typed response;
    ``("drop",)`` closes the connection without replying;
    ``("silent",)`` swallows the request (for hedging tests).
    """

    def __init__(self, path: str, actions) -> None:
        self.path = path
        self.actions = collections.deque(actions)
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        self._listener = socket.socket(socket.AF_UNIX,
                                       socket.SOCK_STREAM)
        self._listener.bind(path)
        self._listener.listen(8)
        self._threads: list[threading.Thread] = []
        accept = threading.Thread(target=self._accept, daemon=True)
        accept.start()
        self._threads.append(accept)

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            handler = threading.Thread(target=self._serve, args=(conn,),
                                       daemon=True)
            handler.start()
            self._threads.append(handler)

    def _serve(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    request = recv_frame(conn)
                except (ProtocolError, OSError):
                    return
                if request is None:
                    return
                with self._lock:
                    self.requests.append(request)
                    action = (self.actions.popleft()
                              if self.actions else ("reply", {}))
                kind = action[0]
                base = {"id": request.get("id")}
                if kind == "reply":
                    send_frame(conn, {**base, "ok": True, **action[1]})
                elif kind == "busy":
                    send_frame(conn, {
                        **base, "ok": False, "error": "busy",
                        "queue_depth": 3, "queue_bound": 4,
                        "retry": True, "retry_after_ms": action[1]})
                elif kind == "timeout":
                    send_frame(conn, {
                        **base, "ok": False, "error": "timeout",
                        "detail": "execution abandoned", "retry": True})
                elif kind == "drop":
                    conn.close()
                    return
                # "silent": no response; loop back to recv.
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:
            pass


@pytest.fixture()
def scripted(tmp_path):
    daemons = []

    def factory(actions):
        path = str(tmp_path / f"fake{len(daemons)}.sock")
        daemon = _FakeDaemon(path, actions)
        daemons.append(daemon)
        return daemon

    yield factory
    for daemon in daemons:
        daemon.close()


class TestClientResilience:
    def test_busy_hint_honored_then_success(self, scripted):
        daemon = scripted([("busy", 30.0), ("reply", {"value": 1})])
        with ServeClient(daemon.path, retries=3, seed=7) as client:
            start = time.monotonic()
            response = client.request({"op": "ping"})
            elapsed = time.monotonic() - start
        assert response["value"] == 1
        # Jitter scales the 30ms hint by [0.5, 1.0].
        assert elapsed >= 0.014

    def test_zero_retries_busy_raises_with_hint(self, scripted):
        daemon = scripted([("busy", 30.0)])
        with ServeClient(daemon.path) as client:
            with pytest.raises(BusyError) as excinfo:
                client.request({"op": "ping"})
        assert excinfo.value.retry_after_ms == 30.0
        assert excinfo.value.queue_depth == 3

    def test_budget_exhaustion_is_typed(self, scripted):
        daemon = scripted([("busy", 1.0)] * 3)
        with ServeClient(daemon.path, retries=2, seed=1) as client:
            with pytest.raises(RetriesExhaustedError) as excinfo:
                client.request({"op": "ping"})
        assert isinstance(excinfo.value.last_error, BusyError)
        assert "3 attempt(s)" in str(excinfo.value)

    def test_reconnects_after_drop_under_one_key(self, scripted):
        daemon = scripted([("drop",), ("reply", {"value": 7})])
        with ServeClient(daemon.path, retries=2, seed=2) as client:
            response = client.request({"op": "ping"})
        assert response["value"] == 7
        keys = [r.get("key") for r in daemon.requests]
        assert len(keys) == 2
        assert keys[0] is not None
        assert keys[0] == keys[1]  # resend carries the same key

    def test_unkeyed_transport_error_propagates(self, scripted):
        daemon = scripted([("drop",)])
        client = ServeClient(daemon.path)
        with pytest.raises(ProtocolError):
            client.request({"op": "ping"})
        assert client._sock is None  # closed on the error path
        client.close()

    def test_timeout_response_is_retried(self, scripted):
        daemon = scripted([("timeout",), ("reply", {"value": 3})])
        with ServeClient(daemon.path, retries=2, seed=4) as client:
            assert client.request({"op": "ping"})["value"] == 3

    def test_hedge_wins_over_silent_primary(self, scripted):
        daemon = scripted([("silent",), ("reply", {"value": 9})])
        with ServeClient(daemon.path, hedge_s=0.05, seed=5) as client:
            response = client.request({"op": "ping"})
        assert response["value"] == 9
        keys = [r.get("key") for r in daemon.requests]
        assert len(keys) == 2
        assert keys[0] is not None
        assert keys[0] == keys[1]  # the hedge is the same keyed request

    def test_context_manager_closes_socket(self, scripted):
        daemon = scripted([("reply", {})])
        with ServeClient(daemon.path) as client:
            assert client.ping()
        assert client._sock is None


# ---------------------------------------------------------------------
# Supervised re-exec.
# ---------------------------------------------------------------------
class TestRunSupervised:
    def test_restarts_until_clean_exit(self, tmp_path):
        marker = tmp_path / "crashed.once"
        script = (
            "import os, sys\n"
            "path = sys.argv[1]\n"
            "if os.path.exists(path):\n"
            "    sys.exit(0)\n"
            "open(path, 'w').close()\n"
            "sys.exit(86)\n"
        )
        messages: list[str] = []
        code = run_supervised(
            [sys.executable, "-c", script, str(marker)],
            restarts=3, announce=messages.append)
        assert code == 0
        assert len(messages) == 1
        assert "restarting (1/3)" in messages[0]
        assert "86" in messages[0]

    def test_restart_budget_is_bounded(self):
        messages: list[str] = []
        code = run_supervised(
            [sys.executable, "-c", "import sys; sys.exit(7)"],
            restarts=1, announce=messages.append)
        assert code == 7
        assert len(messages) == 2
        assert "restarting (1/1)" in messages[0]
        assert "exhausted" in messages[1]

    def test_clean_exit_needs_no_restart(self):
        messages: list[str] = []
        code = run_supervised(
            [sys.executable, "-c", "raise SystemExit(0)"],
            restarts=3, announce=messages.append)
        assert code == 0
        assert messages == []
