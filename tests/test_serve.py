"""Tests for the adaptation-serving daemon (repro.serve)."""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.predictor import DualModePredictor
from repro.errors import BatchTimeoutError, BusyError, ProtocolError
from repro.errors import ServeClosedError, ServeError, StaleGenerationError
from repro.exec import faults
from repro.exec.faults import FaultPlan
from repro.exec.parallel import ParallelMap, close_pools
from repro.obs import METRICS
from repro.online.ringbuf import OP_ADAPT
from repro.serve import InflightTable, ServeClient, TenantLedger
from repro.serve import adapt_payload, build_server, busy_response
from repro.serve import decide_payload, decode_frame, encode_frame
from repro.serve import recv_frame, send_frame, serving_corpus
from repro.serve import OPS, wait_until_ready
from repro.serve.server import ConstProbModel, const_predictor
from repro.serve.supervisor import Execution
from repro.uarch.modes import Mode


# ---------------------------------------------------------------------
# Protocol framing.
# ---------------------------------------------------------------------
class TestProtocol:
    def _pair(self):
        return socket.socketpair()

    def test_round_trip(self):
        a, b = self._pair()
        payload = {"op": "ping", "nested": {"x": [1, 2.5, "s", None]}}
        send_frame(a, payload)
        assert recv_frame(b) == payload
        a.close(), b.close()

    def test_clean_eof_returns_none(self):
        a, b = self._pair()
        a.close()
        assert recv_frame(b) is None
        b.close()

    def test_truncated_frame_raises(self):
        a, b = self._pair()
        frame = encode_frame({"op": "ping"})
        a.sendall(frame[:len(frame) - 2])
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(b)
        b.close()

    def test_oversize_length_rejected(self):
        a, b = self._pair()
        a.sendall((1 << 31).to_bytes(4, "big"))
        with pytest.raises(ProtocolError, match="MAX_FRAME_BYTES"):
            recv_frame(b)
        a.close(), b.close()

    def test_non_object_body_rejected(self):
        a, b = self._pair()
        body = _body(b"[1,2,3]")
        a.sendall(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError, match="JSON object"):
            recv_frame(b)
        a.close(), b.close()

    def test_float_exactness_over_the_wire(self):
        # Header floats round-trip as repr text and tensors as raw
        # float64 — the foundation of the daemon's bit-identity
        # guarantee.
        a, b = self._pair()
        values = [0.1, 1 / 3, 1e-308, 123456.789e30]
        send_frame(a, {"v": values, "probs": values})
        received = recv_frame(b)
        assert all(x == y for x, y in zip(values, received["v"]))
        assert received["probs"].tolist() == values
        a.close(), b.close()

    def test_decide_payload_threshold_boundary(self):
        payload = decide_payload(np.array([0.49, 0.5, 0.51]), 0.5)
        assert payload["decisions"] == [0, 1, 1]
        assert payload["probs"].tolist() == [0.49, 0.5, 0.51]

    def test_digest_distinguishes_runs(self):
        a = decide_payload(np.array([0.1, 0.2]), 0.5)
        b = decide_payload(np.array([0.1, 0.2000000001]), 0.5)
        assert a["digest"] != b["digest"]


# ---------------------------------------------------------------------
# Schema-3 codec: JSON header + raw float64 tensor section.
# ---------------------------------------------------------------------
def _body(header: bytes, section: bytes = b"") -> bytes:
    return struct.pack(">I", len(header)) + header + section


class TestTensorCodec:
    def test_window_and_probs_ride_as_float64_tensors(self):
        window = np.random.default_rng(1).random((16, 12))
        frame = encode_frame({"op": "decide", "window": window.tolist(),
                              "probs": window[:, 0]})
        # The tensor section is the raw bytes, 8-byte aligned.
        assert frame.endswith(window.tobytes() + window[:, 0].tobytes())
        (header_len,) = struct.unpack_from(">I", frame, 4)
        assert (8 + header_len) % 8 == 0
        decoded = decode_frame(frame[4:])
        assert decoded["window"].dtype == np.float64
        assert np.array_equal(decoded["window"], window)
        assert np.array_equal(decoded["probs"], window[:, 0])
        assert "tensors" not in decoded

    def test_special_values_round_trip_bit_exactly(self):
        bits = np.array([0x7FF8000000000001, 0xFFF0000000000ABC,
                         0x8000000000000000, 0x0000000000000000,
                         0x0000000000000001, 0x800FFFFFFFFFFFFF,
                         0x7FF0000000000000, 0xFFF0000000000000],
                        dtype=np.uint64)
        values = bits.view(np.float64).reshape(2, 4)
        decoded = decode_frame(encode_frame({"window": values})[4:])
        assert decoded["window"].view(np.uint64).tobytes() == \
            bits.tobytes()

    def test_ragged_window_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="rectangular"):
            encode_frame({"op": "decide", "window": [[1.0, 2.0], [3.0]]})

    def test_schema_2_frame_is_a_protocol_error(self):
        v2_body = b'{"op":"adapt","schema_version":2,"trace_index":0}'
        with pytest.raises(ProtocolError, match="schema-2"):
            decode_frame(v2_body)

    def test_header_past_the_body_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="runs past"):
            decode_frame(struct.pack(">I", 64) + b"{}")

    def test_tensor_past_the_body_is_a_protocol_error(self):
        header = b'{"tensors":[["window",[2,4],0]]}'
        with pytest.raises(ProtocolError, match="runs past"):
            decode_frame(_body(header, b"\x00" * 56))
        with pytest.raises(ProtocolError, match="runs past"):
            decode_frame(_body(b'{"tensors":[["window",[1],8]]}',
                               b"\x00" * 8))

    def test_malformed_tensor_specs_are_protocol_errors(self):
        for specs in (b'"x"', b'[["window",[2],-8]]',
                      b'[["weights",[1],0]]', b'[["window",[true],0]]',
                      b'[["window",2,0]]'):
            with pytest.raises(ProtocolError, match="undecodable"):
                decode_frame(_body(b'{"tensors":' + specs + b'}',
                                   b"\x00" * 16))


# ---------------------------------------------------------------------
# Per-op in-flight table (admission bound + watchdog registry).
# ---------------------------------------------------------------------
class TestInflight:
    def test_invalid_params(self):
        with pytest.raises(ValueError):
            InflightTable(0)

    def test_sheds_at_inflight_bound(self):
        table = InflightTable(2, name="adapt")
        running = [Execution("adapt"), Execution("adapt")]
        for execution in running:
            table.admit(execution)
        with pytest.raises(BusyError) as excinfo:
            table.admit(Execution("adapt"))
        assert excinfo.value.queue_depth == 2
        assert excinfo.value.retry_after_ms > 0
        # A finished execution frees its slot.
        assert table.finish(running[0])
        table.admit(Execution("adapt"))
        assert table.depth() == 2

    def test_one_execution_of_an_op_at_a_time(self):
        table = InflightTable(4)
        first, second = Execution("decide"), Execution("decide")
        table.admit(first), table.admit(second)
        assert table.enter(first)
        entered = threading.Event()
        waiter = threading.Thread(
            target=lambda: table.enter(second) and entered.set())
        waiter.start()
        assert not entered.wait(0.05)  # the slot is taken
        assert table.finish(first)
        waiter.join(timeout=5.0)
        assert entered.is_set() and table.finish(second)

    def test_closed_table_rejects(self):
        table = InflightTable(4)
        table.close()
        table.close()  # idempotent
        with pytest.raises(ServeClosedError):
            table.admit(Execution("adapt"))


# ---------------------------------------------------------------------
# Admission / tenant ledger.
# ---------------------------------------------------------------------
class TestAdmission:
    def test_busy_response_shape(self):
        response = busy_response(7, 64, 64, retry_after=120.0)
        assert response == {"id": 7, "ok": False, "error": "busy",
                            "queue_depth": 64, "queue_bound": 64,
                            "retry": True, "retry_after_ms": 120.0}

    def test_busy_response_computes_fallback_hint(self):
        # No drain rate known: depth * per-request fallback, clamped.
        response = busy_response(1, 4, 64)
        assert response["retry_after_ms"] == 100.0

    def test_unseen_tenant_has_zero_pressure(self):
        assert TenantLedger().pressure("nobody") == 0.0

    def test_pressure_rises_with_violations(self):
        ledger = TenantLedger(default_budget_ms=10.0, window=4,
                              guarantee=0.75)
        ledger.record("t", latency_s=0.001)
        assert ledger.pressure("t") == 0.0
        ledger.record("t", latency_s=0.5)  # 50x over budget
        assert ledger.pressure("t") > 0.0
        snap = ledger.snapshot()
        assert snap["t"]["observations"] == 2
        assert snap["t"]["violations"] == 1

    def test_explicit_budget_overrides_default(self):
        ledger = TenantLedger(default_budget_ms=1000.0, window=4)
        ledger.record("t", latency_s=0.01, budget_ms=1.0)
        assert ledger.snapshot()["t"]["violations"] == 1


# ---------------------------------------------------------------------
# End-to-end daemon.
# ---------------------------------------------------------------------
@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serve") / "serve.sock")
    server = build_server(path, predictor_kind="const", n_apps=4,
                          workloads_per_app=1, intervals=64)
    server.start()
    wait_until_ready(path, timeout_s=60.0)
    yield server
    server.request_stop()
    server.serve_forever()


class TestDaemon:
    def test_ping_and_stats(self, daemon):
        with ServeClient(daemon.address) as client:
            assert client.ping()
            stats = client.stats()
        assert stats["corpus_traces"] == 4
        assert stats["predictor"] == "serve_const"
        assert stats["queue_bound"] >= 1
        assert set(stats["stages"]) == set(OPS)

    def test_adapt_bit_identical_to_direct_run(self, daemon):
        with ServeClient(daemon.address) as client:
            for index in range(4):
                served = client.adapt(index)
                direct = adapt_payload(
                    daemon.cpu.run(daemon.traces[index]))
                assert served["result"] == direct

    def test_decide_bit_identical_to_direct_predict(self, daemon):
        window = np.random.default_rng(3).random((7, 4))
        with ServeClient(daemon.address) as client:
            for mode in Mode:
                served = client.decide(mode.value, window)
                probs = daemon.cpu.predictor.predict_proba(window, mode)
                threshold = daemon.cpu.predictor.model_for(
                    mode).decision_threshold
                direct = decide_payload(probs, threshold)
                assert np.array_equal(served["probs"], direct["probs"])
                assert served["decisions"] == direct["decisions"]
                assert served["digest"] == direct["digest"]

    def test_concurrent_mixed_load_all_answered(self, daemon):
        window = np.random.default_rng(5).random((5, 4)).tolist()
        failures = []

        def worker(cid):
            try:
                with ServeClient(daemon.address,
                                 tenant=f"t{cid}") as client:
                    for i in range(10):
                        if i % 3 == 0:
                            client.adapt(i % 4, budget_ms=200.0)
                        else:
                            client.decide("low_power", window)
            except Exception as exc:  # noqa: BLE001 - recorded for assert
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(c,))
                   for c in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_tenant_accounting_appears_in_stats(self, daemon):
        with ServeClient(daemon.address, tenant="acct") as client:
            client.adapt(0, budget_ms=500.0)
            stats = client.stats()
        assert "acct" in stats["tenants"]
        assert stats["tenants"]["acct"]["observations"] >= 1

    def test_bad_requests_get_typed_errors(self, daemon):
        with ServeClient(daemon.address) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client.request({"op": "fry"})
            with pytest.raises(ServeError,
                               match="bad_request.*schema_version"):
                client.request({"op": "adapt", "trace_index": 0})
            with pytest.raises(ServeError, match="schema_version 2"):
                client.request({"op": "adapt", "schema_version": 2,
                                "trace_index": 0})
            with pytest.raises(ServeError, match="trace_index"):
                client.request({"op": "adapt", "schema_version": 3,
                                "trace_index": 99})
            with pytest.raises(ServeError, match="trace_index"):
                client.request({"op": "adapt", "schema_version": 3,
                                "trace_index": True})
            with pytest.raises(ServeError, match="budget_ms"):
                client.request({"op": "adapt", "schema_version": 3,
                                "trace_index": 0, "budget_ms": "soon"})
            for window in ([], [1.0, 2.0, 3.0, 4.0], [[0.0] * 5],
                           np.zeros((2, 2, 4))):
                # Empty, 1-D, wrong width, 3-D.
                with pytest.raises(ServeError, match="bad_request.*window"):
                    client.request({"op": "decide", "schema_version": 3,
                                    "mode": "low_power", "window": window})
            with pytest.raises(ServeError, match="mode"):
                client.request({"op": "decide", "schema_version": 3,
                                "mode": "warp",
                                "window": [[0.0, 0.0, 0.0, 0.0]]})
            # The connection survives bad requests.
            assert client.ping()

    def test_undecodable_frames_get_bad_request(self, daemon):
        # A schema-2 (JSON-only) frame and a tensor spec past the body:
        # framing is intact, so each gets a typed answer on a live
        # connection.
        v2 = b'{"op":"adapt","schema_version":2,"trace_index":0}'
        past = _body(b'{"op":"decide","tensors":[["window",[4,4],0]]}')
        with ServeClient(daemon.address) as client:
            for body in (v2, past):
                client._sock.sendall(struct.pack(">I", len(body)) + body)
                response = recv_frame(client._sock)
                assert response["ok"] is False
                assert response["error"] == "bad_request"
                assert "undecodable" in response["detail"]
            assert client.ping()

    def test_queue_bound_sheds_with_busy(self, tmp_path):
        path = str(tmp_path / "busy.sock")
        server = build_server(path, predictor_kind="const", n_apps=2,
                              workloads_per_app=1, intervals=64,
                              queue_bound=1)
        server.start()
        try:
            wait_until_ready(path, timeout_s=60.0)
            outcomes = {"busy": 0, "ok": 0}
            lock = threading.Lock()

            def worker():
                with ServeClient(path) as client:
                    for _ in range(8):
                        try:
                            client.adapt(0)
                            key = "ok"
                        except BusyError:
                            key = "busy"
                        with lock:
                            outcomes[key] += 1

            threads = [threading.Thread(target=worker)
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert outcomes["ok"] > 0
            assert outcomes["busy"] > 0  # admission control engaged
        finally:
            server.request_stop()
            server.serve_forever()

    def test_shutdown_leaves_no_children_or_socket(self, tmp_path):
        path = str(tmp_path / "clean.sock")
        server = build_server(path, predictor_kind="const", n_apps=2,
                              workloads_per_app=1, intervals=64)
        server.start()
        wait_until_ready(path, timeout_s=60.0)
        with ServeClient(path) as client:
            client.adapt(0)
            client.shutdown()
        server.serve_forever()  # returns once shutdown completed
        assert not os.path.exists(path)
        assert multiprocessing.active_children() == []
        server.shutdown()  # idempotent


class TestConcurrentExecution:
    """Requests of one op run at once on their connection threads."""

    def test_concurrent_digests_equal_serial_in_process(self, tmp_path):
        path = str(tmp_path / "forest.sock")
        server = build_server(path, predictor_kind="forest", n_apps=4,
                              workloads_per_app=1, intervals=64)
        server.start()
        n_threads, per_thread = 6, 12
        rng = np.random.default_rng(9)
        windows = rng.random((n_threads, per_thread, 8, 12))
        served: dict[tuple[int, int], str] = {}
        failures = []

        def worker(cid):
            try:
                with ServeClient(path, tenant=f"t{cid}") as client:
                    for i in range(per_thread):
                        if (cid + i) % 3 == 0:
                            response = client.adapt((cid + i) % 4)
                            served[cid, i] = response["result"]["digest"]
                        else:
                            mode = list(Mode)[i % 2].value
                            response = client.decide(mode,
                                                     windows[cid, i])
                            served[cid, i] = response["digest"]
            except Exception as exc:  # noqa: BLE001 - asserted below
                failures.append(exc)

        try:
            wait_until_ready(path, timeout_s=60.0)
            threads = [threading.Thread(target=worker, args=(c,))
                       for c in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            server.request_stop()
            server.serve_forever()
        assert not failures
        cpu = server.cpu
        for (cid, i), digest in served.items():
            if (cid + i) % 3 == 0:
                trace = server.traces[(cid + i) % 4]
                expected = adapt_payload(cpu.run(trace))["digest"]
            else:
                mode = list(Mode)[i % 2]
                probs = cpu.predictor.predict_proba(windows[cid, i], mode)
                expected = decide_payload(
                    probs,
                    cpu.predictor.model_for(mode).decision_threshold,
                )["digest"]
            assert digest == expected, (cid, i)
        assert len(served) == n_threads * per_thread


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and two CPUs")
class TestCpuPinning:
    def test_connection_threads_share_one_cpu(self, daemon):
        before = os.sched_getaffinity(0)
        with ServeClient(daemon.address) as client:
            assert client.ping()
            conn_threads = [t for t in threading.enumerate()
                            if t.name == "repro-serve-conn"]
            assert conn_threads
            for thread in conn_threads:
                assert os.sched_getaffinity(thread.native_id) == \
                    daemon._cpu
        # Only the daemon's own threads are pinned.
        assert os.sched_getaffinity(0) == before

    def test_pool_workers_forked_from_a_pinned_thread_get_cpus_back(self):
        import concurrent.futures
        from repro.exec.parallel import _pool_worker_init
        cpus = os.sched_getaffinity(0)
        seen = []

        def pinned():
            os.sched_setaffinity(0, {min(cpus)})
            with concurrent.futures.ProcessPoolExecutor(
                    1, initializer=_pool_worker_init) as pool:
                seen.append(pool.submit(os.sched_getaffinity, 0).result())

        thread = threading.Thread(target=pinned)
        thread.start()
        thread.join()
        assert seen == [cpus]


# ---------------------------------------------------------------------
# Resident arena on the daemon's CPU.
# ---------------------------------------------------------------------
class TestResidentArena:
    def test_pickled_cpu_drops_resident_arena(self):
        import pickle
        traces = serving_corpus(2, 1, 48)
        cpu = AdaptiveCPU(const_predictor())
        try:
            assert cpu.install_resident_arena(traces) is not None
            clone = pickle.loads(pickle.dumps(cpu))
            assert clone._resident_arena is None
            assert clone._resident_index == {}
        finally:
            cpu.close_resident_arena()

    def test_close_is_idempotent(self):
        cpu = AdaptiveCPU(const_predictor())
        cpu.close_resident_arena()
        cpu.close_resident_arena()

    def test_resident_reuse_bit_identical_to_serial(self):
        traces = serving_corpus(4, 1, 48)
        cpu = AdaptiveCPU(const_predictor())
        serial = cpu.run_many(traces, pmap=ParallelMap("serial"))
        pmap = ParallelMap("process", n_workers=2)
        try:
            cpu.install_resident_arena(traces)
            before = METRICS.count("arena.resident_reuse")
            resident = cpu.run_many(traces, pmap=pmap)
            if pmap.uses_processes(len(traces), "adaptive_prepare"):
                assert METRICS.count("arena.resident_reuse") > before
            assert [adapt_payload(r) for r in resident] == \
                [adapt_payload(r) for r in serial]
        finally:
            cpu.close_resident_arena()
            close_pools()


# ---------------------------------------------------------------------
# Resident prepared-run memo.
# ---------------------------------------------------------------------
def _refuse_prepare(cpu):
    def refuse(trace):
        raise AssertionError(f"{trace.name} was prepared again")
    cpu._prepare = refuse


class TestResidentMemo:
    def test_repeat_adapt_skips_prepare_and_matches_fresh_run(self):
        traces = serving_corpus(2, 1, 48)
        serial = ParallelMap("serial")
        cpu = AdaptiveCPU(const_predictor())
        cpu.install_resident_arena(traces, share=False)
        assert cpu._resident_memo == {}  # fills lazily
        hits = METRICS.count("adaptive_prepare.resident_hit")
        misses = METRICS.count("adaptive_prepare.resident_miss")
        first = cpu.run_many([traces[1]], pmap=serial)
        assert list(cpu._resident_memo) == [1]
        _refuse_prepare(cpu)
        again = cpu.run_many([traces[1], traces[1]], pmap=serial)
        assert METRICS.count("adaptive_prepare.resident_hit") == hits + 2
        assert METRICS.count("adaptive_prepare.resident_miss") == misses + 1
        fresh = adapt_payload(AdaptiveCPU(const_predictor()).run(traces[1]))
        for result in (*first, *again):
            assert adapt_payload(result) == fresh

    def test_close_clears_the_memo(self):
        traces = serving_corpus(2, 1, 48)
        cpu = AdaptiveCPU(const_predictor())
        cpu.install_resident_arena(traces, share=False)
        cpu.run_many(traces, pmap=ParallelMap("serial"))
        assert len(cpu._resident_memo) == 2
        cpu.close_resident_arena()
        assert cpu._resident_memo == {} and cpu._resident_index == {}
        # No longer resident: the next run prepares afresh.
        hits = METRICS.count("adaptive_prepare.resident_hit")
        cpu.run_many(traces, pmap=ParallelMap("serial"))
        assert METRICS.count("adaptive_prepare.resident_hit") == hits
        assert cpu._resident_memo == {}

    def test_memo_survives_an_arena_pickling_fallback(self, monkeypatch):
        import pickle

        from repro.exec.arena import TraceArena

        def unpicklable(*args, **kwargs):
            raise pickle.PicklingError("collaborator cannot travel")

        monkeypatch.setattr(TraceArena, "build", unpicklable)
        traces = serving_corpus(2, 1, 48)
        cpu = AdaptiveCPU(const_predictor())
        assert cpu.install_resident_arena(traces) is None
        cpu.run_many([traces[0]], pmap=ParallelMap("serial"))
        _refuse_prepare(cpu)
        cpu.run_many([traces[0]], pmap=ParallelMap("serial"))
        assert list(cpu._resident_memo) == [0]

    def test_memo_is_not_pickled(self):
        import pickle
        traces = serving_corpus(2, 1, 48)
        cpu = AdaptiveCPU(const_predictor())
        cpu.install_resident_arena(traces, share=False)
        cpu.run_many(traces, pmap=ParallelMap("serial"))
        assert len(cpu._resident_memo) == 2
        blob = pickle.dumps(cpu)
        assert b"_PreparedRun" not in blob
        assert pickle.loads(blob)._resident_memo == {}

    def test_shadow_cpu_shares_the_memo(self):
        from repro.online.registry import ModelRegistry
        traces = serving_corpus(2, 1, 48)
        founder = AdaptiveCPU(const_predictor())
        founder.install_resident_arena(traces, share=False)
        founder.run_many([traces[0]], pmap=ParallelMap("serial"))
        registry = ModelRegistry(founder)
        shadow = registry.shadow_cpu(const_predictor())
        assert shadow._resident_memo is founder._resident_memo
        _refuse_prepare(shadow)
        served = shadow.run_many([traces[0]], pmap=ParallelMap("serial"))
        assert adapt_payload(served[0]) == adapt_payload(
            AdaptiveCPU(const_predictor()).run(traces[0]))
        registry.swap(const_predictor())
        promoted = registry.current().cpu
        assert promoted._resident_memo is founder._resident_memo
        registry.close()
        assert founder._resident_memo == {}
        assert promoted._resident_memo == {}

    def test_daemon_stats_report_memo_hits(self, daemon):
        expected = adapt_payload(
            AdaptiveCPU(const_predictor()).run(daemon.traces[2]))
        with ServeClient(daemon.address) as client:
            first = client.adapt(2)
            before = client.stats()
            served = client.adapt(2)
            after = client.stats()
            # A repeat is answered from the generation's adapt memo and
            # never reaches the prepared-run memo below it.
            assert after["adapt_memo"]["hits"] == \
                before["adapt_memo"]["hits"] + 1
            assert after["adapt_memo"]["misses"] == \
                before["adapt_memo"]["misses"]
            assert after["resident_memo"] == before["resident_memo"]
            assert 1 <= after["adapt_memo"]["entries"] <= len(daemon.traces)
            assert first["result"] == served["result"] == expected
            # A promotion retires the adapt memo but keeps the prepared
            # runs: the first adapt after it recomputes from a hit there.
            daemon.registry.swap(const_predictor())
            swapped = client.adapt(2)
            final = client.stats()
        assert final["adapt_memo"]["generation"] == \
            after["adapt_memo"]["generation"] + 1
        assert final["adapt_memo"]["entries"] == 1
        assert final["adapt_memo"]["hits"] == after["adapt_memo"]["hits"]
        assert final["adapt_memo"]["misses"] == \
            after["adapt_memo"]["misses"] + 1
        assert final["resident_memo"]["hits"] == \
            after["resident_memo"]["hits"] + 1
        assert final["resident_memo"]["misses"] == \
            after["resident_memo"]["misses"]
        assert swapped["model_generation"] == final["adapt_memo"]["generation"]
        assert swapped["result"] == expected

    def test_concurrent_runs_share_the_memo_safely(self):
        import sys
        from repro.online.registry import ModelRegistry
        traces = serving_corpus(3, 1, 48)
        expected = [adapt_payload(AdaptiveCPU(const_predictor()).run(t))
                    for t in traces]
        founder = AdaptiveCPU(const_predictor())
        founder.install_resident_arena(traces, share=False)
        shadow = ModelRegistry(founder).shadow_cpu(const_predictor())
        hits = METRICS.count("adaptive_prepare.resident_hit")
        misses = METRICS.count("adaptive_prepare.resident_miss")
        wrong = []
        runs_per_thread = 6

        def worker(seed):
            rng = np.random.default_rng(seed)
            cpu = founder if seed % 2 else shadow
            for _ in range(runs_per_thread):
                picks = [int(i) for i in rng.integers(0, 3, size=2)]
                results = cpu.run_many([traces[i] for i in picks],
                                       pmap=ParallelMap("serial"))
                wrong.extend(i for i, r in zip(picks, results)
                             if adapt_payload(r) != expected[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert set(founder._resident_memo) == {0, 1, 2}
        lookups = (METRICS.count("adaptive_prepare.resident_hit") - hits
                   + METRICS.count("adaptive_prepare.resident_miss")
                   - misses)
        assert lookups == 6 * runs_per_thread * 2


# ---------------------------------------------------------------------
# Per-generation adapt memo.
# ---------------------------------------------------------------------
@contextlib.contextmanager
def _const_daemon(tmp_path, **kwargs):
    path = str(tmp_path / "memo.sock")
    server = build_server(path, predictor_kind="const", n_apps=3,
                          workloads_per_app=1, intervals=48, **kwargs)
    server.start()
    try:
        wait_until_ready(path, timeout_s=60.0)
        yield server
    finally:
        server.request_stop()
        server.serve_forever()


def _flipped_predictor() -> DualModePredictor:
    """A swap-compatible predictor whose gating differs from the const
    stub's."""
    return DualModePredictor(
        name="serve_flipped",
        models={Mode.HIGH_PERF: ConstProbModel(0.2),
                Mode.LOW_POWER: ConstProbModel(0.9)},
        counter_ids=np.array([0, 1, 2, 3]), granularity_factor=1)


def _direct(predictor, trace) -> dict:
    return adapt_payload(AdaptiveCPU(predictor).run(trace))


class TestAdaptMemo:
    def test_repeat_adapt_never_reaches_run_many(self, tmp_path):
        with _const_daemon(tmp_path) as server:
            with ServeClient(server.address) as client:
                first = client.adapt(1)

                def refuse(*args, **kwargs):
                    raise AssertionError("a repeat adapt ran its trace")

                server.cpu.run_many = refuse
                hits = METRICS.count("serve.adapt_memo_hit")
                again = [client.adapt(1), client.adapt(1, budget_ms=5.0)]
            with ServeClient(server.address, tenant="other") as client:
                again.append(client.adapt(1))
            assert METRICS.count("serve.adapt_memo_hit") == hits + 3
        expected = _direct(const_predictor(), server.traces[1])
        assert first["result"] == expected
        for response in again:
            assert response["result"] == expected
            assert response["model_generation"] == 0

    def test_swap_recomputes_under_the_new_generation(self, tmp_path):
        with _const_daemon(tmp_path) as server:
            with ServeClient(server.address) as client:
                old = client.adapt(0)
                old_entry = server.registry.current()
                server.registry.swap(_flipped_predictor())
                assert server.registry.current().adapts == {}
                misses = METRICS.count("serve.adapt_memo_miss")
                new = client.adapt(0)
                assert METRICS.count("serve.adapt_memo_miss") == misses + 1
                assert client.adapt(0)["result"] == new["result"]
                memo = client.stats()["adapt_memo"]
        trace = server.traces[0]
        assert old["model_generation"] == 0
        assert old["result"] == _direct(const_predictor(), trace)
        assert new["model_generation"] == 1
        assert new["result"] == _direct(_flipped_predictor(), trace)
        assert new["result"]["digest"] != old["result"]["digest"]
        # The retired generation's memo kept only its own outcome.
        assert list(old_entry.adapts) == [0]
        assert old_entry.adapts[0][0] == old["result"]
        assert memo["generation"] == 1 and memo["entries"] == 1

    def test_pin_mismatch_on_a_memoised_trace_is_stale(self, tmp_path):
        with _const_daemon(tmp_path) as server:
            with ServeClient(server.address) as client:
                client.adapt(2)
            with ServeClient(server.address, pin_generation=1) as pinned:
                with pytest.raises(StaleGenerationError) as info:
                    pinned.adapt(2)
            assert (info.value.requested, info.value.current) == (1, 0)
            with ServeClient(server.address, pin_generation=0) as pinned:
                assert pinned.adapt(2)["result"] == _direct(
                    const_predictor(), server.traces[2])

    def test_online_ring_records_hits_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ONLINE", "1")
        monkeypatch.setenv("REPRO_ONLINE_RING", "64")
        monkeypatch.setenv("REPRO_ONLINE_SAMPLE", "1")
        monkeypatch.setenv("REPRO_ONLINE_INTERVAL_S", "3600")
        order = [0, 1, 0, 0, 1, 2, 2]
        with _const_daemon(tmp_path) as server:
            assert server.ring is not None
            seen = server.ring.seen
            hits = METRICS.count("serve.adapt_memo_hit")
            with ServeClient(server.address) as client:
                for index in order:
                    client.adapt(index)
            assert METRICS.count("serve.adapt_memo_hit") == hits + 4
            assert server.ring.seen == seen + len(order)
            rows = server.ring.window(len(order), op=OP_ADAPT)
        assert rows["trace_index"].tolist() == order
        for row in rows:
            run = AdaptiveCPU(const_predictor()).run(
                server.traces[int(row["trace_index"])])
            accuracy = (np.count_nonzero(run.predictions == run.labels)
                        / run.predictions.shape[0])
            assert row["generation"] == 0
            # The ring stores float32 samples.
            assert row["accuracy"] == np.float32(accuracy)
            assert row["ppw_gain"] == np.float32(run.ppw_gain)
            assert row["residency"] == np.float32(run.residency)

    def test_batch_hang_still_fires_on_a_memo_hit(self, tmp_path):
        with _const_daemon(tmp_path, batch_timeout_s=0.2,
                           breaker_threshold=100) as server:
            with ServeClient(server.address) as client:
                expected = client.adapt(0)["result"]
                hits = METRICS.count("serve.adapt_memo_hit")
                discarded = METRICS.count(
                    "serve.abandoned_results_discarded")
                plan = FaultPlan(seed=0, batch_hang=1.0, hang_s=0.6)
                with faults.inject(plan):
                    with pytest.raises(BatchTimeoutError):
                        client.adapt(0)
                    deadline = time.monotonic() + 10.0
                    while (METRICS.count("serve.abandoned_results_discarded")
                           == discarded and time.monotonic() < deadline):
                        time.sleep(0.01)
                # The hung execution woke, hit the memo, and its late
                # answer was dropped.
                assert METRICS.count(
                    "serve.abandoned_results_discarded") == discarded + 1
                assert METRICS.count("serve.adapt_memo_hit") == hits + 1
                assert server.supervisor.trips == 1
                assert client.adapt(0)["result"] == expected

    def test_memo_holds_at_most_one_outcome_per_trace(self, tmp_path):
        failures = []
        with _const_daemon(tmp_path) as server:
            n = len(server.traces)

            def worker(seed):
                order = np.random.default_rng(seed).permutation(3 * n) % n
                try:
                    with ServeClient(server.address) as client:
                        for index in order:
                            client.adapt(int(index))
                            assert len(server.registry.current().adapts) \
                                <= n
                except Exception as exc:  # noqa: BLE001 - asserted below
                    failures.append(exc)

            threads = [threading.Thread(target=worker, args=(s,))
                       for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(server.address) as client:
                memo = client.stats()["adapt_memo"]
        assert not failures
        assert sorted(server.registry.current().adapts) == list(range(n))
        assert memo["entries"] == n


# ---------------------------------------------------------------------
# Signals.
# ---------------------------------------------------------------------
class TestSignals:
    def test_sigterm_right_after_listen_exits_cleanly(self, tmp_path):
        """The main thread must wake for a signal delivered elsewhere.

        Python runs a signal handler on the main thread, and only when
        that thread executes bytecode. A daemon whose main thread sits
        in an untimed wait ignored a SIGTERM sent as soon as its socket
        appeared and a client connected (most of 8 tries).
        """
        import signal
        import subprocess
        import sys
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        for attempt in range(8):
            address = str(tmp_path / f"sig{attempt}.sock")
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket",
                 address, "--predictor", "const", "--apps", "2",
                 "--workloads-per-app", "1", "--intervals", "16"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            try:
                deadline = time.monotonic() + 60.0
                while True:
                    try:
                        with socket.socket(socket.AF_UNIX) as conn:
                            conn.connect(address)
                        break
                    except OSError:
                        # Not bound, or bound but not yet listening.
                        assert time.monotonic() < deadline
                        time.sleep(0.002)
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=5.0) == 0, attempt
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
