"""The adaptation-serving daemon.

A batch CLI invocation pays the full cold-start bill per request:
import the package, synthesize or load the trace corpus, train (or
unpickle) the predictor, spin up worker pools, then answer one
question and throw it all away. :class:`AdaptationServer` loads once
and stays resident — the corpus lives in a daemon-lifetime
:class:`~repro.exec.arena.TraceArena`, worker pools stay warm, the
dual predictor stays trained and the SimCache stays open — and
answers adaptation requests over a local socket for the life of the
process.

Request lifecycle::

    accept ──▶ recv_frame ──▶ validate ──▶ micro-batch ──▶ execute
      │           (protocol)    (inline:       (taken when    (one
      │                         ping/stats/    the executor   run_many /
      │                         shutdown)      is free)       predict)
      └────────────────────────◀── send_frame ◀── payload ◀───┘

Batching is invisible to correctness: ``adapt`` batches execute as one
:meth:`~repro.core.adaptive_cpu.AdaptiveCPU.run_many` call, which is
bit-identical to per-trace :meth:`run` calls (the repo-wide batched-
path invariant), and ``decide`` batches concatenate telemetry windows
into one ``predict_proba`` per (mode, model) — row-wise inference, so
slicing the stacked result back apart returns identical bits.

Resilience (see the failure ladder in DESIGN.md):

* a :class:`~repro.serve.supervisor.BatcherSupervisor` watchdog
  abandons batches hung past ``REPRO_SERVE_BATCH_TIMEOUT``, failing
  only the in-flight requests with a typed ``timeout`` response;
* each batched op runs behind a
  :class:`~repro.serve.supervisor.ServeCircuitBreaker` that degrades
  ``batched → serial → shed`` on repeated failures and probes its way
  back;
* requests carrying an idempotency ``key`` are deduplicated, so a
  client retrying (or hedging) after a dropped/corrupted response
  frame observes the original execution's payload instead of running
  twice;
* with a checkpoint path configured, :func:`build_server` restores
  warm state (corpus + trained predictor) from a
  CRC-validated checkpoint and writes one after any cold build, so a
  supervised restart reaches ready in a fraction of a cold start.
"""

from __future__ import annotations

import collections
import os
import signal
import socket
import threading
import time

import multiprocessing
import numpy as np

from repro.config import active_exec_config
from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.predictor import DualModePredictor
from repro.data.builders import dataset_from_traces
from repro.errors import BatchTimeoutError, BusyError, CheckpointError
from repro.errors import ProtocolError, ServeClosedError, ServeError
from repro.exec import faults
from repro.exec.parallel import ParallelMap, close_pools
from repro.exec.parallel import default_parallel_map
from repro.ml.base import Estimator
from repro.ml.forest import RandomForestClassifier
from repro.obs import tracer
from repro.obs.metrics import METRICS
from repro.online.drift import DriftDetector
from repro.online.learner import OnlineLearner
from repro.online.registry import ModelRegistry
from repro.online.ringbuf import TelemetryRing
from repro.serve.admission import (TenantLedger, busy_response,
                                   retry_after_ms)
from repro.serve.api import (AdaptRequest, AdaptResponse, DecideRequest,
                             DecideResponse, HealthStatus, parse_request)
from repro.serve.batcher import MicroBatcher
from repro.serve.checkpoint import (corpus_fingerprint, load_checkpoint,
                                    save_checkpoint)
from repro.serve.protocol import BATCHED_OPS, OPS, adapt_payload
from repro.serve.protocol import decide_payload, recv_frame, send_frame
from repro.serve.supervisor import BatcherSupervisor, ServeCircuitBreaker
from repro.uarch.modes import Mode
from repro.workloads.generator import TraceSpec, generate_application

#: Exit code of an injected ``daemon_crash`` (and the supervised
#: restart tests' marker for "died as planned, restart me").
DAEMON_CRASH_EXIT = 86

#: Completed idempotency-key entries retained for dedup lookups.
DEDUP_CAPACITY = 4096

#: Workload families the deterministic serving corpus cycles through —
#: the same coverage mix the perf benchmarks use.
_FAMILIES = ("pointer_chase", "compute_fp", "store_burst", "branchy",
             "bandwidth", "compute_int", "dep_chain", "media")


def serving_corpus(n_apps: int = 8, workloads_per_app: int = 2,
                   intervals: int = 96, seed: int = 11,
                   ) -> list[TraceSpec]:
    """The deterministic trace corpus a daemon serves requests against.

    Requests address traces by corpus index, so client and server must
    agree on the corpus; the same (seed, shape) always yields the same
    traces.
    """
    traces = []
    for i in range(n_apps):
        family = _FAMILIES[i % len(_FAMILIES)]
        app = generate_application(f"serveapp{i}", "serve",
                                   {family: 0.7, "balanced": 0.3},
                                   seed=seed + i)
        for w in range(workloads_per_app):
            traces.append(app.workload(w).trace(intervals, 0))
    return traces


class ConstProbModel(Estimator):
    """Fixed-probability model (picklable; the zero-training option)."""

    def __init__(self, prob: float) -> None:
        self.prob = prob
        self.decision_threshold = 0.5

    def fit(self, x, y):
        return self

    def predict_proba(self, x):
        return np.full(np.asarray(x).shape[0], self.prob)


def const_predictor() -> DualModePredictor:
    """A fixed-probability dual predictor (instant startup)."""
    return DualModePredictor(
        name="serve_const",
        models={Mode.HIGH_PERF: ConstProbModel(0.7),
                Mode.LOW_POWER: ConstProbModel(0.4)},
        counter_ids=np.array([0, 1, 2, 3]),
        granularity_factor=1,
    )


def quick_forest_predictor(traces: list[TraceSpec],
                           n_train: int = 6, n_trees: int = 12,
                           max_depth: int = 6, seed: int = 3,
                           ) -> DualModePredictor:
    """Train a small dual random forest on a slice of the corpus.

    The realistic serving model: per-window inference walks every tree,
    so batching amortises real per-call cost (unlike the const stub).
    """
    counter_ids = np.arange(12)
    subset = traces[:max(2, n_train)]
    models: dict[Mode, Estimator] = {}
    for mode, dataset in dataset_from_traces(subset, counter_ids).items():
        forest = RandomForestClassifier(n_trees=n_trees,
                                        max_depth=max_depth, seed=seed)
        forest.fit(dataset.x, dataset.y)
        models[mode] = forest
    return DualModePredictor(name="serve_forest", models=models,
                             counter_ids=counter_ids,
                             granularity_factor=1)


class _StaleGeneration:
    """Per-item executor verdict: a generation constraint failed.

    Returned in place of a typed response for items whose
    ``pin_generation`` did not match the batch's generation snapshot.
    Only the constrained item fails — its batch partners are served
    normally — and the dispatcher turns this marker into a
    ``stale_generation`` error frame.
    """

    __slots__ = ("requested", "current", "detail")

    def __init__(self, requested: int, current: int,
                 detail: str) -> None:
        self.requested = requested
        self.current = current
        self.detail = detail


class _DedupEntry:
    """Execution record for one idempotency key.

    In flight until ``event`` is set; then either ``payload`` (the
    original execution's result, returned to every retry/hedge) or
    ``error`` (delivered to concurrent waiters, after which the entry
    is dropped so a later retry re-executes).
    """

    __slots__ = ("event", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: dict | None = None
        self.error: BaseException | None = None


class AdaptationServer:
    """Persistent daemon serving adaptation requests over a socket.

    ``address`` is a filesystem path (AF_UNIX, the default transport)
    or a ``(host, port)`` tuple (AF_INET, for cross-host smoke tests);
    port 0 binds an ephemeral port published via :attr:`address`.
    Batching/admission knobs default to the active
    :class:`~repro.config.ExecConfig` (``REPRO_SERVE_*``).
    """

    def __init__(self, cpu: AdaptiveCPU, traces: list[TraceSpec],
                 address: str | tuple[str, int],
                 max_batch: int | None = None,
                 queue_bound: int | None = None,
                 batch_timeout_s: float | None = None,
                 breaker_threshold: int | None = None,
                 breaker_cooldown_s: float | None = None,
                 init_s: float = 0.0,
                 checkpoint_info: dict | None = None,
                 pmap: ParallelMap | None = None,
                 online: bool | None = None,
                 generation: int = 0,
                 checkpoint_path: str | None = None,
                 fingerprint: str | None = None) -> None:
        config = active_exec_config()
        # Generation fence: the serving model lives behind the
        # registry; ``self.cpu`` is a property resolving the current
        # entry, and executors snapshot an entry once per batch.
        self.registry = ModelRegistry(cpu, generation=generation)
        self.traces = list(traces)
        self.address = address
        self.max_batch = (max_batch if max_batch is not None
                          else config.serve_batch_max)
        self.queue_bound = (queue_bound if queue_bound is not None
                            else config.serve_queue_bound)
        self.batch_timeout_s = (
            batch_timeout_s if batch_timeout_s is not None
            else config.serve_batch_timeout_s)
        self.init_s = init_s
        self.checkpoint_info = checkpoint_info
        self._pmap = pmap if pmap is not None else default_parallel_map()
        self.ledger = TenantLedger()
        self._listener: socket.socket | None = None
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False
        self._started = time.monotonic()
        self._requests = 0
        self._executors = {"adapt": self._execute_adapt,
                           "decide": self._execute_decide}
        self._batchers = {
            op: MicroBatcher(executor, self.max_batch, self.queue_bound,
                             ledger=self.ledger, name=op)
            for op, executor in self._executors.items()
        }
        threshold = (breaker_threshold if breaker_threshold is not None
                     else config.serve_breaker_threshold)
        cooldown = (breaker_cooldown_s
                    if breaker_cooldown_s is not None
                    else config.serve_breaker_cooldown_s)
        self.breakers = {
            op: ServeCircuitBreaker(threshold, cooldown, name=op)
            for op in self._batchers
        }
        self.supervisor = BatcherSupervisor(
            self._batchers, self.batch_timeout_s, breakers=self.breakers)
        self._dedup: "collections.OrderedDict[str, _DedupEntry]" = \
            collections.OrderedDict()
        self._dedup_lock = threading.Lock()
        # Continual-adaptation loop (REPRO_ONLINE / --online): sampled
        # telemetry ring, drift detector and the background learner.
        self.online_enabled = (online if online is not None
                               else config.online_enabled)
        self._checkpoint_path = checkpoint_path
        self._fingerprint = fingerprint
        self.ring: TelemetryRing | None = None
        self.detector: DriftDetector | None = None
        self.learner: OnlineLearner | None = None
        if self.online_enabled:
            self.ring = TelemetryRing(config.online_ring,
                                      sample=config.online_sample)
            self.detector = DriftDetector(
                config.online_drift_window, config.online_drift_threshold,
                n_traces=len(self.traces))
            self.learner = OnlineLearner(
                self.registry, self.ring, self.detector, self.traces,
                pmap=self._pmap, interval_s=config.online_interval_s,
                on_promote=self.persist_generation)

    @property
    def cpu(self) -> AdaptiveCPU:
        """The current serving model (registry generation N).

        Kept as an attribute-compatible property so existing callers
        (stats, validation, tests doing ``daemon.cpu.run``) follow
        promotions transparently. Executors do NOT use it per item —
        they snapshot one :class:`~repro.online.registry.ModelEntry`
        per batch, which is what keeps in-flight batches
        digest-stable across a swap.
        """
        return self.registry.current().cpu

    def persist_generation(self, generation: int) -> None:
        """Rewrite the serve checkpoint to the promoted generation.

        Called by the learner after a swap so a supervised restart
        resumes warm on the *new* model instead of replaying the
        promotion. Best-effort: a failed write costs warm restarts,
        never serving.
        """
        if not self._checkpoint_path or self._fingerprint is None:
            return
        entry = self.registry.current()
        try:
            save_checkpoint(self._checkpoint_path, entry.cpu,
                            self.traces, self._fingerprint,
                            generation=generation)
        except CheckpointError:
            METRICS.incr("serve.checkpoint_save_failed")
        else:
            METRICS.incr("serve.checkpoint_saves")

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> "AdaptationServer":
        """Bind, install the resident arena, spawn the accept loop."""
        if isinstance(self.address, tuple):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(self.address)
            self.address = listener.getsockname()[:2]
        else:
            if os.path.exists(self.address):
                os.unlink(self.address)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(self.address)
        listener.listen(64)
        self._listener = listener
        # Resident corpus: adapts on it reuse memoised prepared runs,
        # and process fan-outs ship arena indices instead of
        # re-packing the corpus per request.
        self.cpu.install_resident_arena(
            self.traces, share=self._pmap.uses_processes(
                len(self.traces), "adaptive_prepare"))
        self.supervisor.start()
        if self.learner is not None:
            self.learner.start()
        accept = threading.Thread(target=self._accept_loop,
                                  name="repro-serve-accept", daemon=True)
        accept.start()
        self._threads.append(accept)
        watcher = threading.Thread(target=self._watch_stop,
                                   name="repro-serve-watcher", daemon=True)
        watcher.start()
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`request_stop` (or a signal) fires."""
        self._stopped.wait()

    def request_stop(self) -> None:
        """Ask the watcher thread to run shutdown (signal-safe)."""
        self._stop.set()

    def install_signal_handlers(self) -> None:
        """Route SIGTERM/SIGINT into a clean :meth:`request_stop`."""
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda _s, _f: self.request_stop())

    def _watch_stop(self) -> None:
        self._stop.wait()
        self.shutdown()

    def shutdown(self) -> None:
        """Release every resident resource; idempotent.

        Closes the listener and live connections, drains the batchers,
        unmaps the resident arena, tears down warm worker pools and
        then verifies nothing leaked: any worker process still alive
        after the grace period is terminated and reported as a
        :class:`ServeError` — a daemon must not strand children.
        """
        with self._shutdown_lock:
            if self._shutdown_done:
                return
            self._shutdown_done = True
        self._stop.set()
        if self.learner is not None:
            self.learner.stop()
        self.supervisor.stop()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        for batcher in self._batchers.values():
            batcher.close()
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass
        self.registry.close()
        close_pools()
        if (not isinstance(self.address, tuple)
                and os.path.exists(self.address)):
            try:
                os.unlink(self.address)
            except OSError:
                pass
        leaked = self._reap_children()
        self._stopped.set()
        if leaked:
            raise ServeError(
                f"{leaked} worker process(es) survived shutdown"
            )

    @staticmethod
    def _reap_children(grace_s: float = 2.0) -> int:
        """Wait for pool workers to exit; terminate stragglers."""
        deadline = time.monotonic() + grace_s
        while multiprocessing.active_children():
            if time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        leaked = multiprocessing.active_children()
        for child in leaked:
            child.terminate()
            child.join(timeout=1.0)
        return len(leaked)

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown
            with self._conn_lock:
                self._conns.add(conn)
            handler = threading.Thread(
                target=self._handle_conn, args=(conn,),
                name="repro-serve-conn", daemon=True)
            handler.start()
            self._threads.append(handler)

    def _handle_conn(self, conn: socket.socket) -> None:
        try:
            while not self._stop.is_set():
                try:
                    request = recv_frame(conn)
                except (ProtocolError, OSError):
                    return
                if request is None:
                    return
                response = self._dispatch(request)
                try:
                    send_frame(conn, response,
                               fault_key=f"serve.send/"
                                         f"{request.get('op')}")
                except OSError:
                    return
                if request.get("op") == "shutdown":
                    # Only now that the acknowledgement is on the wire:
                    # shutdown closes every connection, including this
                    # one.
                    self.request_stop()
                    return
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, request: dict) -> dict:
        """Route one validated request; always returns a response."""
        request_id = request.get("id")
        op = request.get("op")
        self._requests += 1
        METRICS.incr("serve.requests")
        if op not in OPS:
            return {"id": request_id, "ok": False, "error": "bad_request",
                    "detail": f"unknown op {op!r}; expected one of "
                              f"{list(OPS)}"}
        if op == "ping":
            return {"id": request_id, "ok": True, "op": "ping"}
        if op == "stats":
            return {"id": request_id, "ok": True, "op": "stats",
                    "stats": self._stats()}
        if op == "health":
            return {"id": request_id, "ok": True, "op": "health",
                    "health": self._health()}
        if op == "shutdown":
            # The connection handler triggers the actual stop after the
            # acknowledgement frame has been written back.
            return {"id": request_id, "ok": True, "op": "shutdown"}
        # Batched inference ops: the raw frame becomes a typed request
        # at this edge; everything downstream (validation, batcher,
        # executors, dedup) handles typed values.
        try:
            typed = parse_request(request)
        except ProtocolError as exc:
            return {"id": request_id, "ok": False, "error": "bad_request",
                    "detail": str(exc)}
        tenant = typed.tenant
        error = self._validate(op, typed)
        if error is not None:
            return {"id": request_id, "ok": False, "error": "bad_request",
                    "detail": error}
        if typed.min_generation is not None:
            current = self.registry.generation
            if current < typed.min_generation:
                # Monotonic generations make this pre-check safe: the
                # executor's snapshot can only be newer.
                return {"id": request_id, "ok": False,
                        "error": "stale_generation",
                        "detail": f"daemon serves generation {current}; "
                                  f"request requires >= "
                                  f"{typed.min_generation}",
                        "requested": typed.min_generation,
                        "current": current}
        if faults.should_inject("daemon_crash",
                                f"serve.dispatch/{op}"):
            # The whole process dies mid-dispatch, exactly like a
            # segfaulting native extension: no response frame, every
            # connection drops, the supervising parent re-execs.
            os._exit(DAEMON_CRASH_EXIT)
        breaker = self.breakers[op]
        level = breaker.route()
        try:
            with tracer.span("serve.request", op=op, tenant=tenant,
                             level=level):
                payload = self._execute_keyed(op, typed, tenant,
                                              level)
        except BusyError as exc:
            # Load shed (queue full or breaker level 2): back-pressure
            # working as designed, not an executor failure — the
            # breaker does not record it either way.
            return busy_response(request_id, exc.queue_depth,
                                 self.queue_bound,
                                 retry_after=exc.retry_after_ms)
        except ServeClosedError:
            return {"id": request_id, "ok": False, "error": "closed"}
        except BatchTimeoutError as exc:
            breaker.record_failure()
            return {"id": request_id, "ok": False, "error": "timeout",
                    "detail": str(exc), "retry": True}
        except Exception as exc:  # executor failure, typed for the peer
            breaker.record_failure()
            return {"id": request_id, "ok": False, "error": "internal",
                    "detail": f"{type(exc).__name__}: {exc}"}
        breaker.record_success()
        if isinstance(payload, _StaleGeneration):
            # The executor's batch snapshot did not satisfy the item's
            # pin; not an executor failure, so the breaker stays green.
            return {"id": request_id, "ok": False,
                    "error": "stale_generation",
                    "detail": payload.detail,
                    "requested": payload.requested,
                    "current": payload.current}
        # Typed responses serialise here, at the wire edge; raw dicts
        # (test doubles, future pass-through ops) are sent as-is.
        wire = payload.to_wire() if hasattr(payload, "to_wire") \
            else payload
        return {"id": request_id, "ok": True, "op": op, **wire}

    # ------------------------------------------------------------------
    # Routing: breaker level + idempotency-key dedup.
    # ------------------------------------------------------------------
    def _execute_routed(self, op: str,
                        request: "AdaptRequest | DecideRequest",
                        tenant: str, level: int):
        """Run one request at the breaker-chosen execution level."""
        batcher = self._batchers[op]
        if level >= 2:
            METRICS.incr("serve.breaker_shed")
            depth = batcher.depth()
            raise BusyError(
                f"op {op!r} shed by circuit breaker",
                queue_depth=depth,
                retry_after_ms=retry_after_ms(
                    max(depth, 1), batcher.drain.rate_rps()),
            )
        if level == 1:
            # Serial per-request on the handler thread: no batching
            # amortisation, but one poisoned batch partner cannot take
            # this request down with it.
            METRICS.incr("serve.serial_requests")
            return self._executors[op]([request])[0]
        return batcher.submit(request, tenant)

    def _execute_keyed(self, op: str,
                       request: "AdaptRequest | DecideRequest",
                       tenant: str, level: int):
        """Dedup wrapper: one execution per idempotency key.

        The first request claiming a key executes; concurrent
        duplicates (a hedge, or a retry racing a slow original) wait
        and receive the original's payload. A failed execution drops
        the entry so a later retry runs fresh; a successful payload is
        retained (bounded LRU) for retries arriving after the original
        connection died mid-response.
        """
        key = request.key
        if key is None or not isinstance(key, str):
            return self._execute_routed(op, request, tenant, level)
        with self._dedup_lock:
            entry = self._dedup.get(key)
            owner = entry is None
            if owner:
                entry = _DedupEntry()
                self._dedup[key] = entry
            else:
                self._dedup.move_to_end(key)
        if not owner:
            METRICS.incr("serve.dedup_hits")
            # Bounded wait: the original is subject to the batch
            # timeout plus restart slack, so a vanished owner cannot
            # park retries forever.
            entry.event.wait(timeout=max(self.batch_timeout_s * 4,
                                         60.0))
            if entry.payload is not None:
                return entry.payload
            if entry.error is not None:
                raise entry.error
            raise ServeError(
                f"timed out waiting for original execution of "
                f"key {key!r}"
            )
        try:
            payload = self._execute_routed(op, request, tenant, level)
        except BaseException as exc:
            with self._dedup_lock:
                self._dedup.pop(key, None)
            entry.error = exc
            entry.event.set()
            raise
        entry.payload = payload
        entry.event.set()
        with self._dedup_lock:
            while len(self._dedup) > DEDUP_CAPACITY:
                old_key, old = next(iter(self._dedup.items()))
                if not old.event.is_set():
                    break  # never evict an in-flight execution
                del self._dedup[old_key]
        return payload

    def _validate(self, op: str,
                  request: "AdaptRequest | DecideRequest") -> str | None:
        for field in ("min_generation", "pin_generation"):
            value = getattr(request, field)
            if value is not None and (not isinstance(value, int)
                                      or isinstance(value, bool)
                                      or value < 0):
                return (f"{field} must be a non-negative int, "
                        f"got {value!r}")
        if op == "adapt":
            index = request.trace_index
            if (not isinstance(index, int) or isinstance(index, bool)
                    or not 0 <= index < len(self.traces)):
                return (f"trace_index must be an int in "
                        f"[0, {len(self.traces)}), got {index!r}")
            return None
        window = request.window
        if not isinstance(window, list) or not window:
            return "window must be a non-empty list of counter rows"
        width = len(self.cpu.predictor.counter_ids)
        for row in window:
            if not isinstance(row, list) or len(row) != width:
                return (f"each window row must be a list of {width} "
                        f"counter values")
        mode = request.mode
        if mode not in [m.value for m in Mode]:
            return (f"mode must be one of "
                    f"{[m.value for m in Mode]}, got {mode!r}")
        return None

    # ------------------------------------------------------------------
    # Batch executors (run on the batcher threads).
    # ------------------------------------------------------------------
    def _stale(self, item, entry) -> "_StaleGeneration | None":
        """Pin check against the batch's generation snapshot.

        Authoritative (unlike the dispatch-time ``min_generation``
        pre-check): it compares against the exact entry that computed
        — or would have computed — this item's answer.
        """
        pin = item.pin_generation
        if pin is None or pin == entry.generation:
            return None
        return _StaleGeneration(
            requested=pin, current=entry.generation,
            detail=f"request pinned to generation {pin}; batch served "
                   f"by generation {entry.generation}")

    def _execute_adapt(self, items: list) -> list:
        """One ``run_many`` over the batch's traces.

        ``run_many`` on the resident corpus is bit-identical to
        per-trace ``run`` calls, so coalescing concurrent requests
        changes latency only.

        Generation fence: the registry entry is resolved ONCE here and
        used for the whole batch — a promotion landing mid-batch
        cannot change these items' model, so their digests stay
        identical to direct calls on the generation stamped into the
        response.
        """
        entry = self.registry.current()
        indices = [item.trace_index for item in items]
        results = entry.cpu.run_many(
            [self.traces[i] for i in indices], pmap=self._pmap)
        out = []
        for item, index, result in zip(items, indices, results):
            stale = self._stale(item, entry)
            if stale is not None:
                out.append(stale)
                continue
            if self.ring is not None:
                # Realized outcome sample for the continual loop: the
                # labels come free with the interval-model run.
                accuracy = float(np.count_nonzero(
                    result.predictions == result.labels)
                    / max(result.predictions.shape[0], 1))
                if self.ring.record_adapt(index, entry.generation,
                                          accuracy,
                                          float(result.ppw_gain),
                                          float(result.residency)):
                    METRICS.incr("online.samples")
            out.append(AdaptResponse(
                result=adapt_payload(result),
                model_generation=entry.generation))
        return out

    def _execute_decide(self, items: list) -> list:
        """One ``predict_proba`` per mode over concatenated windows.

        Inference is row-wise, so stacking the batch's windows per
        mode and slicing the probabilities back out returns exactly
        the bits of one call per request. The same per-batch
        generation snapshot as ``_execute_adapt`` applies.
        """
        entry = self.registry.current()
        predictor = entry.cpu.predictor
        by_mode: dict[Mode, list[int]] = {}
        for i, item in enumerate(items):
            by_mode.setdefault(Mode(item.mode), []).append(i)
        out: list = [None] * len(items)
        for mode, positions in by_mode.items():
            windows = [np.asarray(items[i].window, dtype=np.float64)
                       for i in positions]
            stacked = np.concatenate(windows, axis=0)
            probs = predictor.predict_proba(stacked, mode)
            threshold = predictor.model_for(mode).decision_threshold
            offset = 0
            for i, window in zip(positions, windows):
                rows = window.shape[0]
                payload = decide_payload(probs[offset:offset + rows],
                                         threshold)
                offset += rows
                stale = self._stale(items[i], entry)
                if stale is not None:
                    out[i] = stale
                    continue
                if self.ring is not None:
                    decisions = payload["decisions"]
                    if self.ring.record_decide(
                            entry.generation,
                            float(np.mean(decisions))
                            if decisions else 0.0):
                        METRICS.incr("online.samples")
                out[i] = DecideResponse(
                    mode=mode.value, probs=payload["probs"],
                    decisions=payload["decisions"],
                    digest=payload["digest"],
                    model_generation=entry.generation)
        return out

    # ------------------------------------------------------------------
    def _stats(self) -> dict:
        snapshot = METRICS.snapshot()
        counters = snapshot.get("counters", {})
        batch_hist = snapshot.get("histograms", {}).get(
            "serve.batch_size", {})
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "requests": self._requests,
            "corpus_traces": len(self.traces),
            "predictor": self.cpu.predictor.name,
            "n_counters": int(len(self.cpu.predictor.counter_ids)),
            "max_batch": self.max_batch,
            "queue_bound": self.queue_bound,
            "queue_depth": {op: b.depth()
                            for op, b in self._batchers.items()},
            "batches": counters.get("serve.batches", 0),
            "shed": counters.get("serve.shed", 0),
            "flush_full": counters.get("serve.flush_full", 0),
            "flush_wait": counters.get("serve.flush_wait", 0),
            "batch_size": batch_hist,
            "resident_arena": self.cpu._resident_arena is not None,
            "resident_memo": {
                "entries": len(self.cpu._resident_memo),
                "hits": counters.get("adaptive_prepare.resident_hit", 0),
                "misses": counters.get("adaptive_prepare.resident_miss",
                                       0),
            },
            "tenants": self.ledger.snapshot(),
        }

    def _health(self) -> dict:
        """Liveness/degradation surface for probes and operators."""
        checkpoint = None
        if self.checkpoint_info is not None:
            checkpoint = dict(self.checkpoint_info)
            created = checkpoint.pop("created", None)
            if created is not None:
                checkpoint["age_s"] = round(
                    max(time.time() - created, 0.0), 3)
        with self._dedup_lock:
            dedup_entries = len(self._dedup)
        online = None
        if self.online_enabled:
            online = {
                "ring": self.ring.snapshot(),
                "drift": self.detector.snapshot(),
                "learner": self.learner.snapshot(),
                "registry": self.registry.snapshot(),
            }
        return HealthStatus(
            ready=not self._stop.is_set(),
            uptime_s=round(time.monotonic() - self._started, 3),
            init_s=round(self.init_s, 6),
            requests=self._requests,
            queue_depth={op: b.depth()
                         for op, b in self._batchers.items()},
            drain_rps={op: round(b.drain.rate_rps(), 3)
                       for op, b in self._batchers.items()},
            breakers={op: breaker.snapshot()
                      for op, breaker in self.breakers.items()},
            watchdog=self.supervisor.snapshot(),
            batch_timeout_s=self.batch_timeout_s,
            checkpoint=checkpoint,
            dedup_entries=dedup_entries,
            model_generation=self.registry.generation,
            online=online,
        ).to_wire()


def build_server(address: str | tuple[str, int],
                 predictor_kind: str = "forest",
                 n_apps: int = 8, workloads_per_app: int = 2,
                 intervals: int = 96, seed: int = 11,
                 checkpoint_path: str | None = None,
                 **kwargs) -> AdaptationServer:
    """Assemble the standard daemon: corpus, predictor, server.

    ``predictor_kind`` is ``"forest"`` (quick-trained dual random
    forest, the realistic default) or ``"const"`` (fixed-probability
    stub, instant startup for protocol-level tests).

    With ``checkpoint_path`` (default: the active config's
    ``REPRO_SERVE_CHECKPOINT``), warm state is restored from a valid
    checkpoint whose fingerprint matches the requested corpus —
    skipping corpus synthesis and predictor training — and written
    after any cold build so the *next* start is warm. A rejected
    checkpoint (missing, corrupt, fingerprint mismatch) costs nothing
    but the cold build it would have avoided.
    """
    config = active_exec_config()
    if checkpoint_path is None:
        checkpoint_path = config.serve_checkpoint
    fingerprint = corpus_fingerprint(predictor_kind, n_apps,
                                     workloads_per_app, intervals, seed)
    init_start = time.perf_counter()
    checkpoint_info: dict | None = None
    cpu: AdaptiveCPU | None = None
    traces: list[TraceSpec] | None = None
    generation = 0
    if checkpoint_path:
        try:
            state = load_checkpoint(checkpoint_path, fingerprint)
        except CheckpointError as exc:
            METRICS.incr("serve.checkpoint_rejected")
            checkpoint_info = {"path": checkpoint_path,
                               "loaded": False,
                               "rejected": str(exc)}
        else:
            METRICS.incr("serve.checkpoint_loads")
            cpu = state["cpu"]
            traces = state["traces"]
            # A restart resumes at the promoted generation: online
            # promotions rewrite the checkpoint, so the warm model IS
            # generation N and clients' min_generation bounds hold
            # across supervised crash/restart cycles.
            generation = state["generation"]
            checkpoint_info = {"path": checkpoint_path, "loaded": True,
                               "created": state["created"],
                               "generation": generation}
    if cpu is None or traces is None:
        traces = serving_corpus(n_apps, workloads_per_app, intervals,
                                seed)
        if predictor_kind == "forest":
            predictor = quick_forest_predictor(traces)
        elif predictor_kind == "const":
            predictor = const_predictor()
        else:
            raise ServeError(
                f"unknown predictor kind {predictor_kind!r}; expected "
                f"'forest' or 'const'"
            )
        cpu = AdaptiveCPU(predictor)
        if checkpoint_path:
            try:
                saved = save_checkpoint(checkpoint_path, cpu, traces,
                                        fingerprint)
            except CheckpointError:
                METRICS.incr("serve.checkpoint_save_failed")
            else:
                METRICS.incr("serve.checkpoint_saves")
                rejected = (checkpoint_info or {}).get("rejected")
                checkpoint_info = {"path": checkpoint_path,
                                   "loaded": False,
                                   "created": time.time(),
                                   "bytes": saved["bytes"]}
                if rejected:
                    checkpoint_info["rejected"] = rejected
    init_s = time.perf_counter() - init_start
    return AdaptationServer(cpu, traces, address, init_s=init_s,
                            checkpoint_info=checkpoint_info,
                            generation=generation,
                            checkpoint_path=checkpoint_path or None,
                            fingerprint=fingerprint, **kwargs)


#: Ops the batcher coalesces — re-exported for introspection parity.
__all__ = ["AdaptationServer", "ConstProbModel", "BATCHED_OPS",
           "DAEMON_CRASH_EXIT", "build_server", "const_predictor",
           "quick_forest_predictor", "serving_corpus"]
