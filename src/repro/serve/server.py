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

Request lifecycle (one thread per connection; nothing is handed to
another thread on the way)::

    accept ─▶ recv_body ─▶ decode ─▶ validate ─▶ admit ─▶ wait ─▶ execute
      │        (framing)   (JSON     (inline:    (per-op  (op's  (on this
      │                    header +  ping/stats/ in-flight executor thread)
      │                    float64   health/     bound)   slot)
      │                    tensors)  shutdown)
      └──────────────────◀── encode + send_frame ◀── payload ◀─────┘

Each stage's count and time are accumulated per op in the metrics
registry (``serve.<op>.<stage>``) and reported by the ``stats`` op, so
the daemon itself says where a request's time went. Running requests
on their own threads is invisible to correctness: ``adapt`` executes
one :meth:`~repro.core.adaptive_cpu.AdaptiveCPU.run_many` call over
its trace, bit-identical to a direct :meth:`run`, and ``decide`` one
row-wise ``predict_proba`` over its window. Admission, the watchdog
and the breaker live in :mod:`repro.serve.supervisor`; requests with
an idempotency ``key`` are deduplicated; :func:`build_server` restores
and writes warm-state checkpoints. DESIGN.md draws the failure ladder.
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
from repro.errors import StaleGenerationError
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
from repro.serve.checkpoint import (corpus_fingerprint, load_checkpoint,
                                    save_checkpoint)
from repro.serve.protocol import OPS, adapt_payload
from repro.serve.protocol import decide_payload, decode_frame, recv_body
from repro.serve.protocol import send_frame
from repro.serve.supervisor import (Execution, ExecutionWatchdog,
                                    InflightTable, ServeCircuitBreaker)
from repro.uarch.modes import Mode
from repro.workloads.generator import TraceSpec, generate_application

#: Exit code of an injected ``daemon_crash`` (and the supervised
#: restart tests' marker for "died as planned, restart me").
DAEMON_CRASH_EXIT = 86

#: Completed idempotency-key entries retained for dedup lookups.
DEDUP_CAPACITY = 4096

#: Request stages timed per op (``wait``: for the op's executor slot).
_STAGES = ("decode", "validate", "wait", "execute", "send")

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
    so a request costs real work (unlike the const stub).
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


class _Conn:
    """One client socket, its buffered reader and the send lock the
    reader thread shares with the watchdog's ``timeout`` answer."""

    __slots__ = ("sock", "send_lock", "rfile")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.send_lock = threading.Lock()
        # One recv syscall (one GIL release) reads a whole small frame.
        self.rfile = sock.makefile("rb")

    def close(self) -> None:
        # The descriptor is released once both are closed.
        for handle in (self.rfile, self.sock):
            try:
                handle.close()
            except OSError:
                pass


class _Abandoned(Exception):
    """The watchdog abandoned this execution; its result is dropped."""


def _error(request_id: object, kind: str, detail: object,
           **extra) -> dict:
    """A typed error response."""
    return {"id": request_id, "ok": False, "error": kind,
            "detail": str(detail), **extra}


def _timeout_response(request_id: object, error: BaseException) -> dict:
    """The typed, retryable answer to an abandoned execution."""
    return _error(request_id, "timeout", error, retry=True)


def _stale_response(request_id: object,
                    error: StaleGenerationError) -> dict:
    """The answer to a request whose generation constraint failed."""
    return _error(request_id, "stale_generation", error,
                  requested=error.requested, current=error.current)


class AdaptationServer:
    """Persistent daemon serving adaptation requests over a socket.

    ``address`` is a filesystem path (AF_UNIX, the default transport)
    or a ``(host, port)`` tuple (AF_INET, for cross-host smoke tests);
    port 0 binds an ephemeral port published via :attr:`address`.
    Admission/watchdog/breaker knobs default to the active
    :class:`~repro.config.ExecConfig` (``REPRO_SERVE_*``).
    """

    def __init__(self, cpu: AdaptiveCPU, traces: list[TraceSpec],
                 address: str | tuple[str, int],
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
        # entry, and executors snapshot an entry once per request.
        self.registry = ModelRegistry(cpu, generation=generation)
        self.traces = list(traces)
        self.address = address
        self.queue_bound = (queue_bound if queue_bound is not None
                            else config.serve_queue_bound)
        self.batch_timeout_s = (
            batch_timeout_s if batch_timeout_s is not None
            else config.serve_batch_timeout_s)
        self.init_s = init_s
        self.checkpoint_info = checkpoint_info
        self._pmap = pmap if pmap is not None else default_parallel_map()
        # The connection threads' one CPU; the pid spreads daemons.
        cpus = sorted(getattr(os, "sched_getaffinity", lambda _: ())(0))
        self._cpu = {cpus[os.getpid() % len(cpus)]} if cpus else None
        self.ledger = TenantLedger()
        self._listener: socket.socket | None = None
        self._conns: set[_Conn] = set()
        self._conn_lock = threading.Lock()
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False
        self._started = time.monotonic()
        self._requests = 0
        self._executors = {"adapt": self._execute_adapt,
                           "decide": self._execute_decide}
        self._inflight = {op: InflightTable(self.queue_bound, name=op)
                          for op in self._executors}
        threshold = (breaker_threshold if breaker_threshold is not None
                     else config.serve_breaker_threshold)
        cooldown = (breaker_cooldown_s
                    if breaker_cooldown_s is not None
                    else config.serve_breaker_cooldown_s)
        self.breakers = {
            op: ServeCircuitBreaker(threshold, cooldown, name=op)
            for op in self._executors
        }
        self.supervisor = ExecutionWatchdog(
            self._inflight, self.batch_timeout_s, on_abandon=self._abandon)
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
        promotions transparently. Executors snapshot one
        :class:`~repro.online.registry.ModelEntry` per request, which
        is what keeps an in-flight request digest-stable across a
        swap.
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
        watcher = threading.Thread(target=self._watch_stop,
                                   name="repro-serve-watcher", daemon=True)
        watcher.start()
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`request_stop` (or a signal) fires.

        The wait wakes every half second: a signal delivered to another
        thread runs its Python handler only when the main thread next
        executes bytecode, which an untimed wait never does.
        """
        while not self._stopped.wait(0.5):
            pass

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

        Closes the listener and live connections, stops admitting
        inference requests, unmaps the resident arena, tears down warm
        worker pools and then verifies nothing leaked: any worker
        process still alive after the grace period is terminated and
        reported as a :class:`ServeError` — a daemon must not strand
        children.
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
        for table in self._inflight.values():
            table.close()
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
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
                sock, _ = self._listener.accept()
            except OSError:
                return  # listener closed by shutdown
            conn = _Conn(sock)
            with self._conn_lock:
                self._conns.add(conn)
            self._spawn_reader(conn)

    def _spawn_reader(self, conn: _Conn) -> None:
        threading.Thread(target=self._handle_conn, args=(conn,),
                         name="repro-serve-conn", daemon=True).start()

    def _close_conn(self, conn: _Conn) -> None:
        with self._conn_lock:
            self._conns.discard(conn)
        conn.close()

    def _handle_conn(self, conn: _Conn) -> None:
        """Read, run and answer requests until the peer goes away, on
        the daemon's one CPU: GIL hand-offs between threads on other
        CPUs cost more than the threads overlap (DESIGN.md, serving)."""
        if self._cpu is not None:
            os.sched_setaffinity(0, self._cpu)
        handed_off = False
        try:
            while not self._stop.is_set():
                try:
                    body = recv_body(conn.rfile.read)
                except (ProtocolError, OSError, ValueError):
                    # ValueError: shutdown closed the reader under us.
                    return
                if body is None:
                    return
                start = time.perf_counter()
                try:
                    request = decode_frame(body)
                except ProtocolError as exc:
                    # The length prefix kept the stream in sync, so
                    # the connection survives an undecodable body.
                    request, response = {}, _error(None, "bad_request",
                                                   exc)
                else:
                    self._record_stage(request.get("op"), "decode",
                                       time.perf_counter() - start)
                    response = self._dispatch(request, conn)
                if response is None:
                    # Abandoned: the watchdog answered, and a
                    # replacement reader owns the socket now.
                    handed_off = True
                    return
                op = request.get("op")
                start = time.perf_counter()
                try:
                    with conn.send_lock:
                        send_frame(conn.sock, response,
                                   fault_key=f"serve.send/{op}")
                except OSError:
                    return
                self._record_stage(op, "send",
                                   time.perf_counter() - start)
                if op == "shutdown":
                    # Only now that the acknowledgement is on the wire:
                    # shutdown closes every connection, including this
                    # one.
                    self.request_stop()
                    return
        finally:
            if not handed_off:
                self._close_conn(conn)

    @staticmethod
    def _record_stage(op: object, stage: str, seconds: float) -> None:
        """Accumulate one request's time in ``stage`` for its op."""
        if op in OPS:
            METRICS.add_time(f"serve.{op}.{stage}", seconds)

    def _dispatch(self, request: dict,
                  conn: _Conn | None = None) -> dict | None:
        """Route one decoded request; returns its response, or ``None``
        when the watchdog abandoned it and already answered on ``conn``
        (without a connection, the ``timeout`` is returned instead)."""
        request_id = request.get("id")
        op = request.get("op")
        self._requests += 1
        METRICS.incr("serve.requests")
        if op not in OPS:
            return _error(request_id, "bad_request",
                          f"unknown op {op!r}; expected one of {list(OPS)}")
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
        # Inference ops: the raw frame becomes a typed request at this
        # edge; everything downstream (validation, admission,
        # executors, dedup) handles typed values.
        start = time.perf_counter()
        try:
            typed = parse_request(request)
        except ProtocolError as exc:
            return _error(request_id, "bad_request", exc)
        error = self._validate(op, typed)
        self._record_stage(op, "validate", time.perf_counter() - start)
        if error is not None:
            return _error(request_id, "bad_request", error)
        current = self.registry.generation
        if typed.min_generation is not None \
                and current < typed.min_generation:
            # Monotonic generations make this pre-check safe: the
            # executor's snapshot can only be newer.
            return _stale_response(request_id, StaleGenerationError(
                f"daemon serves generation {current}; request requires "
                f">= {typed.min_generation}",
                requested=typed.min_generation, current=current))
        if faults.should_inject("daemon_crash",
                                f"serve.dispatch/{op}"):
            # The whole process dies mid-dispatch, exactly like a
            # segfaulting native extension: no response frame, every
            # connection drops, the supervising parent re-execs.
            os._exit(DAEMON_CRASH_EXIT)
        key = typed.key if isinstance(typed.key, str) else None
        execution = Execution(op, request_id, key, conn)
        breaker = self.breakers[op]
        level = breaker.route()
        try:
            with tracer.span("serve.request", op=op, tenant=typed.tenant,
                             level=level):
                payload = self._execute_keyed(execution, typed, level)
        except _Abandoned:
            if conn is not None:
                return None
            return _timeout_response(request_id, execution.error)
        except BusyError as exc:
            # Load shed (in-flight bound or breaker level 2):
            # back-pressure working as designed, not an executor
            # failure — the breaker does not record it either way.
            return busy_response(request_id, exc.queue_depth,
                                 self.queue_bound,
                                 retry_after=exc.retry_after_ms)
        except ServeClosedError:
            return {"id": request_id, "ok": False, "error": "closed"}
        except BatchTimeoutError as exc:
            # A dedup waiter whose original execution was abandoned.
            breaker.record_failure()
            return _timeout_response(request_id, exc)
        except StaleGenerationError as exc:
            # The executor's snapshot did not satisfy the request's
            # pin; not an executor failure, so the breaker stays green.
            breaker.record_success()
            return _stale_response(request_id, exc)
        except Exception as exc:  # executor failure, typed for the peer
            breaker.record_failure()
            return _error(request_id, "internal",
                          f"{type(exc).__name__}: {exc}")
        breaker.record_success()
        # Typed responses serialise here, at the wire edge; raw dicts
        # (test doubles, future pass-through ops) are sent as-is.
        wire = payload.to_wire() if hasattr(payload, "to_wire") \
            else payload
        return {"id": request_id, "ok": True, "op": op, **wire}

    # ------------------------------------------------------------------
    # Execution: breaker level, admission, watchdog, dedup.
    # ------------------------------------------------------------------
    def _execute_routed(self, execution: Execution,
                        request: "AdaptRequest | DecideRequest",
                        level: int):
        """Run one request on this thread at the breaker-chosen level;
        :class:`_Abandoned` when the watchdog gave up on it first."""
        op = execution.op
        table = self._inflight[op]
        if level >= 2:
            METRICS.incr("serve.breaker_shed")
            depth = table.depth()
            raise BusyError(
                f"op {op!r} shed by circuit breaker",
                queue_depth=depth,
                retry_after_ms=retry_after_ms(
                    max(depth, 1), table.drain.rate_rps()),
            )
        if level == 1:
            METRICS.incr("serve.serial_requests")
        # Serial admits one request of the op at a time and sheds the
        # rest instead of queueing them behind a failing executor.
        table.admit(execution, bound=1 if level == 1 else None)
        admitted = time.perf_counter()
        if not table.enter(execution):
            table.finish(execution)
            raise _Abandoned()
        start = time.perf_counter()
        self._record_stage(op, "wait", start - admitted)
        try:
            plan = faults.active_plan()
            if plan is not None and faults.should_inject(
                    "batch_hang", f"serve.execute/{op}"):
                # The executor "hangs": past the timeout, the watchdog
                # abandons this execution while we sleep.
                time.sleep(plan.hang_s)
            result = self._executors[op](request)
        finally:
            if not table.finish(execution):
                # Abandoned: drop the late result (or error) unseen.
                METRICS.incr("serve.abandoned_results_discarded")
                raise _Abandoned()
        done = time.perf_counter()
        self._record_stage(op, "execute", done - start)
        self.ledger.record(request.tenant, done - admitted,
                           request.budget_ms)
        return result

    def _execute_keyed(self, execution: Execution,
                       request: "AdaptRequest | DecideRequest",
                       level: int):
        """Dedup wrapper: one execution per idempotency key.

        The first request claiming a key executes; concurrent
        duplicates (a hedge, or a retry racing a slow original) wait
        and receive the original's payload. A failed or abandoned
        execution drops the entry so a later retry runs fresh; a
        successful payload is retained (bounded LRU) for retries
        arriving after the original connection died mid-response.
        """
        key = execution.key
        if key is None:
            return self._execute_routed(execution, request, level)
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
            # Bounded wait: the original is subject to the watchdog
            # timeout, so a vanished owner cannot park retries forever.
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
            payload = self._execute_routed(execution, request, level)
        except BaseException as exc:
            self._fail_dedup(key, entry, exc)
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

    def _fail_dedup(self, key: str, entry: _DedupEntry | None,
                    error: BaseException) -> None:
        """Drop ``key``'s in-flight entry (``entry``, or whichever holds
        the key) and wake its waiters with ``error``; an entry a retry
        re-created under the key is never touched."""
        with self._dedup_lock:
            current = self._dedup.get(key)
            if entry is None:
                entry = current
            if entry is None or entry.event.is_set():
                return
            if current is entry:
                del self._dedup[key]
        entry.error = error
        entry.event.set()

    def _abandon(self, execution: Execution,
                 error: BatchTimeoutError) -> None:
        """Watchdog hook: record the breaker failure, fail the dedup
        entry, send the typed ``timeout`` and start a replacement
        reader — the hung thread never touches the socket again."""
        self.breakers[execution.op].record_failure()
        if execution.key is not None:
            self._fail_dedup(execution.key, None, error)
        conn = execution.conn
        if conn is None:
            return
        try:
            with conn.send_lock:
                send_frame(conn.sock,
                           _timeout_response(execution.request_id, error))
        except OSError:
            self._close_conn(conn)
            return
        self._spawn_reader(conn)

    def _validate(self, op: str,
                  request: "AdaptRequest | DecideRequest") -> str | None:
        budget = request.budget_ms
        if budget is not None and (not isinstance(budget, (int, float))
                                   or isinstance(budget, bool)
                                   or not budget > 0):
            return f"budget_ms must be a positive number, got {budget!r}"
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
        if (not isinstance(window, np.ndarray) or window.ndim != 2
                or window.dtype != np.float64 or not window.shape[0]):
            return ("window must be a non-empty 2-D float64 tensor of "
                    "counter rows")
        width = len(self.cpu.predictor.counter_ids)
        if window.shape[1] != width:
            return (f"window rows must hold {width} counter values, got "
                    f"{window.shape[1]}")
        mode = request.mode
        if mode not in [m.value for m in Mode]:
            return (f"mode must be one of "
                    f"{[m.value for m in Mode]}, got {mode!r}")
        return None

    # ------------------------------------------------------------------
    # Executors (run on the connection thread that decoded the request).
    # ------------------------------------------------------------------
    def _entry_for(self, request):
        """The registry entry that serves ``request``, resolved ONCE (the
        generation fence: a promotion mid-execution cannot change the
        request's model) and checked against its ``pin_generation`` —
        authoritative, unlike the dispatch-time ``min_generation``
        pre-check."""
        entry = self.registry.current()
        pin = request.pin_generation
        if pin is not None and pin != entry.generation:
            raise StaleGenerationError(
                f"request pinned to generation {pin}; served by "
                f"generation {entry.generation}",
                requested=pin, current=entry.generation)
        return entry

    def _execute_adapt(self, request: AdaptRequest):
        """One ``run_many`` over the request's resident trace: it reuses
        the memoised prepared run and is bit-identical to a direct
        ``run``."""
        entry = self._entry_for(request)
        index = request.trace_index
        result = entry.cpu.run_many([self.traces[index]],
                                    pmap=self._pmap)[0]
        if self.ring is not None:
            # Realized outcome sample for the continual loop: the
            # labels come free with the interval-model run.
            accuracy = float(np.count_nonzero(
                result.predictions == result.labels)
                / max(result.predictions.shape[0], 1))
            if self.ring.record_adapt(index, entry.generation, accuracy,
                                      float(result.ppw_gain),
                                      float(result.residency)):
                METRICS.incr("online.samples")
        return AdaptResponse(result=adapt_payload(result),
                             model_generation=entry.generation)

    def _execute_decide(self, request: DecideRequest):
        """One ``predict_proba`` over the request's window."""
        entry = self._entry_for(request)
        predictor = entry.cpu.predictor
        mode = Mode(request.mode)
        payload = decide_payload(
            predictor.predict_proba(request.window, mode),
            predictor.model_for(mode).decision_threshold)
        decisions = payload["decisions"]
        if self.ring is not None and self.ring.record_decide(
                entry.generation,
                float(np.mean(decisions)) if decisions else 0.0):
            METRICS.incr("online.samples")
        return DecideResponse(mode=mode.value, probs=payload["probs"],
                              decisions=decisions,
                              digest=payload["digest"],
                              model_generation=entry.generation)

    # ------------------------------------------------------------------
    def _stats(self) -> dict:
        snapshot = METRICS.snapshot()
        counters = snapshot.get("counters", {})
        stages = snapshot.get("stages", {})
        executed = sum(stages.get(f"serve.{op}.execute", {}).get("calls", 0)
                       for op in OPS)
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "requests": self._requests,
            "corpus_traces": len(self.traces),
            "predictor": self.cpu.predictor.name,
            "n_counters": int(len(self.cpu.predictor.counter_ids)),
            "queue_bound": self.queue_bound,
            "queue_depth": {op: t.depth()
                            for op, t in self._inflight.items()},
            # Both count executions; perfbench still reads these keys.
            "batches": executed,
            "shed": counters.get("serve.shed", 0),
            "flush_wait": executed,
            "stages": {
                op: {stage: {"count": st["calls"],
                             "total_s": round(st["wall_s"], 6)}
                     for stage in _STAGES
                     if (st := stages.get(f"serve.{op}.{stage}"))}
                for op in OPS
            },
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
            queue_depth={op: t.depth()
                         for op, t in self._inflight.items()},
            drain_rps={op: round(t.drain.rate_rps(), 3)
                       for op, t in self._inflight.items()},
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


__all__ = ["AdaptationServer", "ConstProbModel", "DAEMON_CRASH_EXIT",
           "build_server", "const_predictor", "quick_forest_predictor",
           "serving_corpus"]
