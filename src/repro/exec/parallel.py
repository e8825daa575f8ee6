"""Deterministic parallel fan-out.

:class:`ParallelMap` is the one abstraction every dataset-scale path
uses to iterate over traces, configurations or folds. It offers four
backends — ``serial``, ``thread``, ``process`` and ``auto`` — behind a
single ``map`` call that always returns results in input order, so a
parallel run is bit-identical to a serial one for any workload whose
items are independent and internally seeded (everything in this repo
is; see :mod:`repro.rng`).

Design points:

* **Chunked dispatch** — items are grouped into contiguous chunks to
  amortise task submission and pickling overhead; chunk results are
  reassembled by index, never by completion order. Chunk size is
  adaptive: when :data:`~repro.obs.metrics.METRICS` has seen the
  stage before, chunks are sized from the observed per-item cost to
  hit a target task duration; otherwise ~4 chunks per worker.
* **Persistent pools** — worker pools are created lazily, keyed by
  ``(backend, n_workers)``, and reused across ``map``/``map_chunks``
  calls and across stages, so fork/spawn cost is paid once per
  process instead of once per call. :func:`close_pools` (registered
  ``atexit``) shuts them down; ``REPRO_EXEC_POOL=fresh`` restores the
  pool-per-call behaviour for comparison.
* **Adaptive dispatch** — the ``auto`` backend measures a one-item
  probe (or reuses the stage's cost history) and only pays for a
  process pool when the remaining work would amortise it; tiny
  corpora and 1-CPU containers stay serial.
* **Shared-memory result return** — on the process backend, workers
  hoist large result ndarrays into per-chunk mmap segments
  (:mod:`repro.exec.shmres`) and ship only descriptors; the parent
  validates (CRC/bounds, arena-style) and reconstructs zero-copy
  views, quarantining a corrupt segment back to pickled returns.
  ``REPRO_EXEC_SHMRES=0`` disables it.
* **Worker-side RNG seeding** — when a ``seed`` is given, the global
  NumPy RNG is re-seeded *per item* from ``derive_seed(seed, index)``
  before the item runs, so any stray use of the global generator is
  reproducible regardless of which worker executes which item.
* **Fault tolerance** — failed chunks (worker crashes, broken pools,
  per-task timeouts) are retried with exponential backoff up to
  ``REPRO_EXEC_RETRIES`` times. A broken process pool is rebuilt once;
  if it breaks again the map degrades to the thread backend, and when
  the retry budget is exhausted the final rung is a serial re-run —
  the same ladder (process → thread → serial) as pool-startup and
  pickling failures, every step recorded in
  :data:`~repro.obs.metrics.METRICS` (``parallel.retries``,
  ``parallel.timeouts``, ``parallel.pool_rebuild``,
  ``parallel.degrade_thread``, ``parallel.fallback_serial``). Only
  hung tasks that time out on *every* retry surface an error — the
  typed :class:`~repro.errors.WorkerTimeoutError` — because a hang
  would also hang the serial rung. Genuine task errors (a
  ``DatasetError`` raised by the worker function) propagate unchanged
  and are never retried. Maps that run *inside* a process-pool worker
  always resolve to serial, so nested fan-outs (model training inside
  a hyperscreen cell) cannot recursively spawn pools. The
  :mod:`repro.exec.faults` layer can inject every one of these
  failures deterministically (``REPRO_FAULT_SPEC``).

Defaults come from the environment so existing entry points pick up
parallelism without signature changes: ``REPRO_EXEC_BACKEND`` selects
the backend (default ``serial``), ``REPRO_EXEC_WORKERS`` the worker
count (default: CPU count), ``REPRO_EXEC_CHUNK`` pins the chunk size,
``REPRO_EXEC_POOL`` picks persistent vs fresh pools,
``REPRO_EXEC_RETRIES`` bounds chunk retries, ``REPRO_EXEC_TIMEOUT``
sets the per-task timeout (pool backends only) and
``REPRO_EXEC_SHMRES`` toggles shared-memory result return.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import pickle
import threading
import time
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro import rng as rng_mod
from repro.config import KNOB, active_exec_config
from repro.errors import (
    ConfigurationError,
    ResultIntegrityError,
    WorkerCrashError,
    WorkerTimeoutError,
)
from repro.exec import faults
from repro.exec import shmres
from repro.obs import tracer
from repro.obs.metrics import METRICS

#: ``auto`` only fans out when the estimated total work for a map call
#: is at least this many seconds — below it, pool submission overhead
#: eats the win and serial execution is faster.
AUTO_MIN_PARALLEL_S = 0.2

#: Adaptive chunk sizing targets tasks of roughly this duration: long
#: enough to amortise submission, short enough to balance load.
TARGET_CHUNK_S = 0.05

#: Exceptions that mean "the pool/payload is unusable", not "the task
#: failed": these trigger the serial fallback. Genuine task errors
#: (e.g. DatasetError from a worker) propagate unchanged.
_FALLBACK_ERRORS = (
    concurrent.futures.BrokenExecutor,
    pickle.PicklingError,
    AttributeError,  # "Can't pickle local object ..."
    TypeError,  # "cannot pickle '_thread.lock' object"
    ImportError,
    OSError,
    WorkerCrashError,  # crash retries exhausted: last rung is serial
    ResultIntegrityError,  # shm-return quarantine retries exhausted
)

#: Chunk failures worth retrying on a (possibly rebuilt) pool — the
#: pool died under the task, not the task under its own inputs.
_RETRYABLE_ERRORS = (
    concurrent.futures.BrokenExecutor,
    WorkerCrashError,
)

#: Exponential-backoff schedule between chunk retries:
#: ``BACKOFF_BASE_S * 2**(attempt - 1)``, capped at ``BACKOFF_MAX_S``.
BACKOFF_BASE_S = 0.02
BACKOFF_MAX_S = 1.0

#: Set in process-pool workers (via the pool initializer) so maps that
#: run inside a worker stay serial instead of forking grandchildren.
_IN_WORKER = False

#: ``.active`` is set on thread-pool worker threads (via the pool
#: initializer) so maps issued from inside one run inline: a nested map
#: over the same pool would otherwise wait on tasks that no free worker
#: can run.
_THREAD_WORKER = threading.local()


def _pool_worker_init() -> None:
    global _IN_WORKER
    _IN_WORKER = True
    # Forked from a pinned serve thread: take the parent's CPUs back.
    try:
        os.sched_setaffinity(0, os.sched_getaffinity(os.getppid()))
    except (AttributeError, OSError):
        pass


def _thread_worker_init() -> None:
    _THREAD_WORKER.active = True


def _new_pool(backend: str, n_workers: int) -> concurrent.futures.Executor:
    if backend == "thread":
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=n_workers, initializer=_thread_worker_init)
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=n_workers, initializer=_pool_worker_init)


# ---------------------------------------------------------------------
# Persistent pools.
# ---------------------------------------------------------------------
_POOLS: dict[tuple[str, int], concurrent.futures.Executor] = {}
_POOL_LOCK = threading.Lock()

#: Pools discarded mid-map because their workers died. They are shut
#: down without waiting at discard time (the caller is busy retrying);
#: :func:`close_pools` drains them so a crashed persistent pool cannot
#: leak broken worker processes past an explicit engine shutdown.
_DISCARDED_POOLS: list[concurrent.futures.Executor] = []


def _get_pool(backend: str,
              n_workers: int) -> concurrent.futures.Executor:
    """The process-wide warm pool for (backend, n_workers)."""
    key = (backend, n_workers)
    with _POOL_LOCK:
        pool = _POOLS.get(key)
        if pool is not None:
            METRICS.incr("parallel.pool_reuse")
            return pool
        start = time.perf_counter()
        pool = _new_pool(backend, n_workers)
        _POOLS[key] = pool
        METRICS.incr("parallel.pool_create")
        METRICS.gauge_add("parallel.pools_open", 1)
        METRICS.add_time("pool_create", time.perf_counter() - start)
        return pool


def _discard_pool(backend: str, n_workers: int,
                  pool: concurrent.futures.Executor) -> None:
    """Forget a broken pool so the next call builds a fresh one."""
    with _POOL_LOCK:
        if _POOLS.get((backend, n_workers)) is pool:
            del _POOLS[(backend, n_workers)]
        _DISCARDED_POOLS.append(pool)
    pool.shutdown(wait=False, cancel_futures=True)


def close_pools() -> None:
    """Shut down every persistent pool (atexit, tests, benchmarks).

    Also drains pools discarded mid-map after their workers died:
    those executors were shut down without waiting at discard time, so
    without this second pass a crashed persistent pool could leak its
    remaining worker processes until interpreter exit. The
    ``parallel.pools_open`` gauge counts every pool whose workers may
    still be alive (created minus fully drained), so after this call
    it reads 0 — the regression test for the degradation ladder
    asserts exactly that, plus idempotence: a second call finds both
    registries empty and decrements nothing.
    """
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
        pools.extend(_DISCARDED_POOLS)
        _DISCARDED_POOLS.clear()
    for pool in pools:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            # A pool whose manager thread already died can raise on a
            # second shutdown; nothing is left to reclaim from it.
            METRICS.incr("parallel.pool_close_error")
        METRICS.incr("parallel.pool_close")
        METRICS.gauge_add("parallel.pools_open", -1)


atexit.register(close_pools)


def _chunk_fault_point(stage: str | None, first_index: int,
                       attempt: int) -> None:
    """Worker-side fault site, consulted once per pooled chunk.

    Crash and hang faults only exist where there is a worker to kill
    or a timeout to trip, so serial execution (including the serial
    fallback rung) never passes through here — which is what keeps a
    fault-injected serial run bit-identical to a fault-free one. The
    retry attempt is part of the site key, so a chunk that crashed on
    attempt 0 draws a fresh decision on attempt 1.
    """
    site = f"{stage}/{first_index}/{attempt}"
    if faults.should_inject("crash", site, track_occurrence=False):
        if _IN_WORKER:
            os._exit(13)  # a genuine worker death: BrokenProcessPool
        raise WorkerCrashError(
            f"injected worker crash in stage {stage!r} "
            f"(chunk at index {first_index}, attempt {attempt})"
        )
    faults.maybe_hang(site)


def _sidecar_mark() -> tuple | None:
    """Checkpoint worker-local metrics/spans before a chunk runs.

    Only process-pool workers return a mark: thread workers share the
    parent's registry (their observations are already in place) and
    the serial path *is* the parent.
    """
    if not _IN_WORKER:
        return None
    return (METRICS.mark(), tracer.mark())


def _sidecar(marks: tuple | None) -> dict | None:
    """Everything this worker observed since the mark, picklable.

    Rides home on the chunk-result tuple; the parent merges it so
    counters bumped inside workers (fault injections, arena attach
    hits, cache hits) stop dying with the worker process. Spans are
    drained *and cleared* so a persistent worker never re-ships them.
    """
    if marks is None:
        return None
    metrics_mark, span_mark = marks
    return {
        "pid": os.getpid(),
        "metrics": METRICS.delta(metrics_mark),
        "spans": tracer.drain_reset(span_mark),
    }


def _merge_sidecar(sidecar: dict | None) -> None:
    """Parent-side: fold a worker's sidecar into this process."""
    if sidecar is None:
        return
    if METRICS.merge(sidecar["metrics"]):
        METRICS.incr("obs.worker_merges")
        tracer.absorb(sidecar["spans"])


def _run_chunk(fn: Callable, indexed: Sequence[tuple[int, object]],
               seed: int | None, stage: str | None = None,
               attempt: int = 0, pooled: bool = False,
               spool: str | None = None,
               ) -> tuple[list, float, dict | None]:
    """Run one chunk of (index, item) pairs.

    Returns ``(results, busy_s, sidecar)``; the sidecar is ``None``
    except in process-pool workers, where it carries the metrics delta
    and spans recorded while the chunk ran (see :func:`_sidecar`).
    When a ``spool`` directory is given and this runs in a process-pool
    worker, large result arrays are hoisted into a shared-memory
    segment there (:func:`repro.exec.shmres.encode`); thread workers
    and the serial path share the parent's address space and skip
    encoding (``_IN_WORKER`` is False).
    """
    if pooled and indexed:
        _chunk_fault_point(stage, indexed[0][0], attempt)
    marks = _sidecar_mark() if pooled else None
    start = time.perf_counter()
    out = []
    with tracer.span("exec.chunk", stage=stage, items=len(indexed)):
        for index, item in indexed:
            if seed is not None:
                np.random.seed(rng_mod.derive_seed(seed, "exec-item", index)
                               % (2 ** 32))
            out.append(fn(item))
    if spool is not None and _IN_WORKER:
        out = shmres.encode(out, spool)
    return out, time.perf_counter() - start, _sidecar(marks)


def _run_batch(fn: Callable, first_index: int, items: list,
               seed: int | None, stage: str | None = None,
               attempt: int = 0, pooled: bool = False,
               spool: str | None = None,
               ) -> tuple[list, float, dict | None]:
    """Run one whole-chunk call of a batch function; see ``map_chunks``."""
    if pooled and items:
        _chunk_fault_point(stage, first_index, attempt)
    marks = _sidecar_mark() if pooled else None
    start = time.perf_counter()
    with tracer.span("exec.chunk", stage=stage, items=len(items)):
        if seed is not None:
            np.random.seed(rng_mod.derive_seed(seed, "exec-chunk",
                                               first_index) % (2 ** 32))
        out = fn(items)
    if spool is not None and _IN_WORKER:
        out = shmres.encode(out, spool)
    return out, time.perf_counter() - start, _sidecar(marks)


class ParallelMap:
    """Ordered, chunked, deterministic map over independent items."""

    def __init__(self, backend: str | None = None,
                 n_workers: int | None = None,
                 chunk_size: int | None = None,
                 seed: int | None = None,
                 persistent: bool | None = None,
                 retries: int | None = None,
                 timeout: float | None = None) -> None:
        config = active_exec_config()
        if n_workers is None:
            n_workers = config.workers or os.cpu_count() or 1
        # Explicit arguments pass the same bounds as their knobs.
        self.backend = KNOB["backend"].validate(
            config.backend if backend is None else backend)
        self.n_workers = KNOB["workers"].validate(n_workers, "n_workers")
        self.chunk_size = KNOB["chunk"].validate(chunk_size, "chunk_size")
        self.seed = seed
        self.persistent = persistent
        self.retries = KNOB["retries"].validate(retries)
        self.timeout = KNOB["timeout"].validate(timeout)

    # ------------------------------------------------------------------
    # Adaptive dispatch.
    # ------------------------------------------------------------------
    def _resolve_backend(self, n_items: int, stage: str) -> str:
        """Concrete backend for one call: a name, or ``probe``.

        ``probe`` means "auto, with no cost history": the caller runs
        the first item serially, times it, and finishes with
        :meth:`_decide_from_probe`.
        """
        if _IN_WORKER or getattr(_THREAD_WORKER, "active", False):
            return "serial"
        if self.backend != "auto":
            return self.backend
        if (n_items <= 1 or self.n_workers <= 1
                or (os.cpu_count() or 1) <= 1):
            return "serial"
        cost = METRICS.per_item_cost(stage)
        if cost is None:
            return "probe"
        return "process" if cost * n_items >= AUTO_MIN_PARALLEL_S \
            else "serial"

    @staticmethod
    def _decide_from_probe(probe_s: float, n_rest: int) -> str:
        return "process" if probe_s * n_rest >= AUTO_MIN_PARALLEL_S \
            else "serial"

    def uses_processes(self, n_items: int, stage: str) -> bool:
        """Would a map of ``n_items`` under ``stage`` cross the IPC
        boundary? Callers use this to decide whether building a
        :class:`~repro.exec.arena.TraceArena` is worth it. ``probe``
        counts: the probe may escalate to a process pool."""
        return self._resolve_backend(n_items, stage) in ("process", "probe")

    def _persistent(self) -> bool:
        if self.persistent is not None:
            return self.persistent
        return active_exec_config().pool == "persistent"

    def _acquire_pool(self, backend: str) -> concurrent.futures.Executor:
        if self._persistent():
            return _get_pool(backend, self.n_workers)
        METRICS.gauge_add("parallel.pools_open", 1)
        return _new_pool(backend, self.n_workers)

    def _release_pool(self, backend: str,
                      pool: concurrent.futures.Executor,
                      broken: bool) -> None:
        if not self._persistent():
            pool.shutdown(wait=True, cancel_futures=broken)
            METRICS.incr("parallel.pool_close")
            METRICS.gauge_add("parallel.pools_open", -1)
        elif broken:
            _discard_pool(backend, self.n_workers, pool)

    @staticmethod
    def _sample_payload(stage: str, task: tuple, n_tasks: int) -> None:
        """Record the pickled size of one representative task.

        ``<stage>.payload_bytes / <stage>.payload_tasks`` then reads as
        bytes shipped per task — the quantity the arena exists to
        shrink. Sampling one task per call keeps the cost negligible;
        chunks within a call are near-identical in shape. Raises the
        pickling error for unpicklable payloads, which the caller
        treats like any submission failure (serial fallback).
        """
        if faults.should_inject("payload", stage):
            raise pickle.PicklingError(
                f"injected unpicklable payload in stage {stage!r}"
            )
        blob = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
        METRICS.incr(f"{stage}.payload_bytes", len(blob))
        METRICS.incr(f"{stage}.payload_tasks", 1)
        METRICS.incr(f"{stage}.payload_tasks_total", n_tasks)

    def _retries(self) -> int:
        if self.retries is not None:
            return self.retries
        return active_exec_config().retries

    def _timeout(self) -> float | None:
        if self.timeout is not None:
            return self.timeout
        return active_exec_config().timeout

    # ------------------------------------------------------------------
    def _chunks(self, indexed: list[tuple[int, object]], stage: str,
                ) -> list[list[tuple[int, object]]]:
        """Contiguous chunks sized to keep every worker busy."""
        size = self.chunk_size
        if size is None:
            size = active_exec_config().chunk
        if size is None:
            cost = METRICS.per_item_cost(stage)
            if cost is not None and cost > 0.0:
                # Target ~TARGET_CHUNK_S of work per task, but never
                # fewer chunks than workers.
                per_worker = -(-len(indexed) // self.n_workers)
                size = max(1, min(int(TARGET_CHUNK_S / cost), per_worker))
            else:
                # ~4 chunks per worker balances load without drowning
                # the queue in per-item submissions.
                size = max(1, -(-len(indexed) // (self.n_workers * 4)))
        return [indexed[i:i + size] for i in range(0, len(indexed), size)]

    def _map_serial(self, fn: Callable,
                    indexed: list[tuple[int, object]]) -> list:
        results, _, _ = _run_chunk(fn, indexed, self.seed)
        return results

    def _pool_dispatch(self, backend: str, stage: str, chunks: list,
                       submit_args: Callable[[object, int, str | None],
                                             tuple],
                       ) -> tuple[list, float, int]:
        """Submit chunks to a pool with retry, backoff and timeouts.

        ``submit_args(chunk, attempt, spool)`` builds the positional
        argument tuple for ``pool.submit``. Returns per-chunk results
        in chunk order, total busy seconds and the effective worker
        count.

        The degradation ladder on retryable failures (a crashed worker
        or a broken pool): retry on the same pool with exponential
        backoff; if the *process* pool itself broke, rebuild it once,
        then degrade to a thread pool. Exhausting the retry budget
        re-raises the last failure — for crashes that reaches ``map``'s
        serial fallback, while per-task timeouts surface as a typed
        :class:`~repro.errors.WorkerTimeoutError` because a hung task
        would also hang the serial rung. Chunks completed on earlier
        attempts are never resubmitted, so a genuine task error from a
        later chunk still propagates unchanged.

        Shared-memory result return (``REPRO_EXEC_SHMRES``): on the
        process backend each dispatch opens a spool directory for the
        workers' result segments, decodes each :class:`ShmChunk` back
        into zero-copy views as its future completes, and sweeps any
        segments orphaned by crashed/hung/degraded workers when the
        dispatch ends. A segment that fails validation quarantines
        shm-return for the rest of this call — the pending chunks are
        retried over plain pickled results — and if retries are already
        exhausted the typed :class:`~repro.errors.ResultIntegrityError`
        reaches the caller's serial-fallback rung.
        """
        retries = self._retries()
        timeout = self._timeout()
        results: dict[int, list] = {}
        busy = 0.0
        attempt = 0
        rebuilt = False
        current = backend
        pending = list(range(len(chunks)))
        spool_dir = (shmres.open_call_spool()
                     if shmres.enabled(backend) else None)
        spool = spool_dir
        sampled = False
        try:
            while True:
                pool = self._acquire_pool(current)
                broken = False
                failure: BaseException | None = None
                futures: list = []
                try:
                    try:
                        futures = [
                            (ci, pool.submit(*submit_args(
                                chunks[ci], attempt, spool)))
                            for ci in pending
                        ]
                        for ci, future in futures:
                            try:
                                (payload, chunk_busy,
                                 sidecar) = future.result(timeout=timeout)
                                if current == "process":
                                    if not sampled:
                                        shmres.record_result_sample(
                                            stage, payload)
                                        sampled = True
                                    payload = shmres.decode(payload, stage)
                            except concurrent.futures.TimeoutError as exc:
                                METRICS.incr("parallel.timeouts")
                                broken = True  # hung worker poisons the pool
                                failure = WorkerTimeoutError(
                                    f"task in stage {stage!r} exceeded "
                                    f"{timeout}s (attempt {attempt})"
                                )
                                failure.__cause__ = exc
                                break
                            except ResultIntegrityError as exc:
                                # Quarantine shm return for this call;
                                # pending chunks retry pickled.
                                METRICS.incr("shmres.quarantine")
                                spool = None
                                failure = exc
                                break
                            except _RETRYABLE_ERRORS as exc:
                                broken = broken or isinstance(
                                    exc, concurrent.futures.BrokenExecutor)
                                failure = exc
                                break
                            else:
                                results[ci] = payload
                                busy += chunk_busy
                                _merge_sidecar(sidecar)
                    except concurrent.futures.BrokenExecutor as exc:
                        # submit() itself can raise on a broken pool.
                        broken = True
                        failure = exc
                finally:
                    if failure is not None:
                        for _, future in futures:
                            future.cancel()
                    self._release_pool(current, pool, broken)
                pending = [ci for ci in pending if ci not in results]
                if failure is None:
                    ordered = [results[ci] for ci in range(len(chunks))]
                    return ordered, busy, min(self.n_workers, len(chunks))
                if attempt >= retries:
                    raise failure
                attempt += 1
                METRICS.incr("parallel.retries")
                time.sleep(min(BACKOFF_MAX_S,
                               BACKOFF_BASE_S * 2 ** (attempt - 1)))
                if broken and current == "process":
                    if not rebuilt:
                        rebuilt = True
                        METRICS.incr("parallel.pool_rebuild")
                    else:
                        current = "thread"
                        METRICS.incr("parallel.degrade_thread")
        finally:
            shmres.close_call_spool(spool_dir)

    def _map_pool(self, fn: Callable, indexed: list[tuple[int, object]],
                  backend: str, stage: str) -> tuple[list, float, int]:
        """Fan a chunked map over a pool; (results, busy_s, workers)."""
        chunks = self._chunks(indexed, stage)
        if backend == "process":
            self._sample_payload(stage, (fn, chunks[0], self.seed),
                                 len(chunks))

        def submit_args(chunk, attempt, spool=None):
            return (_run_chunk, fn, chunk, self.seed, stage, attempt,
                    True, spool)

        per_chunk, busy, workers = self._pool_dispatch(
            backend, stage, chunks, submit_args)
        results: list = []
        for chunk_results in per_chunk:
            results.extend(chunk_results)
        return results, busy, workers

    def map(self, fn: Callable, items: Iterable,
            stage: str = "parallel_map") -> list:
        """Apply ``fn`` to every item; results are in input order.

        ``stage`` names the entry under which wall/busy time is
        recorded in :data:`~repro.obs.metrics.METRICS`.
        """
        indexed = list(enumerate(items))
        start = time.perf_counter()
        effective_workers = 1
        backend = self._resolve_backend(len(indexed), stage)
        results: list = []
        busy = 0.0
        with tracer.span("exec.map", stage=stage,
                         items=len(indexed)) as sp:
            if backend == "probe":
                probe_results, probe_busy, _ = _run_chunk(
                    fn, indexed[:1], self.seed)
                results.extend(probe_results)
                busy += probe_busy
                indexed = indexed[1:]
                backend = self._decide_from_probe(probe_busy, len(indexed))
                METRICS.incr("parallel.auto_probe")
            if (backend == "serial" or self.n_workers <= 1
                    or len(indexed) <= 1):
                rest, rest_busy, _ = _run_chunk(fn, indexed, self.seed)
                results.extend(rest)
                busy += rest_busy
            else:
                try:
                    rest, rest_busy, effective_workers = self._map_pool(
                        fn, indexed, backend, stage)
                    results.extend(rest)
                    busy += rest_busy
                except _FALLBACK_ERRORS:
                    METRICS.incr("parallel.fallback_serial")
                    serial_start = time.perf_counter()
                    rest, _, _ = _run_chunk(fn, indexed, self.seed)
                    results.extend(rest)
                    busy += time.perf_counter() - serial_start
            sp.set(backend=backend, workers=effective_workers)
        METRICS.add_time(stage, time.perf_counter() - start, busy,
                            workers=effective_workers)
        METRICS.incr(f"{stage}.items", len(results))
        return results

    def map_chunks(self, fn: Callable[[list], list], items: Iterable,
                   stage: str = "parallel_map_chunks") -> list:
        """Apply a *batch* function to contiguous sublists of items.

        ``fn`` receives a list of items and must return one result per
        item, in order. Workers receive whole chunks, so ``fn`` can
        batch its work (stacked simulation, concatenated inference)
        instead of processing items one at a time. Chunk boundaries
        are an execution detail: as long as ``fn``'s per-item outputs
        do not depend on the grouping (everything in this repo is
        internally seeded per item), results are bit-identical across
        backends, worker counts and chunk sizes. On the serial path
        the whole item list is one chunk — maximum batching.
        """
        items = list(items)
        n_items = len(items)
        start = time.perf_counter()
        effective_workers = 1
        backend = self._resolve_backend(n_items, stage)
        results: list = []
        busy = 0.0
        first_index = 0
        with tracer.span("exec.map_chunks", stage=stage,
                         items=n_items) as sp:
            if backend == "probe":
                probe_results, probe_busy, _ = _run_batch(
                    fn, 0, items[:1], self.seed)
                results.extend(probe_results)
                busy += probe_busy
                items = items[1:]
                first_index = 1
                backend = self._decide_from_probe(probe_busy, len(items))
                METRICS.incr("parallel.auto_probe")
            if not items:
                pass
            elif (backend == "serial" or self.n_workers <= 1
                    or len(items) <= 1):
                rest, rest_busy, _ = _run_batch(
                    fn, first_index, items, self.seed)
                results.extend(rest)
                busy += rest_busy
            else:
                indexed = [(first_index + i, item)
                           for i, item in enumerate(items)]
                try:
                    rest, rest_busy, effective_workers = (
                        self._map_chunk_pool(
                            fn, self._chunks(indexed, stage), stage))
                    results.extend(rest)
                    busy += rest_busy
                except _FALLBACK_ERRORS:
                    METRICS.incr("parallel.fallback_serial")
                    serial_start = time.perf_counter()
                    rest, _, _ = _run_batch(
                        fn, first_index, items, self.seed)
                    results.extend(rest)
                    busy += time.perf_counter() - serial_start
            sp.set(backend=backend, workers=effective_workers)
        if len(results) != n_items:
            raise ConfigurationError(
                f"map_chunks fn returned {len(results)} results for "
                f"{n_items} items"
            )
        METRICS.add_time(stage, time.perf_counter() - start, busy,
                            workers=effective_workers)
        METRICS.incr(f"{stage}.items", n_items)
        return results

    def _map_chunk_pool(self, fn: Callable[[list], list],
                        chunks: list[list[tuple[int, object]]],
                        stage: str) -> tuple[list, float, int]:
        """Fan whole chunks out to a pool; (results, busy_s, workers)."""
        backend = "thread" if self.backend == "thread" else "process"
        if backend == "process":
            self._sample_payload(
                stage,
                (fn, chunks[0][0][0],
                 [item for _, item in chunks[0]], self.seed),
                len(chunks))

        def submit_args(chunk, attempt, spool=None):
            return (_run_batch, fn, chunk[0][0],
                    [item for _, item in chunk], self.seed,
                    stage, attempt, True, spool)

        per_chunk, busy, workers = self._pool_dispatch(
            backend, stage, chunks, submit_args)
        results: list = []
        for chunk_results in per_chunk:
            results.extend(chunk_results)
        return results, busy, workers


#: Session-wide override installed by :func:`configure` (e.g. the CLI).
_DEFAULT: ParallelMap | None = None


def configure(backend: str | None = None, n_workers: int | None = None,
              chunk_size: int | None = None,
              seed: int | None = None,
              persistent: bool | None = None,
              retries: int | None = None,
              timeout: float | None = None) -> ParallelMap:
    """Install the process-wide default :class:`ParallelMap`.

    Entry points that take a ``pmap`` argument fall back to this
    default when none is passed, so one ``configure`` call (or the
    ``REPRO_EXEC_*`` environment variables) parallelises every
    dataset-scale path at once.
    """
    global _DEFAULT
    _DEFAULT = ParallelMap(backend=backend, n_workers=n_workers,
                           chunk_size=chunk_size, seed=seed,
                           persistent=persistent, retries=retries,
                           timeout=timeout)
    return _DEFAULT


def default_parallel_map() -> ParallelMap:
    """The configured default, or a fresh env-driven instance."""
    if _DEFAULT is not None:
        return _DEFAULT
    return ParallelMap()


def reset_default() -> None:
    """Drop any :func:`configure` override (tests)."""
    global _DEFAULT
    _DEFAULT = None
