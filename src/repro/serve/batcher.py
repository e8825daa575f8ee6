"""Work-conserving request micro-batcher.

The daemon's hot-path perf lever: requests that queue while the
executor is busy are coalesced into one batch and executed together,
so the expensive per-call costs (one ``predict_proba`` per model, one
stacked ``simulate_batch``, one pass of batcher/scheduler overhead)
amortise across requests instead of being paid per request.

Flush policy: the moment its consumer is free, the batcher takes
whatever is queued, up to ``max_batch``. It never holds a batch open
waiting for co-arrivals, so a lone request on an idle daemon executes
at once, and batches still form under load from the requests that
arrived while the previous batch executed. Each batch counts as
``serve.flush_full`` (it took ``max_batch`` requests) or
``serve.flush_wait`` (it took fewer, because the executor was free).

Admission control: :meth:`MicroBatcher.submit` sheds with a typed
:class:`~repro.errors.BusyError` when the queue is at ``queue_bound``
— callers translate it into the ``busy`` wire response instead of
letting the backlog (and every queued request's latency) grow without
bound. The error carries a ``retry_after_ms`` hint computed from the
queue depth and the batcher's recent drain rate
(:class:`~repro.serve.admission.DrainTracker`).

Priority: when a :class:`~repro.serve.admission.TenantLedger` is
attached, each flush drains pending requests in descending tenant SLA
pressure (ties broken FIFO), so tenants nearest their latency budget
are served first.

Hang recovery: Python threads cannot be killed, so a hung executor is
handled by *abandonment*. The batcher tracks its in-flight batch and a
generation counter; the supervisor's watchdog calls
:meth:`MicroBatcher.abandon_inflight` when :meth:`inflight_age`
exceeds the batch timeout. Abandonment fails only the in-flight
requests with a typed :class:`~repro.errors.BatchTimeoutError`, bumps
the generation, and starts a replacement consumer thread — queued
requests are untouched and drain normally. If the stale thread ever
wakes, it observes the generation mismatch, discards its work without
touching any request, and exits.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence

from repro.errors import BusyError, ServeClosedError
from repro.exec import faults
from repro.obs.metrics import METRICS
from repro.serve.admission import (DrainTracker, TenantLedger,
                                   retry_after_ms)


class _Pending:
    """One enqueued request waiting for its batch to execute."""

    __slots__ = ("item", "tenant", "seq", "enqueued", "event",
                 "response", "error")

    def __init__(self, item: object, tenant: str, seq: int) -> None:
        self.item = item
        self.tenant = tenant
        self.seq = seq
        self.enqueued = time.monotonic()
        self.event = threading.Event()
        self.response: object = None
        self.error: BaseException | None = None


class MicroBatcher:
    """Coalesce concurrent submissions into bounded ordered batches.

    ``execute`` receives a list of submitted items and must return one
    result per item, in order — the contract under which batching is
    invisible to correctness (the server's executors are row-wise /
    per-trace, so any grouping returns identical bits).
    """

    def __init__(self, execute: Callable[[Sequence], list],
                 max_batch: int, queue_bound: int,
                 ledger: TenantLedger | None = None,
                 name: str = "batcher") -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if queue_bound < 1:
            raise ValueError(
                f"queue_bound must be >= 1, got {queue_bound}"
            )
        self._execute = execute
        self.max_batch = max_batch
        self.queue_bound = queue_bound
        self.ledger = ledger
        self.name = name
        self.drain = DrainTracker()
        self._cv = threading.Condition()
        self._queue: list[_Pending] = []
        self._seq = 0
        self._closed = False
        self._generation = 0
        self._inflight: list[_Pending] = []
        self._inflight_since: float | None = None
        self._restarts = 0
        self._thread = self._spawn(self._generation)

    def _spawn(self, generation: int) -> threading.Thread:
        thread = threading.Thread(
            target=self._loop, args=(generation,),
            name=f"repro-serve-batcher-{self.name}-g{generation}",
            daemon=True)
        thread.start()
        return thread

    # ------------------------------------------------------------------
    # Producer side (connection handler threads).
    # ------------------------------------------------------------------
    def submit(self, item: object, tenant: str = "default") -> object:
        """Enqueue one item and block until its batch has executed.

        Raises :class:`BusyError` (admission shed) when the queue is
        full and :class:`ServeClosedError` once the batcher is closed.
        Re-raises the executor's exception if the batch failed.
        """
        with self._cv:
            if self._closed:
                raise ServeClosedError("batcher is closed")
            depth = len(self._queue)
            if depth >= self.queue_bound:
                METRICS.incr("serve.shed")
                raise BusyError(
                    f"serve queue full ({depth}/{self.queue_bound})",
                    queue_depth=depth,
                    retry_after_ms=retry_after_ms(
                        depth, self.drain.rate_rps()),
                )
            self._seq += 1
            pending = _Pending(item, tenant, self._seq)
            self._queue.append(pending)
            self._cv.notify_all()
        pending.event.wait()
        if pending.error is not None:
            raise pending.error
        return pending.response

    def depth(self) -> int:
        """Current queue depth (requests admitted, not yet batched)."""
        with self._cv:
            return len(self._queue)

    # ------------------------------------------------------------------
    # Watchdog interface (the supervisor thread).
    # ------------------------------------------------------------------
    def inflight_age(self) -> float | None:
        """Seconds the current in-flight batch has been executing.

        ``None`` when nothing is in flight — the watchdog's signal
        that this batcher is healthy (or merely idle).
        """
        with self._cv:
            if self._inflight_since is None:
                return None
            return time.monotonic() - self._inflight_since

    @property
    def restarts(self) -> int:
        """How many times the consumer thread has been abandoned."""
        with self._cv:
            return self._restarts

    def abandon_inflight(self, error: BaseException) -> int:
        """Fail the in-flight batch and restart the consumer thread.

        Delivers ``error`` to every in-flight request (queued requests
        are untouched), bumps the generation so the stale thread
        discards whatever it eventually produces, and spawns a fresh
        consumer. Returns the number of requests failed (0 when
        nothing was in flight — a race with normal completion, which
        is benign).
        """
        with self._cv:
            batch = self._inflight
            if not batch:
                return 0
            self._inflight = []
            self._inflight_since = None
            self._generation += 1
            self._restarts += 1
            if not self._closed:
                self._thread = self._spawn(self._generation)
            self._cv.notify_all()
        for pending in batch:
            pending.error = error
            pending.event.set()
        METRICS.incr("serve.batcher_restarts")
        return len(batch)

    # ------------------------------------------------------------------
    # Consumer side (the single *current-generation* batcher thread).
    # ------------------------------------------------------------------
    def _take_batch(self, generation: int) -> list[_Pending] | None:
        """Block until a request is queued, then take up to
        ``max_batch``; None on drained close or when this thread's
        generation has been superseded."""
        with self._cv:
            while not self._queue:
                if self._closed or self._generation != generation:
                    return None
                self._cv.wait()
            if self._generation != generation:
                return None
            if len(self._queue) >= self.max_batch:
                METRICS.incr("serve.flush_full")
            else:
                METRICS.incr("serve.flush_wait")
            if self.ledger is not None and len(self._queue) > 1:
                pressures = {
                    tenant: self.ledger.pressure(tenant)
                    for tenant in {p.tenant for p in self._queue}
                }
                self._queue.sort(
                    key=lambda p: (-pressures[p.tenant], p.seq))
            batch = self._queue[:self.max_batch]
            del self._queue[:self.max_batch]
            self._inflight = batch
            self._inflight_since = time.monotonic()
            return batch

    def _finish_batch(self, generation: int) -> bool:
        """Clear in-flight state; False when this thread is stale."""
        with self._cv:
            if self._generation != generation:
                METRICS.incr("serve.stale_batches_discarded")
                return False
            self._inflight = []
            self._inflight_since = None
            return True

    def _loop(self, generation: int) -> None:
        while True:
            batch = self._take_batch(generation)
            if batch is None:
                return
            METRICS.observe("serve.batch_size", len(batch))
            METRICS.incr("serve.batches")
            plan = faults.active_plan()
            if plan is not None and faults.should_inject(
                    "batch_hang", f"serve.batch/{self.name}"):
                # The executor "hangs": if hang_s exceeds the batch
                # timeout, the supervisor abandons this generation
                # while we sleep.
                time.sleep(plan.hang_s)
                with self._cv:
                    if self._generation != generation:
                        METRICS.incr("serve.stale_batches_discarded")
                        return
            start = time.perf_counter()
            try:
                results = self._execute([p.item for p in batch])
                if len(results) != len(batch):
                    raise ServeClosedError(
                        f"executor returned {len(results)} results for "
                        f"{len(batch)} items"
                    )
            except BaseException as exc:  # delivered, not swallowed
                if not self._finish_batch(generation):
                    return
                for pending in batch:
                    pending.error = exc
                    pending.event.set()
                continue
            if not self._finish_batch(generation):
                return
            METRICS.add_time("serve.execute",
                             time.perf_counter() - start)
            done = time.monotonic()
            self.drain.record(len(batch), now=done)
            for pending, result in zip(batch, results):
                pending.response = result
                latency = done - pending.enqueued
                METRICS.observe("serve.queue_latency_s", latency)
                if self.ledger is not None:
                    if isinstance(pending.item, dict):
                        budget_ms = pending.item.get("budget_ms")
                    else:  # typed request dataclasses (serve.api)
                        budget_ms = getattr(pending.item, "budget_ms",
                                            None)
                    self.ledger.record(pending.tenant, latency,
                                       budget_ms)
                pending.event.set()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting work, drain the queue, join the thread."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            self._cv.notify_all()
        self._thread.join(timeout=30.0)
