"""Serve-side failure containment: admission, breaker, watchdog,
re-exec loop.

Each ``adapt``/``decide`` runs on the connection thread that decoded
it. Four independent layers bound what a misbehaving execution can
cost (the full ladder is drawn in DESIGN.md):

* :class:`InflightTable` — per-op admission (a typed
  :class:`~repro.errors.BusyError` with a drain-rate
  ``retry_after_ms`` past ``REPRO_SERVE_QUEUE_BOUND`` in flight), the
  op's executor slot and its in-flight registry.
* :class:`ServeCircuitBreaker` — per-op degradation ladder. Repeated
  executor failures walk an op down ``direct → serial → shed``; after
  a cooldown the breaker goes half-open and routes one probe at the
  next level down, stepping back toward direct only on probe success.
  A wedged executor therefore costs queueing (serial: one request of
  the op in flight, the rest shed) and then availability for *that op
  only* — never the whole daemon.
* :class:`ExecutionWatchdog` — abandons requests in flight past
  ``REPRO_SERVE_BATCH_TIMEOUT``. Python threads cannot be killed, so
  the hung thread is left to finish and drop its result, while the
  server's ``on_abandon`` hook answers the client and hands the socket
  to a replacement reader.
* :func:`run_supervised` — process-level supervision for
  ``repro serve --supervise``: the parent re-runs the daemon command
  when it dies uncleanly, within a bounded restart budget
  (``REPRO_SERVE_RESTARTS``). Paired with the warm-state checkpoint
  (:mod:`repro.serve.checkpoint`), a crashed daemon is back at ready
  in a fraction of a cold start.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import threading
import time
from collections.abc import Callable

from repro.config import KNOB
from repro.errors import BatchTimeoutError, BusyError, ServeClosedError
from repro.obs.metrics import METRICS
from repro.serve.admission import DrainTracker, retry_after_ms

#: Execution level per breaker state (index == level).
BREAKER_MODES = ("direct", "serial", "shed")


class ServeCircuitBreaker:
    """Per-op breaker over the ``direct → serial → shed`` ladder.

    ``level`` is the current degradation (0 = closed/direct). Each
    run of ``threshold`` consecutive failures escalates one level and
    starts a ``cooldown_s`` clock. Once the cooldown elapses the
    breaker is *half-open*: :meth:`route` sends the next request to
    the level below as a probe — a probe success steps down (repeated
    successes walk all the way back to direct), a probe failure
    re-opens the current level and restarts the cooldown.

    Load sheds (:class:`~repro.errors.BusyError`) are **not**
    failures: a full in-flight table is back-pressure working, not
    the executor misbehaving. Thread-safe; ``clock`` is injectable for tests.
    """

    def __init__(self, threshold: int, cooldown_s: float,
                 name: str = "op", clock=time.monotonic) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_s <= 0:
            raise ValueError(
                f"cooldown_s must be > 0, got {cooldown_s}"
            )
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._level = 0
        self._failures = 0
        self._trips = 0
        self._opened_at = 0.0
        self._probing = False

    # ------------------------------------------------------------------
    @property
    def level(self) -> int:
        with self._lock:
            return self._level

    def state(self) -> str:
        """Classic breaker state: closed / open / half_open."""
        with self._lock:
            if self._level == 0:
                return "closed"
            if self._clock() - self._opened_at >= self.cooldown_s:
                return "half_open"
            return "open"

    def route(self) -> int:
        """Effective execution level for the next request.

        0 = direct, 1 = serial (one request of the op in flight, the
        rest shed), 2 = shed. In half-open
        state this returns one level below the tripped level and arms
        the probe: the outcome of that request decides whether the
        breaker steps down or re-opens.
        """
        with self._lock:
            if self._level == 0:
                return 0
            if self._clock() - self._opened_at >= self.cooldown_s:
                self._probing = True
                return self._level - 1
            return self._level

    def record_success(self) -> None:
        """A routed request completed; probes step the ladder down."""
        with self._lock:
            self._failures = 0
            if self._probing and self._level > 0:
                self._probing = False
                self._level -= 1
                if self._level > 0:
                    # Still degraded: a fresh cooldown gates the next
                    # probe toward fully closed.
                    self._opened_at = self._clock()

    def record_failure(self) -> None:
        """A routed request failed (executor fault, watchdog timeout)."""
        with self._lock:
            if self._probing:
                # The probe failed: stay at the current level and
                # restart the cooldown before probing again.
                self._probing = False
                self._opened_at = self._clock()
                return
            self._failures += 1
            if self._failures >= self.threshold:
                self._failures = 0
                if self._level < len(BREAKER_MODES) - 1:
                    self._level += 1
                self._trips += 1
                self._opened_at = self._clock()
                METRICS.incr("serve.breaker_trips")

    def snapshot(self) -> dict:
        """Health-op projection of the breaker."""
        state = self.state()
        with self._lock:
            return {
                "level": self._level,
                "mode": BREAKER_MODES[self._level],
                "state": state,
                "failures": self._failures,
                "trips": self._trips,
            }


@dataclasses.dataclass(eq=False, slots=True)
class Execution:
    """One admitted ``adapt``/``decide``, tracked until it finishes or
    the watchdog abandons it. ``conn`` is the server's connection
    record (``None`` off the socket), opaque here."""

    op: str
    request_id: object = None
    key: str | None = None
    conn: object = None
    started: float = 0.0
    abandoned: bool = False
    holds_slot: bool = False
    error: BatchTimeoutError | None = None


class InflightTable:
    """Per-op admission bound, executor slot and in-flight registry.

    One execution of an op runs at a time: under CPython's GIL,
    concurrent Python-bound executions only contend (measured,
    concurrent decides cost each other more CPU than they overlap).
    Each abandon/finish race is decided under one lock, so exactly one
    of the hung thread and the watchdog answers a request.
    """

    def __init__(self, bound: int, name: str = "op") -> None:
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        self.bound = bound
        self.name = name
        self.drain = DrainTracker()
        self.abandoned = 0
        self._lock = threading.Lock()
        # A plain Lock: the watchdog releases it for a hung holder.
        self._slot = threading.Lock()
        self._live: set[Execution] = set()
        self._closed = False

    def admit(self, execution: Execution,
              bound: int | None = None) -> None:
        """Register ``execution`` as in flight, or raise
        :class:`BusyError` at ``bound`` (default: the table's) and
        :class:`ServeClosedError` once the table is closed."""
        bound = self.bound if bound is None else bound
        with self._lock:
            if self._closed:
                raise ServeClosedError(f"op {self.name!r} is closed")
            depth = len(self._live)
            if depth >= bound:
                METRICS.incr("serve.shed")
                raise BusyError(
                    f"op {self.name!r} at its in-flight bound "
                    f"({depth}/{bound})",
                    queue_depth=depth,
                    retry_after_ms=retry_after_ms(
                        depth, self.drain.rate_rps()),
                )
            execution.started = time.monotonic()
            self._live.add(execution)

    def enter(self, execution: Execution) -> bool:
        """Wait for the executor slot; False when the watchdog
        abandoned ``execution`` while it waited."""
        self._slot.acquire()
        with self._lock:
            if not execution.abandoned:
                execution.holds_slot = True
                return True
        self._slot.release()
        return False

    def _free_slot(self, execution: Execution) -> None:
        if execution.holds_slot:
            execution.holds_slot = False
            self._slot.release()

    def finish(self, execution: Execution) -> bool:
        """Free the slot and retire ``execution``; False when the
        watchdog abandoned it."""
        with self._lock:
            self._free_slot(execution)
            if execution.abandoned:
                return False
            self._live.discard(execution)
        self.drain.record(1)
        return True

    def overdue(self, timeout_s: float) -> list[Execution]:
        """Abandon and return every request in flight (waiting or
        running) past ``timeout_s``, freeing a hung holder's slot."""
        now = time.monotonic()
        with self._lock:
            late = [e for e in self._live if now - e.started > timeout_s]
            for execution in late:
                execution.abandoned = True
                self._live.discard(execution)
                self._free_slot(execution)
            self.abandoned += len(late)
        return late

    def depth(self) -> int:
        """Requests in flight now (waiting for the slot or running)."""
        with self._lock:
            return len(self._live)

    def close(self) -> None:
        """Refuse new admissions (requests in flight finish)."""
        with self._lock:
            self._closed = True


class ExecutionWatchdog:
    """Watchdog thread over the per-op in-flight tables.

    Each sweep abandons requests in flight longer than ``timeout_s``
    (:meth:`InflightTable.overdue`), counts the trip and calls
    ``on_abandon(execution, error)`` — the server's hook that records
    the breaker failure, fails the request's dedup entry, sends the
    typed ``timeout`` response and starts a replacement reader.
    """

    def __init__(self, tables: dict[str, InflightTable],
                 timeout_s: float,
                 on_abandon: Callable[[Execution, BatchTimeoutError],
                                      None] | None = None,
                 poll_s: float | None = None) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.tables = tables
        self.timeout_s = timeout_s
        self.on_abandon = on_abandon
        # Poll fast enough to catch a hang well before ~2x timeout,
        # slow enough to stay invisible in profiles.
        self.poll_s = (poll_s if poll_s is not None
                       else min(0.25, max(0.01, timeout_s / 5.0)))
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "ExecutionWatchdog":
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-watchdog", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    @property
    def trips(self) -> int:
        """Requests abandoned so far, over every op."""
        return sum(table.abandoned for table in self.tables.values())

    def check_once(self) -> int:
        """One sweep; returns requests abandoned (tests call this
        directly for a deterministic single check)."""
        abandoned = 0
        for name, table in self.tables.items():
            for execution in table.overdue(self.timeout_s):
                age = time.monotonic() - execution.started
                execution.error = BatchTimeoutError(
                    f"{name!r} request exceeded "
                    f"{KNOB['serve_batch_timeout_s'].env} "
                    f"({self.timeout_s}s); in flight {age:.3f}s — "
                    f"abandoned, its late result will be discarded"
                )
                abandoned += 1
                METRICS.incr("serve.watchdog_trips")
                if self.on_abandon is not None:
                    self.on_abandon(execution, execution.error)
        return abandoned

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_s):
            self.check_once()

    def snapshot(self) -> dict:
        """Health-op projection of the watchdog."""
        return {
            "timeout_s": self.timeout_s,
            "poll_s": self.poll_s,
            "trips": self.trips,
            "abandoned": {name: t.abandoned
                          for name, t in self.tables.items()},
        }


def run_supervised(cmd: list[str], restarts: int,
                   announce=None) -> int:
    """Run a daemon command, re-execing it on unclean death.

    The parent stays tiny (no corpus, no models — just this loop) and
    relaunches ``cmd`` whenever it exits nonzero, up to ``restarts``
    times. A clean exit (0) ends supervision; exhausting the budget
    returns the last exit code. With a checkpoint path in the child's
    environment, each relaunch warm-starts from the checkpoint instead
    of rebuilding corpus and models.

    ``announce`` (a ``str -> None`` callable, default: stderr print)
    reports each restart so operators can see the crash loop.
    """
    if announce is None:
        def announce(msg: str) -> None:
            print(msg, file=sys.stderr, flush=True)
    attempts = 0
    while True:
        code = subprocess.call(cmd)
        if code == 0:
            return 0
        if attempts >= restarts:
            announce(
                f"[repro serve] daemon exited with {code}; restart "
                f"budget ({restarts}) exhausted — giving up"
            )
            return code
        attempts += 1
        announce(
            f"[repro serve] daemon exited with {code}; restarting "
            f"({attempts}/{restarts})"
        )


__all__ = ["BREAKER_MODES", "Execution", "ExecutionWatchdog",
           "InflightTable", "ServeCircuitBreaker", "run_supervised"]
