"""Serve-side failure containment: breaker, watchdog, re-exec loop.

Three independent layers, each bounding a different blast radius (the
full ladder is drawn in DESIGN.md):

* :class:`ServeCircuitBreaker` — per-op degradation ladder. Repeated
  executor failures walk an op down ``batched → serial → shed``; after
  a cooldown the breaker goes half-open and routes one probe at the
  next level down, stepping back toward batched only on probe success.
  A wedged executor therefore costs throughput (serial) and then
  availability for *that op only* (shed with a ``retry_after_ms``
  hint) — never the whole daemon.
* :class:`BatcherSupervisor` — a watchdog thread that polls every
  batcher's in-flight age and abandons batches older than
  ``REPRO_SERVE_BATCH_TIMEOUT`` with a typed
  :class:`~repro.errors.BatchTimeoutError`. Only the in-flight
  requests fail; queued requests drain through the replacement
  consumer thread the batcher spawns.
* :func:`run_supervised` — process-level supervision for
  ``repro serve --supervise``: the parent re-runs the daemon command
  when it dies uncleanly, within a bounded restart budget
  (``REPRO_SERVE_RESTARTS``). Paired with the warm-state checkpoint
  (:mod:`repro.serve.checkpoint`), a crashed daemon is back at ready
  in a fraction of a cold start.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

from repro.config import KNOB
from repro.errors import BatchTimeoutError
from repro.obs.metrics import METRICS
from repro.serve.batcher import MicroBatcher

#: Execution level per breaker state (index == level).
BREAKER_MODES = ("batched", "serial", "shed")


class ServeCircuitBreaker:
    """Per-op breaker over the ``batched → serial → shed`` ladder.

    ``level`` is the current degradation (0 = closed/batched). Each
    run of ``threshold`` consecutive failures escalates one level and
    starts a ``cooldown_s`` clock. Once the cooldown elapses the
    breaker is *half-open*: :meth:`route` sends the next request to
    the level below as a probe — a probe success steps down (repeated
    successes walk all the way back to batched), a probe failure
    re-opens the current level and restarts the cooldown.

    Load sheds (:class:`~repro.errors.BusyError`) are **not**
    failures: a full queue is back-pressure working, not the executor
    misbehaving. Thread-safe; ``clock`` is injectable for tests.
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

        0 = batched, 1 = serial per-request, 2 = shed. In half-open
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
        """A routed request failed (executor fault, batch timeout)."""
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


class BatcherSupervisor:
    """Watchdog thread over a set of micro-batchers.

    Polls each batcher's :meth:`~MicroBatcher.inflight_age` and, when
    a batch has been executing longer than ``timeout_s``, abandons it:
    the in-flight requests fail with a typed
    :class:`~repro.errors.BatchTimeoutError`, a replacement consumer
    thread takes over the untouched queue, and the op's breaker (when
    attached) records the failure so repeated hangs degrade the op.
    """

    def __init__(self, batchers: dict[str, MicroBatcher],
                 timeout_s: float,
                 breakers: dict[str, ServeCircuitBreaker] | None = None,
                 poll_s: float | None = None) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.batchers = batchers
        self.timeout_s = timeout_s
        self.breakers = breakers or {}
        # Poll fast enough to catch a hang well before ~2x timeout,
        # slow enough to stay invisible in profiles.
        self.poll_s = (poll_s if poll_s is not None
                       else min(0.25, max(0.01, timeout_s / 5.0)))
        self.trips = 0
        self.last_check: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "BatcherSupervisor":
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve-supervisor",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def check_once(self) -> int:
        """One watchdog sweep; returns requests failed (tests call
        this directly for a deterministic single check)."""
        failed = 0
        for name, batcher in self.batchers.items():
            age = batcher.inflight_age()
            if age is None or age <= self.timeout_s:
                continue
            error = BatchTimeoutError(
                f"batch on {name!r} exceeded "
                f"{KNOB['serve_batch_timeout_s'].env} ({self.timeout_s}s); "
                f"in flight {age:.3f}s — in-flight requests failed, "
                f"queued requests re-served by the restarted batcher"
            )
            n = batcher.abandon_inflight(error)
            if n:
                failed += n
                self.trips += 1
                METRICS.incr("serve.watchdog_trips")
                breaker = self.breakers.get(name)
                if breaker is not None:
                    breaker.record_failure()
        self.last_check = time.monotonic()
        return failed

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_s):
            self.check_once()

    def snapshot(self) -> dict:
        """Health-op projection of the watchdog."""
        return {
            "timeout_s": self.timeout_s,
            "poll_s": self.poll_s,
            "trips": self.trips,
            "batcher_restarts": {name: b.restarts
                                 for name, b in self.batchers.items()},
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


__all__ = ["BREAKER_MODES", "BatcherSupervisor", "ServeCircuitBreaker",
           "run_supervised"]
