"""Admission control and per-tenant SLA budgets for the daemon.

Three pieces of back-pressure policy, all deliberately tiny:

* :class:`TenantLedger` — one :class:`~repro.core.sla.RollingSLA`
  window per tenant, fed with (service latency, latency budget) pairs
  as executions complete — the same accounting the paper's
  system-level SLA check uses, pointed at request latency instead of
  windowed IPC, reported per tenant by the ``stats`` op.
* :class:`DrainTracker` — a sliding window of recent completions,
  from which :func:`retry_after_ms` turns the in-flight depth at shed
  time into an actionable hint: roughly how long until the work ahead
  of a retry has drained. Clients honor it instead of hammering a
  saturated daemon with blind retries.
* The in-flight bound itself lives in
  :class:`~repro.serve.supervisor.InflightTable`; this module supplies
  the ``busy`` response shape so server and client agree on it.
"""

from __future__ import annotations

import collections
import threading
import time

from repro.core.sla import RollingSLA

#: Default per-tenant latency budget when a request names none.
DEFAULT_BUDGET_MS = 50.0

#: Observations per tenant SLA window. Small enough to adapt within a
#: burst, large enough that one slow request cannot flip priorities.
TENANT_WINDOW = 64

#: Fraction of a tenant's window allowed to violate its budget before
#: pressure reaches 1.0 (mirrors the paper's 99% window guarantee).
TENANT_GUARANTEE = 0.99


#: Bounds on the ``retry_after_ms`` hint. The floor keeps clients from
#: spinning on a sub-millisecond hint; the ceiling keeps one deep
#: backlog from parking every client for a minute.
RETRY_AFTER_MIN_MS = 1.0
RETRY_AFTER_MAX_MS = 10_000.0

#: Per-request fallback (ms) when no drain rate is known yet —
#: a fresh daemon has served nothing, so assume a modest service time.
RETRY_AFTER_FALLBACK_PER_REQ_MS = 25.0


class DrainTracker:
    """Sliding-window completion counter: recent drain rate in req/s.

    Each finished execution is recorded; :meth:`rate_rps` divides
    completions inside the window by the observed span. Thread-safe —
    connection threads record and read concurrently.
    """

    def __init__(self, window_s: float = 5.0) -> None:
        self.window_s = float(window_s)
        self._lock = threading.Lock()
        self._events: collections.deque[tuple[float, int]] = \
            collections.deque()

    def record(self, n: int, now: float | None = None) -> None:
        """Account ``n`` completed requests at time ``now``."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._events.append((now, int(n)))
            self._trim(now)

    def _trim(self, now: float) -> None:
        horizon = now - self.window_s
        while self._events and self._events[0][0] < horizon:
            self._events.popleft()

    def rate_rps(self, now: float | None = None) -> float:
        """Completions per second over the recent window (0.0 if idle)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            self._trim(now)
            if not self._events:
                return 0.0
            completed = sum(n for _, n in self._events)
            # Span from the oldest retained event; floored so a single
            # burst does not read as an absurd rate.
            span = max(now - self._events[0][0], 0.050)
            return completed / span


def retry_after_ms(queue_depth: int, drain_rate_rps: float) -> float:
    """How long (ms) until a retry likely clears the current backlog."""
    ahead = max(queue_depth, 1)
    if drain_rate_rps > 0.0:
        hint = ahead / drain_rate_rps * 1e3
    else:
        hint = ahead * RETRY_AFTER_FALLBACK_PER_REQ_MS
    return round(min(max(hint, RETRY_AFTER_MIN_MS), RETRY_AFTER_MAX_MS),
                 3)


def busy_response(request_id: object, queue_depth: int,
                  queue_bound: int,
                  retry_after: float | None = None) -> dict:
    """The typed shed response admission control returns under load.

    ``retry_after`` is the drain-rate-derived hint in milliseconds
    (computed via :func:`retry_after_ms`); ``None`` falls back to the
    no-rate estimate from the queue depth alone.
    """
    if retry_after is None:
        retry_after = retry_after_ms(queue_depth, 0.0)
    return {
        "id": request_id,
        "ok": False,
        "error": "busy",
        "queue_depth": queue_depth,
        "queue_bound": queue_bound,
        "retry": True,
        "retry_after_ms": retry_after,
    }


class TenantLedger:
    """Per-tenant rolling latency-SLA accounting.

    Thread-safe: connection threads record completions concurrently
    with ``stats`` snapshots.
    """

    def __init__(self, default_budget_ms: float = DEFAULT_BUDGET_MS,
                 window: int = TENANT_WINDOW,
                 guarantee: float = TENANT_GUARANTEE) -> None:
        self.default_budget_ms = default_budget_ms
        self.window = window
        self.guarantee = guarantee
        self._lock = threading.Lock()
        self._tenants: dict[str, RollingSLA] = {}

    def _window_for(self, tenant: str) -> RollingSLA:
        sla = self._tenants.get(tenant)
        if sla is None:
            sla = RollingSLA(self.window, performance_floor=1.0,
                             guarantee=self.guarantee)
            self._tenants[tenant] = sla
        return sla

    def record(self, tenant: str, latency_s: float,
               budget_ms: float | None = None) -> None:
        """Account one served request against the tenant's budget."""
        budget_s = (budget_ms if budget_ms is not None
                    else self.default_budget_ms) / 1e3
        with self._lock:
            self._window_for(tenant).observe(latency_s, budget_s)

    def pressure(self, tenant: str) -> float:
        """Current SLA pressure of a tenant (0.0 when unseen)."""
        with self._lock:
            sla = self._tenants.get(tenant)
            return sla.pressure() if sla is not None else 0.0

    def snapshot(self) -> dict[str, dict]:
        """Per-tenant accounting for the ``stats`` op."""
        with self._lock:
            out = {}
            for tenant, sla in self._tenants.items():
                acct = sla.accounting()
                out[tenant] = {
                    "observations": acct.n_windows,
                    "violations": acct.n_violations,
                    "pressure": round(sla.pressure(), 4),
                }
            return out
