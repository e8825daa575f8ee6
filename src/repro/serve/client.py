"""Blocking client for the adaptation-serving daemon.

One :class:`ServeClient` wraps one connection; requests are
synchronous (send one frame, read one frame). Concurrency comes from
many clients, one per thread, as in ``benchmarks/bench_serve.py``;
the daemon runs each connection's requests on its own thread.

Resilience (all off by default; a zero-``retries`` client behaves
exactly like the original single-attempt client):

* **Retries** — up to ``retries`` extra attempts with capped
  exponential backoff and deterministic (seeded) jitter. A ``busy``
  shed honors the server's ``retry_after_ms`` hint instead of the
  blind backoff schedule.
* **Reconnect + idempotency** — transport failures (dropped
  connection, corrupted response frame) reconnect and resend under a
  client-unique idempotency ``key``; the daemon deduplicates, so a
  request whose original execution survived its dropped response
  returns the *original* payload rather than running twice. Without a
  key (``retries=0`` and no hedging) transport errors propagate, as
  before.
* **Hedging** — with ``hedge_s`` set, an attempt whose response has
  not arrived within the hedge delay opens a second connection and
  resends the same keyed request; whichever execution wins, dedup
  guarantees one payload.
* **fd hygiene** — the socket is closed on *every* error path and the
  client reconnects lazily, so a long-lived caller cycling through
  errors never leaks descriptors. Context-manager use
  (``with ServeClient(...) as c:``) closes on exit.
"""

from __future__ import annotations

import itertools
import os
import random
import socket
import time

import numpy as np

from repro.errors import (BatchTimeoutError, BusyError, ProtocolError,
                          RetriesExhaustedError, ServeError,
                          StaleGenerationError)
from repro.serve.api import (AdaptRequest, DecideRequest, HealthStatus)
from repro.serve.protocol import recv_frame, send_frame

#: First-retry backoff and its cap (seconds); attempt ``k`` waits
#: ``min(cap, base * 2**k)`` scaled by jitter in [0.5, 1.0].
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0

#: Process-wide counter making idempotency keys unique across clients.
_CLIENT_IDS = itertools.count()


class ServeClient:
    """One connection to an :class:`~repro.serve.server.AdaptationServer`.

    ``address`` mirrors the server's: a filesystem path (AF_UNIX) or a
    ``(host, port)`` tuple (AF_INET). ``retries``/``hedge_s`` opt into
    the resilience behaviors documented in the module docstring;
    ``seed`` fixes the backoff jitter stream (default: derived from
    the client's identity, still deterministic per process).

    Generation constraints (continual adaptation):
    ``min_generation`` stamps every inference request with "serve me
    only from model generation >= N" — use it after learning of a
    promotion to guarantee the retrained model answers.
    ``pin_generation`` demands *exactly* generation N — bit-level
    reproducibility across a promotion window. A daemon that cannot
    satisfy the constraint answers ``stale_generation``, surfaced as
    :class:`~repro.errors.StaleGenerationError`.
    """

    def __init__(self, address: str | tuple[str, int],
                 tenant: str = "default",
                 timeout_s: float | None = 30.0,
                 retries: int = 0,
                 hedge_s: float | None = None,
                 seed: int | None = None,
                 min_generation: int | None = None,
                 pin_generation: int | None = None) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if hedge_s is not None and hedge_s <= 0:
            raise ValueError(f"hedge_s must be > 0, got {hedge_s}")
        for name, value in (("min_generation", min_generation),
                            ("pin_generation", pin_generation)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        self.address = address
        self.tenant = tenant
        self.min_generation = min_generation
        self.pin_generation = pin_generation
        self.timeout_s = timeout_s
        self.retries = retries
        self.hedge_s = hedge_s
        self._client_id = next(_CLIENT_IDS)
        self._rng = random.Random(
            seed if seed is not None
            else (os.getpid() << 16) ^ self._client_id)
        self._sock: socket.socket | None = None
        self._next_id = 0
        self._connect()

    # ------------------------------------------------------------------
    # Connection lifecycle.
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if isinstance(self.address, tuple):
            sock = socket.create_connection(tuple(self.address),
                                            timeout=self.timeout_s)
        else:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout_s)
            try:
                sock.connect(self.address)
            except BaseException:
                sock.close()
                raise
        self._sock = sock
        return sock

    def _ensure_sock(self) -> socket.socket:
        if self._sock is None:
            return self._connect()
        return self._sock

    def _drop_sock(self) -> None:
        """Close the connection (error path); the next attempt
        reconnects. Closing here is what keeps error loops from
        leaking file descriptors."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        self._drop_sock()

    # ------------------------------------------------------------------
    # Request path.
    # ------------------------------------------------------------------
    def request(self, payload: dict) -> dict:
        """Send one request and return the raw response dict.

        With ``retries == 0`` and no hedging: one attempt, and a
        ``busy`` shed raises :class:`BusyError` (carrying the server's
        ``retry_after_ms`` hint), any other error response raises
        :class:`ServeError` — the caller decides what to do.

        With resilience enabled, transport errors and ``busy`` sheds
        are retried under an idempotency key until the budget runs
        out, then :class:`RetriesExhaustedError` (carrying the final
        attempt's error) surfaces.
        """
        resilient = self.retries > 0 or self.hedge_s is not None
        key = None
        if resilient and "key" not in payload:
            self._next_id += 1
            key = f"c{os.getpid()}-{self._client_id}-{self._next_id}"
        elif "key" in payload:
            key = payload["key"]
        last: BaseException | None = None
        for attempt in range(self.retries + 1):
            try:
                return self._attempt(payload, key)
            except BusyError as exc:
                last = exc
                if attempt >= self.retries:
                    if self.retries == 0:
                        raise
                    break
                self._sleep(attempt, retry_after_ms=exc.retry_after_ms)
            except BatchTimeoutError as exc:
                # The watchdog abandoned the execution and discards its
                # result — retrying is always safe.
                last = exc
                if attempt >= self.retries:
                    if self.retries == 0:
                        raise
                    break
                self._sleep(attempt)
            except (ProtocolError, OSError) as exc:
                last = exc
                self._drop_sock()
                # Without a dedup key a resend could execute twice —
                # never retry transport errors un-keyed.
                if key is None or attempt >= self.retries:
                    if self.retries == 0 or key is None:
                        raise
                    break
                self._sleep(attempt)
        raise RetriesExhaustedError(
            f"request failed after {self.retries + 1} attempt(s): "
            f"{type(last).__name__}: {last}",
            last_error=last,
        )

    def _attempt(self, payload: dict, key: str | None) -> dict:
        self._next_id += 1
        wire = {"id": self._next_id, "tenant": self.tenant, **payload}
        if key is not None:
            wire["key"] = key
        sock = self._ensure_sock()
        try:
            send_frame(sock, wire)
            if self.hedge_s is not None and key is not None:
                response = self._recv_hedged(sock, wire)
            else:
                response = recv_frame(sock)
        except (ProtocolError, OSError):
            self._drop_sock()
            raise
        if response is None:
            self._drop_sock()
            raise ProtocolError("server closed the connection")
        return self._check(response)

    def _recv_hedged(self, sock: socket.socket, wire: dict) -> dict | None:
        """Wait ``hedge_s`` on the primary; on silence, race a second
        keyed attempt on a fresh connection (server dedup makes the
        duplicate safe — both connections observe one execution)."""
        sock.settimeout(self.hedge_s)
        try:
            return recv_frame(sock)
        except TimeoutError:
            # The primary may be stalled mid-frame; its connection is
            # now desynchronized and must die with the hedge's win.
            self._drop_sock()
            hedged = self._connect()
            send_frame(hedged, wire)
            return recv_frame(hedged)
        finally:
            if self._sock is sock:
                sock.settimeout(self.timeout_s)

    def _check(self, response: dict) -> dict:
        if response.get("ok"):
            return response
        error = response.get("error")
        if error == "busy":
            raise BusyError(
                f"server busy (queue "
                f"{response.get('queue_depth')}/"
                f"{response.get('queue_bound')})",
                queue_depth=int(response.get("queue_depth", 0)),
                retry_after_ms=response.get("retry_after_ms"),
            )
        if error == "timeout":
            raise BatchTimeoutError(str(response.get("detail", error)))
        if error == "stale_generation":
            raise StaleGenerationError(
                str(response.get("detail", error)),
                requested=response.get("requested"),
                current=response.get("current"),
            )
        raise ServeError(
            f"server error {error!r}: {response.get('detail', '')}"
        )

    def _sleep(self, attempt: int,
               retry_after_ms: float | None = None) -> None:
        """Backoff before retry ``attempt + 1``.

        Busy sheds wait the server's computed hint; everything else
        follows capped exponential backoff. Both are scaled by
        deterministic jitter in [0.5, 1.0] so a fleet of clients
        created with distinct seeds desynchronizes instead of
        retrying in lockstep."""
        if retry_after_ms is not None:
            base = retry_after_ms / 1e3
        else:
            base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** attempt))
        time.sleep(base * (0.5 + 0.5 * self._rng.random()))

    # ------------------------------------------------------------------
    # Typed ops.
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request({"op": "ping"}).get("ok"))

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def health(self) -> dict:
        """Queue depths, breaker states, watchdog and checkpoint age."""
        return self.request({"op": "health"})["health"]

    def health_status(self) -> HealthStatus:
        """Typed :class:`~repro.serve.api.HealthStatus` view of
        :meth:`health` — carries ``model_generation`` and the
        continual-adaptation surface when the daemon runs online."""
        return HealthStatus.from_wire(self.health())

    def adapt(self, trace_index: int,
              budget_ms: float | None = None) -> dict:
        """Run the closed adaptation loop on one corpus trace.

        The response payload carries ``model_generation`` — the
        registry generation whose model produced it.
        """
        request = AdaptRequest(
            trace_index=int(trace_index), tenant=self.tenant,
            budget_ms=None if budget_ms is None else float(budget_ms),
            min_generation=self.min_generation,
            pin_generation=self.pin_generation)
        return self.request(request.to_wire())

    def decide(self, mode: str, window,
               budget_ms: float | None = None) -> dict:
        """Gating decisions for one telemetry window (an array or a
        list of counter rows) in ``mode``; ``probs`` comes back as a
        float64 array."""
        request = DecideRequest(
            mode=mode, window=np.asarray(window, dtype=np.float64),
            tenant=self.tenant,
            budget_ms=None if budget_ms is None else float(budget_ms),
            min_generation=self.min_generation,
            pin_generation=self.pin_generation)
        return self.request(request.to_wire())

    def shutdown(self) -> dict:
        """Ask the daemon to shut down cleanly."""
        return self.request({"op": "shutdown"})


def wait_until_ready(address: str | tuple[str, int],
                     timeout_s: float = 60.0,
                     poll_s: float = 0.05) -> None:
    """Block until a daemon at ``address`` answers a ping."""
    deadline = time.monotonic() + timeout_s
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with ServeClient(address, timeout_s=2.0) as client:
                if client.ping():
                    return
        except (OSError, ProtocolError, ServeError) as exc:
            last = exc
        time.sleep(poll_s)
    raise ServeError(
        f"no daemon became ready at {address!r} within {timeout_s}s: "
        f"{last}"
    )
