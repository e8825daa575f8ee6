"""Deterministic, seedable fault injection for the execution engine.

The paper's guardrail philosophy — bound the damage when the predictor
misfires — applies to the execution substrate itself: the engine must
*detect* worker crashes, hung tasks, corrupted cache entries and stale
arena segments, and either recover to bit-identical results or raise a
typed :class:`~repro.errors.ExecFaultError`. This module provides the
chaos half of that contract: a :class:`FaultPlan` describes, per fault
kind, the probability that a given fault *site* fires, and the engine
consults :func:`should_inject` at each site. Decisions are pure
functions of ``(plan seed, kind, site key, occurrence)`` — no global
RNG is consumed — so a plan replays identically and tests can target
exact sites.

Fault kinds (rates in ``[0, 1]``):

``crash``
    A pool worker dies mid-task. Process workers genuinely call
    ``os._exit`` (surfacing as ``BrokenProcessPool`` in the parent);
    thread workers raise :class:`~repro.errors.WorkerCrashError`.
    Never fires on the serial path — there is no worker to kill.
``hang``
    A pooled task sleeps ``hang_s`` seconds before running, tripping
    the per-task timeout when one is configured.
``payload``
    Task submission is made to fail as if the payload could not be
    pickled, exercising the serial fallback.
``corrupt_cache``
    A byte of the on-disk SimCache entry is flipped *before* it is
    read, exercising real checksum detection and quarantine.
``corrupt_arena``
    An arena attach fails integrity validation, exercising the
    pickled-dispatch fallback at every arena call site.
``corrupt_result``
    A shared-memory *result* segment fails validation when the parent
    decodes it, exercising the quarantine → pickled-return retry in
    :meth:`~repro.exec.parallel.ParallelMap._pool_dispatch`.

Serve-site fault kinds (injected at named sites in
:mod:`repro.serve.protocol` and :mod:`repro.serve.server`; see the
serve failure ladder in DESIGN.md):

``conn_drop``
    The daemon abruptly closes a connection instead of writing the
    response frame, exercising client reconnect-on-drop plus
    server-side idempotent-key deduplication.
``slow_peer``
    The daemon stalls mid-frame: a partial response frame is written,
    then ``hang_s`` seconds pass before the rest, exercising partial-
    frame reassembly and client hedging.
``corrupt_frame``
    The first body byte of a response frame is overwritten with 0xFF
    before sending, so the header length runs past the body and the
    client's decode *always* fails with a typed
    :class:`~repro.errors.ProtocolError` (never a silently-valid
    mutated message), exercising retry + dedup.
``batch_hang``
    A serve executor sleeps ``hang_s`` seconds before running,
    tripping the watchdog's ``REPRO_SERVE_BATCH_TIMEOUT`` when the
    sleep exceeds it.
``daemon_crash``
    The daemon process dies (``os._exit``) while a request is being
    dispatched, exercising supervised re-exec and checkpoint
    fast-restart.

Activate a plan programmatically (:func:`install_fault_plan`, or the
:func:`inject` context manager in tests) or via the environment::

    REPRO_FAULT_SPEC="seed=7,crash=0.05,corrupt_cache=0.1"

Process-pool workers inherit the spec through the environment (and,
under ``fork``, the installed plan), so injection reaches every layer
of a parallel run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import threading
import time

from repro.config import active_exec_config
from repro.errors import ConfigurationError
from repro.obs.metrics import METRICS

#: Recognised fault kinds (each is a rate field of :class:`FaultPlan`).
FAULT_KINDS = ("crash", "hang", "payload", "corrupt_cache",
               "corrupt_arena", "corrupt_result",
               "conn_drop", "slow_peer", "corrupt_frame", "batch_hang",
               "daemon_crash")

#: The serve-site subset of :data:`FAULT_KINDS` (injected in
#: ``repro.serve``, not the execution engine).
SERVE_FAULT_KINDS = ("conn_drop", "slow_peer", "corrupt_frame",
                     "batch_hang", "daemon_crash")

#: Spec keys that are not rates.
_SCALAR_KEYS = ("seed", "hang_s")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Every rate is the probability that one *occurrence* of a fault
    site fires; the decision hashes ``(seed, kind, key, occurrence)``
    so it is reproducible and independent of execution order elsewhere.
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    payload: float = 0.0
    corrupt_cache: float = 0.0
    corrupt_arena: float = 0.0
    corrupt_result: float = 0.0
    conn_drop: float = 0.0
    slow_peer: float = 0.0
    corrupt_frame: float = 0.0
    batch_hang: float = 0.0
    daemon_crash: float = 0.0
    hang_s: float = 0.25

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"fault rate {kind} must be in [0, 1], got {rate}"
                )
        if self.hang_s < 0:
            raise ConfigurationError(
                f"hang_s must be >= 0, got {self.hang_s}"
            )

    # ------------------------------------------------------------------
    # Spec round-trip (environment / CLI).
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse ``"seed=7,crash=0.05,..."`` into a plan."""
        fields: dict[str, float] = {}
        for part in spec.replace(":", ",").split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ConfigurationError(
                    f"fault spec entry {part!r} is not key=value "
                    f"(full spec: {spec!r})"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in FAULT_KINDS and key not in _SCALAR_KEYS:
                raise ConfigurationError(
                    f"unknown fault spec key {key!r}; expected one of "
                    f"{FAULT_KINDS + _SCALAR_KEYS}"
                )
            try:
                fields[key] = float(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"fault spec value for {key!r} must be numeric, "
                    f"got {raw!r}"
                ) from exc
        if "seed" in fields:
            fields["seed"] = int(fields["seed"])
        return cls(**fields)

    def spec(self) -> str:
        """Canonical spec string (``parse(plan.spec()) == plan``)."""
        parts = [f"seed={self.seed}"]
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if rate > 0.0:
                parts.append(f"{kind}={rate}")
        if self.hang_s != 0.25:
            parts.append(f"hang_s={self.hang_s}")
        return ",".join(parts)

    # ------------------------------------------------------------------
    # Decisions.
    # ------------------------------------------------------------------
    def fires(self, kind: str, key: str, occurrence: int = 0) -> bool:
        """Whether this occurrence of a fault site fires (pure)."""
        rate = getattr(self, kind)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}/{kind}/{key}/{occurrence}".encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "little") / float(2 ** 64)
        return draw < rate


# ---------------------------------------------------------------------
# Process-wide active plan.
# ---------------------------------------------------------------------
_LOCK = threading.Lock()
_INSTALLED: FaultPlan | None = None
#: Memoised parse of the env spec: (raw spec string, parsed plan).
_ENV_CACHE: tuple[str, FaultPlan] | None = None
#: Per-(kind, key) occurrence counters, so repeated visits to one site
#: draw fresh decisions (a quarantined cache entry is not re-corrupted
#: forever) while single-shot sites stay deterministic.
_OCCURRENCES: dict[tuple[str, str], int] = {}


def install_fault_plan(plan: FaultPlan | None) -> None:
    """Install (or, with ``None``, clear) the process-wide plan.

    An installed plan takes precedence over ``REPRO_FAULT_SPEC``.
    Occurrence counters reset so each installation replays identically.
    """
    global _INSTALLED
    with _LOCK:
        _INSTALLED = plan
        _OCCURRENCES.clear()


def active_plan() -> FaultPlan | None:
    """The installed plan, else the config-driven plan, else ``None``.

    The spec string is the active config's ``fault_spec`` (the
    ``REPRO_FAULT_SPEC`` knob), so scoped ``ExecConfig.override(...)``
    blocks can inject faults without mutating the environment. The
    parse is memoised per spec.
    """
    global _ENV_CACHE
    with _LOCK:
        if _INSTALLED is not None:
            return _INSTALLED
        raw = active_exec_config().fault_spec
        if not raw:
            return None
        if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
            _ENV_CACHE = (raw, FaultPlan.parse(raw))
        return _ENV_CACHE[1]


@contextlib.contextmanager
def inject(plan: FaultPlan):
    """Run a ``with`` block under a fault plan (tests, chaos harness)."""
    previous = _INSTALLED
    install_fault_plan(plan)
    try:
        yield plan
    finally:
        install_fault_plan(previous)


def should_inject(kind: str, key: str,
                  track_occurrence: bool = True) -> bool:
    """Consult the active plan at one fault site.

    ``track_occurrence=False`` keys the decision on the site alone —
    used for sites whose key already encodes the retry attempt, so the
    decision does not depend on which worker observed the site first.
    Fired faults are counted under ``faults.injected.<kind>``.
    """
    plan = active_plan()
    if plan is None or getattr(plan, kind) <= 0.0:
        return False
    occurrence = 0
    if track_occurrence:
        with _LOCK:
            occurrence = _OCCURRENCES.get((kind, key), 0)
            _OCCURRENCES[(kind, key)] = occurrence + 1
    fired = plan.fires(kind, key, occurrence)
    if fired:
        METRICS.incr(f"faults.injected.{kind}")
    return fired


def maybe_hang(key: str) -> bool:
    """Sleep ``hang_s`` if the hang fault fires at this site."""
    plan = active_plan()
    if plan is None or plan.hang <= 0.0:
        return False
    if not should_inject("hang", key, track_occurrence=False):
        return False
    time.sleep(plan.hang_s)
    return True
