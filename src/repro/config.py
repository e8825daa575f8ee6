"""Global machine and experiment configuration.

Every tunable of the reproduced system lives here: the parameters of the
two-cluster scaled-Skylake core, the microcontroller's computation
budget, the SLA the paper targets, and the experiment scale knobs used
to shrink the paper's proprietary-scale datasets down to laptop scale.

The values mirror the paper wherever the paper states them:

* CPU: 2.0 GHz, 8-wide in high-performance mode (two 4-wide clusters),
  16,000 MIPS peak (Table 3 header).
* Microcontroller: 500 MHz, 1-wide, 500 MIPS, 50% of cycles safely
  available for inference (Section 3 / Table 3).
* SLA: low-power mode must retain ``P_SLA = 90%`` of high-performance
  IPC over ``T_SLA = 1 ms`` windows, guaranteed to 99% (Section 3.1).
* Low-power mode consumes ~35% less power on average (Section 3).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os

from repro.errors import ConfigurationError

#: Environment variable that scales dataset sizes for experiments.
#: ``1.0`` is the scaled default documented in EXPERIMENTS.md; larger
#: values approach the paper's original dataset sizes.
SCALE_ENV_VAR = "REPRO_SCALE"

#: Environment variable holding the global experiment seed.
SEED_ENV_VAR = "REPRO_SEED"

#: Default global seed; all experiments are deterministic given it.
DEFAULT_SEED = 7

#: Instructions per telemetry snapshot interval (Section 4.1).
BASE_INTERVAL_INSTRUCTIONS = 10_000

#: Environment variable bounding the interval model's in-process LRU
#: memo (entries, not bytes). One entry holds one trace x mode result.
INTERVAL_LRU_ENV_VAR = "REPRO_INTERVAL_LRU"

#: Default LRU bound when the environment does not override it.
DEFAULT_INTERVAL_LRU = 1024

#: Environment variable selecting the cycle-level kernel: ``soa`` (the
#: vectorized structure-of-arrays scoreboard, default) or ``reference``
#: (the original per-uop Python loop). Both are bit-identical; the
#: reference path exists as the ground truth the SoA kernel is
#: validated against.
CYCLE_KERNEL_ENV_VAR = "REPRO_CYCLE_KERNEL"

#: Recognised cycle-kernel names.
CYCLE_KERNELS = ("soa", "reference")

#: Environment variable gating the batch-simulation layer: ``1``
#: (default) enables stacked interval passes, chunked cache prewarming
#: and batched closed-loop inference; ``0`` selects the scalar per-
#: (trace, mode) paths exactly as they existed before the batch layer.
BATCH_SIM_ENV_VAR = "REPRO_BATCH_SIM"

#: Environment variable gating the zero-copy trace arena: ``1``
#: (default) lets process-backend fan-outs pack the trace corpus into a
#: memory-mapped segment that workers attach to by path, shrinking task
#: payloads to index lists; ``0`` ships full objects per task exactly
#: as before the arena existed.
EXEC_ARENA_ENV_VAR = "REPRO_EXEC_ARENA"

#: Environment variable forcing a fixed ParallelMap chunk size. Unset
#: (the default) selects the adaptive heuristic: chunks sized from the
#: stage's observed per-item cost, falling back to ~4 chunks/worker.
EXEC_CHUNK_ENV_VAR = "REPRO_EXEC_CHUNK"

#: Environment variable selecting worker-pool lifetime: ``persistent``
#: (default) keeps one warm pool per (backend, n_workers) for the life
#: of the process; ``fresh`` recreates a pool per map call (the
#: pre-arena behaviour, useful for benchmarking pool-churn cost).
EXEC_POOL_ENV_VAR = "REPRO_EXEC_POOL"

#: Environment variable bounding how many times ``ParallelMap`` retries
#: a failed chunk (worker crash, broken pool, task timeout) before
#: degrading to the next backend rung or raising a typed error.
EXEC_RETRIES_ENV_VAR = "REPRO_EXEC_RETRIES"

#: Default retry budget when the environment does not override it.
DEFAULT_EXEC_RETRIES = 2

#: Environment variable setting the per-task timeout (seconds) for
#: pool-backed dispatch. Unset or ``0`` disables timeouts (serial
#: execution is never preemptible and always ignores this).
EXEC_TIMEOUT_ENV_VAR = "REPRO_EXEC_TIMEOUT"

#: Environment variable holding a deterministic fault-injection spec
#: (see :class:`repro.exec.faults.FaultPlan`), e.g.
#: ``"seed=7,crash=0.05,corrupt_cache=0.1"``. Unset disables injection.
FAULT_SPEC_ENV_VAR = "REPRO_FAULT_SPEC"

#: Environment variable gating SimCache per-entry checksum
#: verification on read: ``1`` (default) verifies every loaded entry
#: against its stored digest; ``0`` skips verification (perf-overhead
#: benchmarking only — corrupt entries then surface only when the
#: container format itself fails to parse).
SIMCACHE_VERIFY_ENV_VAR = "REPRO_SIMCACHE_VERIFY"

#: Environment variable selecting the default execution backend.
EXEC_BACKEND_ENV_VAR = "REPRO_EXEC_BACKEND"

#: Environment variable selecting the default worker count (unset:
#: the CPU count at use time).
EXEC_WORKERS_ENV_VAR = "REPRO_EXEC_WORKERS"

#: Recognised execution backends, in increasing isolation order;
#: ``auto`` probes and picks between ``serial`` and ``process`` per
#: call. (:data:`repro.exec.parallel.BACKENDS` aliases this.)
EXEC_BACKENDS = ("serial", "thread", "process", "auto")

#: Environment variable pointing SimCache at its on-disk directory.
#: Unset disables the cache.
SIMCACHE_DIR_ENV_VAR = "REPRO_SIMCACHE_DIR"

#: Environment variable gating the span tracer (:mod:`repro.obs`):
#: unset or ``0`` disables tracing, ``1`` enables it with the default
#: output path, any other value enables it and names the trace file.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Environment variable gating shared-memory result return: ``1``
#: (default) lets process-backend fan-outs return large result arrays
#: through per-chunk mmap segments (descriptors instead of pickled
#: ndarrays); ``0`` is the kill-switch restoring fully pickled returns.
EXEC_SHMRES_ENV_VAR = "REPRO_EXEC_SHMRES"

#: Environment variable setting the corpus shard size (traces/cells
#: per shard) for the streaming dataset-scale entry points
#: (``build_mode_dataset``, ``AdaptiveCPU.run_many``,
#: ``screen_configs``). Unset disables sharding — the whole corpus is
#: one pass, the historical behaviour.
EXEC_SHARD_ENV_VAR = "REPRO_EXEC_SHARD"

#: Environment variable setting the tracer's 1-in-N span sampling rate
#: once the span buffer passes its sampling threshold (see
#: :mod:`repro.obs.tracer`). ``1`` stores every span up to the hard
#: cap (the pre-sampling behaviour).
TRACE_SAMPLE_ENV_VAR = "REPRO_TRACE_SAMPLE"

#: Default 1-in-N sampling rate above the tracer threshold.
DEFAULT_TRACE_SAMPLE = 8

#: Environment variable gating the tier-0 learned surrogate above
#: ``IntervalModel.simulate_batch`` (see :mod:`repro.surrogate`):
#: ``0`` (default) keeps every path exactly as before the surrogate
#: existed; ``1`` lets confidently-predicted (trace, mode) pairs skip
#: the interval-physics pass, with gated pairs falling back to the
#: interval tier bit-identically.
SURROGATE_ENV_VAR = "REPRO_SURROGATE"

#: Environment variable setting the surrogate confidence gate: the
#: maximum tolerated p95 relative ensemble disagreement on a pair's
#: predicted CPI before the pair falls back to the interval tier.
SURROGATE_THRESHOLD_ENV_VAR = "REPRO_SURROGATE_THRESHOLD"

#: Default confidence-gate threshold (relative disagreement).
DEFAULT_SURROGATE_THRESHOLD = 0.02

#: Environment variable sizing the surrogate's seeded probe corpus
#: (traces simulated through the interval tier to train the surrogate
#: and, held out, to validate its agreement).
SURROGATE_PROBES_ENV_VAR = "REPRO_SURROGATE_PROBES"

#: Default probe-corpus size (traces; one quarter is held out).
DEFAULT_SURROGATE_PROBES = 32

#: Environment variable bounding the serving daemon's micro-batch size:
#: a free executor takes at most this many pending requests at once.
SERVE_BATCH_MAX_ENV_VAR = "REPRO_SERVE_BATCH_MAX"

#: Default micro-batch bound.
DEFAULT_SERVE_BATCH_MAX = 8

#: Environment variable bounding the serving daemon's admission queue:
#: requests beyond this depth are shed with a typed ``busy`` response.
SERVE_QUEUE_BOUND_ENV_VAR = "REPRO_SERVE_QUEUE_BOUND"

#: Default admission-queue bound.
DEFAULT_SERVE_QUEUE_BOUND = 64

#: Environment variable bounding how long (seconds) one serve batch may
#: stay in flight before the supervisor fails its requests with a typed
#: ``BatchTimeoutError`` and restarts the batcher.
SERVE_BATCH_TIMEOUT_ENV_VAR = "REPRO_SERVE_BATCH_TIMEOUT"

#: Default in-flight batch timeout (seconds).
DEFAULT_SERVE_BATCH_TIMEOUT_S = 30.0

#: Environment variable setting how many consecutive batch failures of
#: one serve op trip the circuit breaker one degradation rung (batched
#: -> serial per-request -> shed-with-retry-after).
SERVE_BREAKER_THRESHOLD_ENV_VAR = "REPRO_SERVE_BREAKER_THRESHOLD"

#: Default breaker failure threshold.
DEFAULT_SERVE_BREAKER_THRESHOLD = 3

#: Environment variable setting the breaker cooldown (seconds): how
#: long a tripped breaker stays open before a half-open probe request
#: is allowed through the less-degraded path.
SERVE_BREAKER_COOLDOWN_ENV_VAR = "REPRO_SERVE_BREAKER_COOLDOWN"

#: Default breaker cooldown (seconds).
DEFAULT_SERVE_BREAKER_COOLDOWN_S = 1.0

#: Environment variable pointing the serving daemon at its warm-state
#: checkpoint file (trained predictor + corpus fingerprint, CRC
#: validated). Unset disables checkpointing.
SERVE_CHECKPOINT_ENV_VAR = "REPRO_SERVE_CHECKPOINT"

#: Environment variable bounding how many times ``repro serve
#: --supervise`` re-execs a crashed daemon before giving up.
SERVE_RESTARTS_ENV_VAR = "REPRO_SERVE_RESTARTS"

#: Default supervised-restart budget.
DEFAULT_SERVE_RESTARTS = 3

#: Environment variable gating the continual-adaptation subsystem
#: (:mod:`repro.online`): ``0`` (default) serves the startup predictor
#: forever, exactly as before the subsystem existed; ``1`` samples
#: served telemetry into a ring buffer, watches it for drift, retrains
#: candidates in the background and hot-swaps them behind the shadow
#: gate.
ONLINE_ENV_VAR = "REPRO_ONLINE"

#: Environment variable sizing the online telemetry ring buffer
#: (sampled entries retained; fixed-dtype, preallocated).
ONLINE_RING_ENV_VAR = "REPRO_ONLINE_RING"

#: Default ring capacity.
DEFAULT_ONLINE_RING = 2048

#: Environment variable setting the online ring's deterministic 1-in-N
#: request sampling rate. ``1`` samples every served request.
ONLINE_SAMPLE_ENV_VAR = "REPRO_ONLINE_SAMPLE"

#: Default online sampling rate (every request).
DEFAULT_ONLINE_SAMPLE = 1

#: Environment variable sizing the drift detector's comparison window
#: (sampled adapt entries per window).
ONLINE_DRIFT_WINDOW_ENV_VAR = "REPRO_ONLINE_DRIFT_WINDOW"

#: Default drift window (entries).
DEFAULT_ONLINE_DRIFT_WINDOW = 64

#: Environment variable setting the population-stability-index score
#: above which the drift detector trips a ``DriftSignal``.
ONLINE_DRIFT_THRESHOLD_ENV_VAR = "REPRO_ONLINE_DRIFT_THRESHOLD"

#: Default PSI drift threshold.
DEFAULT_ONLINE_DRIFT_THRESHOLD = 0.25

#: Environment variable setting how often (seconds) the background
#: learner polls the ring for drift.
ONLINE_INTERVAL_ENV_VAR = "REPRO_ONLINE_INTERVAL_S"

#: Default learner poll interval (seconds).
DEFAULT_ONLINE_INTERVAL_S = 2.0


# ---------------------------------------------------------------------
# Raw environment parsers. Each reads exactly one knob and raises the
# historical per-variable error message; :meth:`ExecConfig.from_env`
# is their only caller.
# ---------------------------------------------------------------------
def _env_interval_lru() -> int:
    raw = os.environ.get(INTERVAL_LRU_ENV_VAR, str(DEFAULT_INTERVAL_LRU))
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{INTERVAL_LRU_ENV_VAR} must be an int, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValueError(
            f"{INTERVAL_LRU_ENV_VAR} must be >= 1, got {value}"
        )
    return value


def _env_cycle_kernel() -> str:
    value = os.environ.get(CYCLE_KERNEL_ENV_VAR, "soa")
    if value not in CYCLE_KERNELS:
        raise ValueError(
            f"{CYCLE_KERNEL_ENV_VAR} must be one of {CYCLE_KERNELS}, "
            f"got {value!r}"
        )
    return value


def _env_flag(var: str, default: str) -> bool:
    value = os.environ.get(var, default)
    if value not in ("0", "1"):
        raise ValueError(f"{var} must be '0' or '1', got {value!r}")
    return value == "1"


def _env_backend() -> str:
    value = os.environ.get(EXEC_BACKEND_ENV_VAR, "serial")
    if value not in EXEC_BACKENDS:
        raise ConfigurationError(
            f"unknown exec backend {value!r}; expected one of "
            f"{EXEC_BACKENDS}"
        )
    return value


def _env_workers() -> int | None:
    raw = os.environ.get(EXEC_WORKERS_ENV_VAR)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{EXEC_WORKERS_ENV_VAR} must be an int, got {raw!r}"
        ) from exc
    if value < 1:
        raise ConfigurationError(
            f"n_workers must be >= 1, got {value}"
        )
    return value


def _env_chunk() -> int | None:
    raw = os.environ.get(EXEC_CHUNK_ENV_VAR)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{EXEC_CHUNK_ENV_VAR} must be an int, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValueError(f"{EXEC_CHUNK_ENV_VAR} must be >= 1, got {value}")
    return value


def _env_retries() -> int:
    raw = os.environ.get(EXEC_RETRIES_ENV_VAR, str(DEFAULT_EXEC_RETRIES))
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{EXEC_RETRIES_ENV_VAR} must be an int, got {raw!r}"
        ) from exc
    if value < 0:
        raise ValueError(
            f"{EXEC_RETRIES_ENV_VAR} must be >= 0, got {value}"
        )
    return value


def _env_timeout() -> float | None:
    raw = os.environ.get(EXEC_TIMEOUT_ENV_VAR)
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{EXEC_TIMEOUT_ENV_VAR} must be a float, got {raw!r}"
        ) from exc
    if value < 0:
        raise ValueError(
            f"{EXEC_TIMEOUT_ENV_VAR} must be >= 0, got {value}"
        )
    return value if value > 0 else None


def _env_pool() -> str:
    value = os.environ.get(EXEC_POOL_ENV_VAR, "persistent")
    if value not in ("persistent", "fresh"):
        raise ValueError(
            f"{EXEC_POOL_ENV_VAR} must be 'persistent' or 'fresh', "
            f"got {value!r}"
        )
    return value


def _env_optional(var: str) -> str | None:
    raw = os.environ.get(var)
    return raw if raw else None


def _env_trace() -> str | None:
    raw = os.environ.get(TRACE_ENV_VAR)
    if raw is None or raw in ("", "0"):
        return None
    return raw


def _env_shard() -> int | None:
    raw = os.environ.get(EXEC_SHARD_ENV_VAR)
    if raw is None or raw == "":
        return None
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{EXEC_SHARD_ENV_VAR} must be an int, got {raw!r}"
        ) from exc
    if value < 0:
        raise ValueError(f"{EXEC_SHARD_ENV_VAR} must be >= 0, got {value}")
    return value if value > 0 else None


def _env_trace_sample() -> int:
    raw = os.environ.get(TRACE_SAMPLE_ENV_VAR,
                         str(DEFAULT_TRACE_SAMPLE))
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{TRACE_SAMPLE_ENV_VAR} must be an int, got {raw!r}"
        ) from exc
    if value < 1:
        raise ValueError(
            f"{TRACE_SAMPLE_ENV_VAR} must be >= 1, got {value}"
        )
    return value


def _env_surrogate_threshold() -> float:
    raw = os.environ.get(SURROGATE_THRESHOLD_ENV_VAR,
                         str(DEFAULT_SURROGATE_THRESHOLD))
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{SURROGATE_THRESHOLD_ENV_VAR} must be a float, got {raw!r}"
        ) from exc
    if value <= 0:
        raise ValueError(
            f"{SURROGATE_THRESHOLD_ENV_VAR} must be > 0, got {value}"
        )
    return value


def _env_surrogate_probes() -> int:
    raw = os.environ.get(SURROGATE_PROBES_ENV_VAR,
                         str(DEFAULT_SURROGATE_PROBES))
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(
            f"{SURROGATE_PROBES_ENV_VAR} must be an int, got {raw!r}"
        ) from exc
    if value < 8:
        raise ValueError(
            f"{SURROGATE_PROBES_ENV_VAR} must be >= 8 (the probe "
            f"corpus is split into train and held-out parts), got {value}"
        )
    return value


def _env_bounded_int(var: str, default: int, minimum: int) -> int:
    raw = os.environ.get(var, str(default))
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{var} must be an int, got {raw!r}") from exc
    if value < minimum:
        raise ValueError(f"{var} must be >= {minimum}, got {value}")
    return value


def _env_positive_float(var: str, default: float) -> float:
    raw = os.environ.get(var, repr(default))
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{var} must be a float, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{var} must be > 0, got {value}")
    return value


#: Every environment variable :meth:`ExecConfig.from_env` consumes, in
#: the order its memo key is built.
EXEC_ENV_VARS = (
    EXEC_BACKEND_ENV_VAR,
    EXEC_WORKERS_ENV_VAR,
    EXEC_POOL_ENV_VAR,
    EXEC_ARENA_ENV_VAR,
    EXEC_SHMRES_ENV_VAR,
    EXEC_SHARD_ENV_VAR,
    EXEC_CHUNK_ENV_VAR,
    EXEC_RETRIES_ENV_VAR,
    EXEC_TIMEOUT_ENV_VAR,
    SIMCACHE_DIR_ENV_VAR,
    SIMCACHE_VERIFY_ENV_VAR,
    FAULT_SPEC_ENV_VAR,
    CYCLE_KERNEL_ENV_VAR,
    BATCH_SIM_ENV_VAR,
    INTERVAL_LRU_ENV_VAR,
    TRACE_ENV_VAR,
    TRACE_SAMPLE_ENV_VAR,
    SURROGATE_ENV_VAR,
    SURROGATE_THRESHOLD_ENV_VAR,
    SURROGATE_PROBES_ENV_VAR,
    SERVE_BATCH_MAX_ENV_VAR,
    SERVE_QUEUE_BOUND_ENV_VAR,
    SERVE_BATCH_TIMEOUT_ENV_VAR,
    SERVE_BREAKER_THRESHOLD_ENV_VAR,
    SERVE_BREAKER_COOLDOWN_ENV_VAR,
    SERVE_CHECKPOINT_ENV_VAR,
    SERVE_RESTARTS_ENV_VAR,
    ONLINE_ENV_VAR,
    ONLINE_RING_ENV_VAR,
    ONLINE_SAMPLE_ENV_VAR,
    ONLINE_DRIFT_WINDOW_ENV_VAR,
    ONLINE_DRIFT_THRESHOLD_ENV_VAR,
    ONLINE_INTERVAL_ENV_VAR,
)

# ``ExecConfig.from_env`` is memoized on the raw environment strings;
# building that key through ``os.environ.get`` re-encodes every
# variable name per lookup, which dominates hot paths that read the
# active config per (trace, mode) pair. Reading the underlying data
# mapping with pre-encoded names is ~20x cheaper and sees exactly the
# same state (``os.environ`` mutations update ``_data`` in place).
_ENV_DATA = getattr(os.environ, "_data", None)
_ENV_KEYS = (tuple(os.environ.encodekey(var) for var in EXEC_ENV_VARS)
             if _ENV_DATA is not None and hasattr(os.environ, "encodekey")
             else None)


def _env_memo_key() -> tuple:
    if _ENV_KEYS is not None:
        return tuple(map(_ENV_DATA.get, _ENV_KEYS))
    return tuple(os.environ.get(var) for var in EXEC_ENV_VARS)


@dataclasses.dataclass(frozen=True)
class ServeView:
    """Typed sub-view of the serving-daemon knobs.

    Call sites read ``active_exec_config().serve.batch_max`` instead of
    string-indexing the flat ``serve_*`` attribute zoo; the flat names
    remain as deprecated shims.
    """

    batch_max: int
    queue_bound: int
    batch_timeout_s: float
    breaker_threshold: int
    breaker_cooldown_s: float
    checkpoint: str | None
    restarts: int


@dataclasses.dataclass(frozen=True)
class FaultsView:
    """Typed sub-view of the resilience / fault-injection knobs."""

    spec: str | None
    retries: int
    timeout: float | None
    simcache_verify: bool


@dataclasses.dataclass(frozen=True)
class OnlineView:
    """Typed sub-view of the continual-adaptation knobs."""

    enabled: bool
    ring: int
    sample: int
    drift_window: int
    drift_threshold: float
    interval_s: float


@dataclasses.dataclass(frozen=True)
class ExecConfig:
    """The typed face of every runtime knob the engine reads.

    One frozen value object replaces ~15 scattered ``os.environ``
    reads: build it with :meth:`from_env` (the environment variables
    keep working), :meth:`from_cli` (CLI flags layered over the
    environment) or directly, and install it for a scope with
    :meth:`override`. Internal call sites read the active config via
    the module-level accessor functions (``cycle_kernel()``,
    ``exec_retries()``, ...), which are now thin shims over
    :func:`active_exec_config`.

    ``None`` means "engine default decided at use time": ``workers``
    falls back to the CPU count, ``chunk`` to adaptive sizing,
    ``timeout``/``fault_spec``/``simcache_dir``/``trace`` to off.
    """

    backend: str = "serial"
    workers: int | None = None
    pool: str = "persistent"
    arena: bool = True
    shmres: bool = True
    shard: int | None = None
    chunk: int | None = None
    retries: int = DEFAULT_EXEC_RETRIES
    timeout: float | None = None
    simcache_dir: str | None = None
    simcache_verify: bool = True
    fault_spec: str | None = None
    cycle_kernel: str = "soa"
    batch_sim: bool = True
    interval_lru: int = DEFAULT_INTERVAL_LRU
    trace: str | None = None
    trace_sample: int = DEFAULT_TRACE_SAMPLE
    surrogate: bool = False
    surrogate_threshold: float = DEFAULT_SURROGATE_THRESHOLD
    surrogate_probes: int = DEFAULT_SURROGATE_PROBES
    serve_batch_max: int = DEFAULT_SERVE_BATCH_MAX
    serve_queue_bound: int = DEFAULT_SERVE_QUEUE_BOUND
    serve_batch_timeout_s: float = DEFAULT_SERVE_BATCH_TIMEOUT_S
    serve_breaker_threshold: int = DEFAULT_SERVE_BREAKER_THRESHOLD
    serve_breaker_cooldown_s: float = DEFAULT_SERVE_BREAKER_COOLDOWN_S
    serve_checkpoint: str | None = None
    serve_restarts: int = DEFAULT_SERVE_RESTARTS
    online_enabled: bool = False
    online_ring: int = DEFAULT_ONLINE_RING
    online_sample: int = DEFAULT_ONLINE_SAMPLE
    online_drift_window: int = DEFAULT_ONLINE_DRIFT_WINDOW
    online_drift_threshold: float = DEFAULT_ONLINE_DRIFT_THRESHOLD
    online_interval_s: float = DEFAULT_ONLINE_INTERVAL_S

    def __post_init__(self) -> None:
        if self.backend not in EXEC_BACKENDS:
            raise ConfigurationError(
                f"unknown exec backend {self.backend!r}; expected one "
                f"of {EXEC_BACKENDS}"
            )
        if self.pool not in ("persistent", "fresh"):
            raise ValueError(
                f"pool must be 'persistent' or 'fresh', got {self.pool!r}"
            )
        if self.cycle_kernel not in CYCLE_KERNELS:
            raise ValueError(
                f"cycle_kernel must be one of {CYCLE_KERNELS}, "
                f"got {self.cycle_kernel!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.workers}"
            )
        if self.chunk is not None and self.chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {self.chunk}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.interval_lru < 1:
            raise ValueError(
                f"interval_lru must be >= 1, got {self.interval_lru}"
            )
        if self.shard is not None and self.shard < 1:
            raise ValueError(f"shard must be >= 1, got {self.shard}")
        if self.trace_sample < 1:
            raise ValueError(
                f"trace_sample must be >= 1, got {self.trace_sample}"
            )
        if self.surrogate_threshold <= 0:
            raise ValueError(
                f"surrogate_threshold must be > 0, "
                f"got {self.surrogate_threshold}"
            )
        if self.surrogate_probes < 8:
            raise ValueError(
                f"surrogate_probes must be >= 8, got {self.surrogate_probes}"
            )
        if self.serve_batch_max < 1:
            raise ValueError(
                f"serve_batch_max must be >= 1, got {self.serve_batch_max}"
            )
        if self.serve_queue_bound < 1:
            raise ValueError(
                f"serve_queue_bound must be >= 1, "
                f"got {self.serve_queue_bound}"
            )
        if self.serve_batch_timeout_s <= 0:
            raise ValueError(
                f"serve_batch_timeout_s must be > 0, "
                f"got {self.serve_batch_timeout_s}"
            )
        if self.serve_breaker_threshold < 1:
            raise ValueError(
                f"serve_breaker_threshold must be >= 1, "
                f"got {self.serve_breaker_threshold}"
            )
        if self.serve_breaker_cooldown_s <= 0:
            raise ValueError(
                f"serve_breaker_cooldown_s must be > 0, "
                f"got {self.serve_breaker_cooldown_s}"
            )
        if self.serve_restarts < 0:
            raise ValueError(
                f"serve_restarts must be >= 0, got {self.serve_restarts}"
            )
        if self.online_ring < 8:
            raise ValueError(
                f"online_ring must be >= 8, got {self.online_ring}"
            )
        if self.online_sample < 1:
            raise ValueError(
                f"online_sample must be >= 1, got {self.online_sample}"
            )
        if self.online_drift_window < 8:
            raise ValueError(
                f"online_drift_window must be >= 8, "
                f"got {self.online_drift_window}"
            )
        if self.online_drift_threshold <= 0:
            raise ValueError(
                f"online_drift_threshold must be > 0, "
                f"got {self.online_drift_threshold}"
            )
        if self.online_interval_s <= 0:
            raise ValueError(
                f"online_interval_s must be > 0, "
                f"got {self.online_interval_s}"
            )

    # ------------------------------------------------------------------
    # Typed sub-views. ``functools.cached_property`` writes straight to
    # the instance ``__dict__``, which bypasses the frozen-dataclass
    # ``__setattr__`` — so the views are computed once per config and
    # the config itself stays immutable.
    # ------------------------------------------------------------------
    @functools.cached_property
    def serve(self) -> ServeView:
        """The serving-daemon knobs, as one typed view."""
        return ServeView(
            batch_max=self.serve_batch_max,
            queue_bound=self.serve_queue_bound,
            batch_timeout_s=self.serve_batch_timeout_s,
            breaker_threshold=self.serve_breaker_threshold,
            breaker_cooldown_s=self.serve_breaker_cooldown_s,
            checkpoint=self.serve_checkpoint,
            restarts=self.serve_restarts,
        )

    @functools.cached_property
    def faults(self) -> FaultsView:
        """The resilience / fault-injection knobs, as one typed view."""
        return FaultsView(
            spec=self.fault_spec,
            retries=self.retries,
            timeout=self.timeout,
            simcache_verify=self.simcache_verify,
        )

    @functools.cached_property
    def online(self) -> OnlineView:
        """The continual-adaptation knobs, as one typed view."""
        return OnlineView(
            enabled=self.online_enabled,
            ring=self.online_ring,
            sample=self.online_sample,
            drift_window=self.online_drift_window,
            drift_threshold=self.online_drift_threshold,
            interval_s=self.online_interval_s,
        )

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> "ExecConfig":
        """Parse every ``REPRO_*`` engine knob into one config.

        Memoized on the raw environment strings, so repeated calls on
        an unchanged environment are a tuple compare — and a
        monkeypatched environment (tests) is picked up immediately.
        Invalid values raise the same per-variable errors the old
        accessor functions raised.
        """
        global _FROM_ENV_CACHE
        key = _env_memo_key()
        cached = _FROM_ENV_CACHE
        if cached is not None and cached[0] == key:
            return cached[1]
        config = cls(
            backend=_env_backend(),
            workers=_env_workers(),
            pool=_env_pool(),
            arena=_env_flag(EXEC_ARENA_ENV_VAR, "1"),
            shmres=_env_flag(EXEC_SHMRES_ENV_VAR, "1"),
            shard=_env_shard(),
            chunk=_env_chunk(),
            retries=_env_retries(),
            timeout=_env_timeout(),
            simcache_dir=_env_optional(SIMCACHE_DIR_ENV_VAR),
            simcache_verify=_env_flag(SIMCACHE_VERIFY_ENV_VAR, "1"),
            fault_spec=_env_optional(FAULT_SPEC_ENV_VAR),
            cycle_kernel=_env_cycle_kernel(),
            batch_sim=_env_flag(BATCH_SIM_ENV_VAR, "1"),
            interval_lru=_env_interval_lru(),
            trace=_env_trace(),
            trace_sample=_env_trace_sample(),
            surrogate=_env_flag(SURROGATE_ENV_VAR, "0"),
            surrogate_threshold=_env_surrogate_threshold(),
            surrogate_probes=_env_surrogate_probes(),
            serve_batch_max=_env_bounded_int(
                SERVE_BATCH_MAX_ENV_VAR, DEFAULT_SERVE_BATCH_MAX, 1),
            serve_queue_bound=_env_bounded_int(
                SERVE_QUEUE_BOUND_ENV_VAR, DEFAULT_SERVE_QUEUE_BOUND, 1),
            serve_batch_timeout_s=_env_positive_float(
                SERVE_BATCH_TIMEOUT_ENV_VAR,
                DEFAULT_SERVE_BATCH_TIMEOUT_S),
            serve_breaker_threshold=_env_bounded_int(
                SERVE_BREAKER_THRESHOLD_ENV_VAR,
                DEFAULT_SERVE_BREAKER_THRESHOLD, 1),
            serve_breaker_cooldown_s=_env_positive_float(
                SERVE_BREAKER_COOLDOWN_ENV_VAR,
                DEFAULT_SERVE_BREAKER_COOLDOWN_S),
            serve_checkpoint=_env_optional(SERVE_CHECKPOINT_ENV_VAR),
            serve_restarts=_env_bounded_int(
                SERVE_RESTARTS_ENV_VAR, DEFAULT_SERVE_RESTARTS, 0),
            online_enabled=_env_flag(ONLINE_ENV_VAR, "0"),
            online_ring=_env_bounded_int(
                ONLINE_RING_ENV_VAR, DEFAULT_ONLINE_RING, 8),
            online_sample=_env_bounded_int(
                ONLINE_SAMPLE_ENV_VAR, DEFAULT_ONLINE_SAMPLE, 1),
            online_drift_window=_env_bounded_int(
                ONLINE_DRIFT_WINDOW_ENV_VAR,
                DEFAULT_ONLINE_DRIFT_WINDOW, 8),
            online_drift_threshold=_env_positive_float(
                ONLINE_DRIFT_THRESHOLD_ENV_VAR,
                DEFAULT_ONLINE_DRIFT_THRESHOLD),
            online_interval_s=_env_positive_float(
                ONLINE_INTERVAL_ENV_VAR, DEFAULT_ONLINE_INTERVAL_S),
        )
        _FROM_ENV_CACHE = (key, config)
        return config

    @classmethod
    def from_cli(cls, args) -> "ExecConfig":
        """Environment config with CLI flags layered on top.

        ``args`` is an ``argparse.Namespace`` (missing attributes are
        simply ignored, so any subcommand's namespace works). A flag
        left at its ``None`` default keeps the environment's value.
        """
        config = cls.from_env()
        updates: dict[str, object] = {}
        for attr, field in (("exec_backend", "backend"),
                            ("exec_workers", "workers"),
                            ("exec_chunk", "chunk"),
                            ("exec_retries", "retries"),
                            ("exec_shard", "shard"),
                            ("fault_spec", "fault_spec"),
                            ("trace", "trace"),
                            ("surrogate_threshold", "surrogate_threshold"),
                            ("surrogate_probes", "surrogate_probes"),
                            ("serve_batch_max", "serve_batch_max"),
                            ("serve_queue_bound", "serve_queue_bound"),
                            ("serve_batch_timeout", "serve_batch_timeout_s"),
                            ("serve_checkpoint", "serve_checkpoint"),
                            ("serve_restarts", "serve_restarts"),
                            ("online_ring", "online_ring"),
                            ("online_sample", "online_sample"),
                            ("online_drift_window", "online_drift_window"),
                            ("online_drift_threshold",
                             "online_drift_threshold"),
                            ("online_interval_s", "online_interval_s")):
            value = getattr(args, attr, None)
            if value is not None:
                updates[field] = value
        surrogate = getattr(args, "surrogate", None)
        if surrogate is not None:
            updates["surrogate"] = bool(surrogate)
        online = getattr(args, "online", None)
        if online is not None:
            updates["online_enabled"] = bool(online)
        arena = getattr(args, "exec_arena", None)
        if arena is not None:
            updates["arena"] = bool(arena)
        shmres = getattr(args, "exec_shmres", None)
        if shmres is not None:
            updates["shmres"] = bool(shmres)
        timeout = getattr(args, "exec_timeout", None)
        if timeout is not None:
            updates["timeout"] = timeout if timeout > 0 else None
        return dataclasses.replace(config, **updates) if updates else config

    def replace(self, **changes) -> "ExecConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Round-tripping.
    # ------------------------------------------------------------------
    def to_env(self) -> dict[str, str | None]:
        """Environment-variable image of this config.

        ``None`` values mean "unset the variable". The mapping
        round-trips: applying it and calling :meth:`from_env` yields
        a config equal to this one.
        """
        return {
            EXEC_BACKEND_ENV_VAR: self.backend,
            EXEC_WORKERS_ENV_VAR:
                None if self.workers is None else str(self.workers),
            EXEC_POOL_ENV_VAR: self.pool,
            EXEC_ARENA_ENV_VAR: "1" if self.arena else "0",
            EXEC_SHMRES_ENV_VAR: "1" if self.shmres else "0",
            EXEC_SHARD_ENV_VAR:
                None if self.shard is None else str(self.shard),
            EXEC_CHUNK_ENV_VAR:
                None if self.chunk is None else str(self.chunk),
            EXEC_RETRIES_ENV_VAR: str(self.retries),
            EXEC_TIMEOUT_ENV_VAR:
                None if self.timeout is None else repr(self.timeout),
            SIMCACHE_DIR_ENV_VAR: self.simcache_dir,
            SIMCACHE_VERIFY_ENV_VAR: "1" if self.simcache_verify else "0",
            FAULT_SPEC_ENV_VAR: self.fault_spec,
            CYCLE_KERNEL_ENV_VAR: self.cycle_kernel,
            BATCH_SIM_ENV_VAR: "1" if self.batch_sim else "0",
            INTERVAL_LRU_ENV_VAR: str(self.interval_lru),
            TRACE_ENV_VAR: self.trace,
            TRACE_SAMPLE_ENV_VAR: str(self.trace_sample),
            SURROGATE_ENV_VAR: "1" if self.surrogate else "0",
            SURROGATE_THRESHOLD_ENV_VAR: repr(self.surrogate_threshold),
            SURROGATE_PROBES_ENV_VAR: str(self.surrogate_probes),
            SERVE_BATCH_MAX_ENV_VAR: str(self.serve_batch_max),
            SERVE_QUEUE_BOUND_ENV_VAR: str(self.serve_queue_bound),
            SERVE_BATCH_TIMEOUT_ENV_VAR: repr(self.serve_batch_timeout_s),
            SERVE_BREAKER_THRESHOLD_ENV_VAR:
                str(self.serve_breaker_threshold),
            SERVE_BREAKER_COOLDOWN_ENV_VAR:
                repr(self.serve_breaker_cooldown_s),
            SERVE_CHECKPOINT_ENV_VAR: self.serve_checkpoint,
            SERVE_RESTARTS_ENV_VAR: str(self.serve_restarts),
            ONLINE_ENV_VAR: "1" if self.online_enabled else "0",
            ONLINE_RING_ENV_VAR: str(self.online_ring),
            ONLINE_SAMPLE_ENV_VAR: str(self.online_sample),
            ONLINE_DRIFT_WINDOW_ENV_VAR: str(self.online_drift_window),
            ONLINE_DRIFT_THRESHOLD_ENV_VAR:
                repr(self.online_drift_threshold),
            ONLINE_INTERVAL_ENV_VAR: repr(self.online_interval_s),
        }

    def apply_env(self) -> None:
        """Write this config into ``os.environ``.

        The one sanctioned way to make a config visible to *process
        pool workers*, which inherit the environment but not this
        process's :func:`install_exec_config` state.
        """
        for var, value in self.to_env().items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value

    # ------------------------------------------------------------------
    # Scoped installation.
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def override(self):
        """Install this config as the process-local active config for
        a ``with`` block (the environment is untouched — use
        :meth:`apply_env` when process-pool workers must see it too).
        """
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        try:
            yield self
        finally:
            _ACTIVE = previous


_FROM_ENV_CACHE: tuple[tuple, ExecConfig] | None = None
_ACTIVE: ExecConfig | None = None


def active_exec_config() -> ExecConfig:
    """The installed :class:`ExecConfig`, else :meth:`ExecConfig.from_env`."""
    if _ACTIVE is not None:
        return _ACTIVE
    return ExecConfig.from_env()


def install_exec_config(config: ExecConfig | None) -> None:
    """Install (or with ``None`` clear) the process-wide active config."""
    global _ACTIVE
    _ACTIVE = config


def experiment_scale() -> float:
    """Return the dataset scale factor from ``REPRO_SCALE`` (default 1.0)."""
    raw = os.environ.get(SCALE_ENV_VAR, "1.0")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{SCALE_ENV_VAR} must be a float, got {raw!r}"
        ) from exc
    if value <= 0:
        raise ValueError(f"{SCALE_ENV_VAR} must be positive, got {value}")
    return value


# ---------------------------------------------------------------------
# Knob accessors. Each is a deprecated thin shim over the active
# :class:`ExecConfig`: the environment variables keep working (through
# ``ExecConfig.from_env``), but new code should read
# ``active_exec_config().<field>`` directly.
# ---------------------------------------------------------------------
def interval_lru_size() -> int:
    """LRU memo bound from ``REPRO_INTERVAL_LRU`` (default 1024).

    .. deprecated:: read ``active_exec_config().interval_lru``.
    """
    return active_exec_config().interval_lru


def cycle_kernel() -> str:
    """Selected cycle-level kernel from ``REPRO_CYCLE_KERNEL``.

    .. deprecated:: read ``active_exec_config().cycle_kernel``.
    """
    return active_exec_config().cycle_kernel


def batch_sim_enabled() -> bool:
    """Whether the batch-simulation layer is on (``REPRO_BATCH_SIM``).

    .. deprecated:: read ``active_exec_config().batch_sim``.
    """
    return active_exec_config().batch_sim


def exec_arena_enabled() -> bool:
    """Whether the zero-copy trace arena is on (``REPRO_EXEC_ARENA``).

    .. deprecated:: read ``active_exec_config().arena``.
    """
    return active_exec_config().arena


def exec_shmres_enabled() -> bool:
    """Whether shared-memory result return is on (``REPRO_EXEC_SHMRES``).

    .. deprecated:: read ``active_exec_config().shmres``.
    """
    return active_exec_config().shmres


def exec_shard_size() -> int | None:
    """Corpus shard size from ``REPRO_EXEC_SHARD``, or None for one pass.

    .. deprecated:: read ``active_exec_config().shard``.
    """
    return active_exec_config().shard


def trace_sample_rate() -> int:
    """Tracer 1-in-N sampling rate from ``REPRO_TRACE_SAMPLE``.

    .. deprecated:: read ``active_exec_config().trace_sample``.
    """
    return active_exec_config().trace_sample


def surrogate_enabled() -> bool:
    """Whether the tier-0 learned surrogate is on (``REPRO_SURROGATE``)."""
    return active_exec_config().surrogate


def surrogate_threshold() -> float:
    """Confidence-gate disagreement threshold
    (``REPRO_SURROGATE_THRESHOLD``)."""
    return active_exec_config().surrogate_threshold


def surrogate_probes() -> int:
    """Probe-corpus size for surrogate training
    (``REPRO_SURROGATE_PROBES``)."""
    return active_exec_config().surrogate_probes


def serve_batch_max() -> int:
    """Serving micro-batch bound (``REPRO_SERVE_BATCH_MAX``)."""
    return active_exec_config().serve_batch_max


def serve_queue_bound() -> int:
    """Serving admission-queue bound (``REPRO_SERVE_QUEUE_BOUND``)."""
    return active_exec_config().serve_queue_bound


def serve_batch_timeout_s() -> float:
    """In-flight serve batch timeout in s (``REPRO_SERVE_BATCH_TIMEOUT``)."""
    return active_exec_config().serve_batch_timeout_s


def serve_breaker_threshold() -> int:
    """Breaker failure threshold (``REPRO_SERVE_BREAKER_THRESHOLD``)."""
    return active_exec_config().serve_breaker_threshold


def serve_breaker_cooldown_s() -> float:
    """Breaker cooldown in s (``REPRO_SERVE_BREAKER_COOLDOWN``)."""
    return active_exec_config().serve_breaker_cooldown_s


def serve_checkpoint_path() -> str | None:
    """Warm-state checkpoint path (``REPRO_SERVE_CHECKPOINT``), or None."""
    return active_exec_config().serve_checkpoint


def serve_restarts() -> int:
    """Supervised-restart budget (``REPRO_SERVE_RESTARTS``)."""
    return active_exec_config().serve_restarts


def online_enabled() -> bool:
    """Whether continual adaptation is on (``REPRO_ONLINE``).

    .. deprecated:: read ``active_exec_config().online.enabled``.
    """
    return active_exec_config().online_enabled


def exec_chunk_size() -> int | None:
    """Fixed chunk size from ``REPRO_EXEC_CHUNK``, or None for adaptive.

    .. deprecated:: read ``active_exec_config().chunk``.
    """
    return active_exec_config().chunk


def exec_retries() -> int:
    """Chunk retry budget from ``REPRO_EXEC_RETRIES`` (default 2).

    .. deprecated:: read ``active_exec_config().retries``.
    """
    return active_exec_config().retries


def exec_timeout() -> float | None:
    """Per-task timeout (s) from ``REPRO_EXEC_TIMEOUT`` (default off).

    .. deprecated:: read ``active_exec_config().timeout``.
    """
    return active_exec_config().timeout


def simcache_verify_enabled() -> bool:
    """Whether SimCache verifies checksums (``REPRO_SIMCACHE_VERIFY``).

    .. deprecated:: read ``active_exec_config().simcache_verify``.
    """
    return active_exec_config().simcache_verify


def exec_pool_persistent() -> bool:
    """Whether worker pools persist across map calls (``REPRO_EXEC_POOL``).

    .. deprecated:: read ``active_exec_config().pool``.
    """
    return active_exec_config().pool == "persistent"


def exec_backend() -> str:
    """Default execution backend from ``REPRO_EXEC_BACKEND``.

    .. deprecated:: read ``active_exec_config().backend``.
    """
    return active_exec_config().backend


def exec_workers() -> int | None:
    """Default worker count from ``REPRO_EXEC_WORKERS`` (None: CPU count).

    .. deprecated:: read ``active_exec_config().workers``.
    """
    return active_exec_config().workers


def simcache_dir() -> str | None:
    """SimCache directory from ``REPRO_SIMCACHE_DIR`` (None: disabled).

    .. deprecated:: read ``active_exec_config().simcache_dir``.
    """
    return active_exec_config().simcache_dir


def fault_spec() -> str | None:
    """Fault-injection spec from ``REPRO_FAULT_SPEC`` (None: disabled).

    .. deprecated:: read ``active_exec_config().fault_spec``.
    """
    return active_exec_config().fault_spec


def trace_spec() -> str | None:
    """Trace destination from ``REPRO_TRACE`` (None: tracing off).

    .. deprecated:: read ``active_exec_config().trace``.
    """
    return active_exec_config().trace


def experiment_seed() -> int:
    """Return the global experiment seed from ``REPRO_SEED`` (default 7)."""
    raw = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED))
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV_VAR} must be an int, got {raw!r}") from exc


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Resources of one out-of-order execution cluster.

    The paper's core is a scaled Skylake with two such clusters
    (Figure 2); each cluster owns its scheduler, execution units and a
    Memory Execution Unit (MEU).
    """

    issue_width: int = 4
    scheduler_entries: int = 48
    load_queue_entries: int = 36
    store_queue_entries: int = 28
    mshr_entries: int = 4
    alu_units: int = 4
    fpu_units: int = 2
    load_ports: int = 2
    store_ports: int = 1


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """The full two-cluster CPU plus memory hierarchy and timing.

    ``width_high_perf``/``width_low_power`` are the effective issue
    widths in the two operating modes; all latencies are in core cycles.
    """

    frequency_ghz: float = 2.0
    cluster: ClusterConfig = dataclasses.field(default_factory=ClusterConfig)
    num_clusters: int = 2
    rob_entries: int = 224
    retire_width: int = 8
    # Memory hierarchy.
    l1i_kib: int = 32
    l1d_kib: int = 32
    l2_kib: int = 1024
    l3_kib: int = 8192
    line_bytes: int = 64
    l1_latency: int = 4
    l2_latency: int = 12
    l3_latency: int = 40
    memory_latency: int = 200
    # Front end.
    branch_mispredict_penalty: int = 16
    icache_miss_penalty: int = 20
    uop_cache_entries: int = 1536
    # TLBs.
    tlb_miss_penalty: int = 30
    # Cluster interplay.
    intercluster_latency: int = 2
    intercluster_uop_fraction: float = 0.15
    # Mode switching (Section 3): a microcode flow transfers up to 32
    # register dependencies, one micro-op each, taking low tens of
    # cycles while execution continues on cluster 1.
    max_register_transfers: int = 32
    mode_switch_base_cycles: int = 8

    @property
    def width_high_perf(self) -> int:
        """Issue width with both clusters enabled."""
        return self.cluster.issue_width * self.num_clusters

    @property
    def width_low_power(self) -> int:
        """Issue width with cluster 2 clock-gated."""
        return self.cluster.issue_width

    @property
    def peak_mips(self) -> float:
        """Peak instruction throughput in MIPS (Table 3: 16,000)."""
        return self.frequency_ghz * 1_000.0 * self.width_high_perf


@dataclasses.dataclass(frozen=True)
class MicrocontrollerConfig:
    """The existing on-die microcontroller that hosts adaptation models.

    Section 3: 500 MHz, single issue, integer and floating point but no
    vector instructions; 50% of its cycles are safely available for
    generating adaptation predictions.
    """

    frequency_mhz: float = 500.0
    issue_width: int = 1
    available_fraction: float = 0.5
    sram_bytes: int = 1 << 20  # 1 MiB firmware data budget.

    @property
    def mips(self) -> float:
        """Peak throughput in MIPS."""
        return self.frequency_mhz * self.issue_width

    def ops_budget(self, granularity_instructions: int,
                   machine: MachineConfig | None = None) -> int:
        """Ops available per prediction at a given gating granularity.

        Reproduces the left half of Table 3: the CPU retires
        ``peak_mips`` instructions per second, so a prediction every
        ``granularity_instructions`` leaves
        ``granularity / (cpu_mips / uc_mips)`` microcontroller ops, of
        which ``available_fraction`` may be used.
        """
        machine = machine or MachineConfig()
        ratio = machine.peak_mips / self.mips  # e.g. 16000/500 = 32
        max_ops = granularity_instructions / ratio
        return int(max_ops * self.available_fraction)


@dataclasses.dataclass(frozen=True)
class SLAConfig:
    """A service level agreement per Section 3.1.

    ``performance_floor`` is :math:`P_{SLA}`: low-power-mode IPC must be
    at least this fraction of high-performance-mode IPC. ``window_ms``
    is :math:`T_{SLA}`, the measurement window. ``guarantee`` is the
    fraction of windows that must meet the floor (99%).
    """

    performance_floor: float = 0.90
    window_ms: float = 1.0
    guarantee: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.performance_floor <= 1.0:
            raise ValueError(
                f"performance_floor must be in (0, 1], got "
                f"{self.performance_floor}"
            )
        if self.window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {self.window_ms}")
        if not 0.0 < self.guarantee <= 1.0:
            raise ValueError(f"guarantee must be in (0, 1], got {self.guarantee}")

    def window_predictions(self, machine: MachineConfig,
                           granularity_instructions: int) -> int:
        """Sample size ``W`` for the SLA-violation expectation (Eq. 2).

        ``W = R * T_SLA * L`` with R the peak instruction throughput and
        L the prediction rate; e.g. 16 G inst/s * 1 ms / 10k inst =
        1600 predictions.
        """
        per_second = machine.peak_mips * 1e6
        window_instructions = per_second * (self.window_ms / 1e3)
        return max(1, int(window_instructions / granularity_instructions))


#: The SLA used throughout the paper except Section 7.3.
DEFAULT_SLA = SLAConfig()

#: The two relaxed SLAs evaluated in Table 5.
RELAXED_SLAS = (SLAConfig(performance_floor=0.80),
                SLAConfig(performance_floor=0.70))

#: Gating granularities the architecture supports (Section 3).
SUPPORTED_GRANULARITIES = tuple(range(10_000, 110_000, 10_000))
