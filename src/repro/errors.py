"""Exception hierarchy for the repro package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError, ValueError):
    """A component was configured with invalid or inconsistent values
    (a ``ValueError`` too, so callers catching bad values see it)."""


class BudgetExceededError(ReproError):
    """A firmware model does not fit the microcontroller budget."""


class NotFittedError(ReproError):
    """An ML model was used for inference before being trained."""


class DatasetError(ReproError):
    """A dataset is malformed or inconsistent with its metadata."""


class SimulationError(ReproError):
    """The simulator reached an invalid state."""


class ExecFaultError(ReproError):
    """The execution engine hit a fault it could not recover from.

    Base class for every typed failure of the resilient execution
    substrate (``repro.exec``). The engine's contract is that any
    fault — injected or organic — either degrades transparently
    (identical results via retry/fallback) or surfaces as a subclass
    of this error; it never silently returns a wrong answer.
    """


class WorkerCrashError(ExecFaultError):
    """A pool worker died (or was made to die) while running a task."""


class WorkerTimeoutError(ExecFaultError):
    """A task exceeded the per-task execution timeout on every retry."""


class CacheCorruptionError(ExecFaultError):
    """An on-disk cache entry failed its integrity check."""


class ArenaIntegrityError(ExecFaultError):
    """An arena segment failed magic/version/checksum validation."""


class ResultIntegrityError(ExecFaultError):
    """A shared-memory result segment failed validation on read.

    Raised parent-side when a worker's result segment cannot be
    mapped, fails its magic/version/bounds checks, or a block CRC
    mismatches. The dispatcher quarantines the segment and retries the
    chunk over pickled returns, so corruption costs throughput, never
    correctness."""


class ServeError(ReproError):
    """Base class for adaptation-serving (``repro.serve``) failures."""


class ProtocolError(ServeError):
    """A serve-protocol frame was malformed, oversized or truncated."""


class BusyError(ServeError):
    """Admission control shed a request: the serve queue is full.

    Carries ``queue_depth`` so clients (and the typed busy response)
    can report how deep the backlog was at shed time, and
    ``retry_after_ms`` — the server's drain-rate-derived estimate of
    when retrying is likely to be admitted (``None`` when unknown).
    """

    def __init__(self, message: str, queue_depth: int = 0,
                 retry_after_ms: float | None = None) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.retry_after_ms = retry_after_ms


class ServeClosedError(ServeError):
    """A request reached a daemon that is shutting down (or shut)."""


class BatchTimeoutError(ServeError):
    """An in-flight serve request exceeded ``REPRO_SERVE_BATCH_TIMEOUT``.

    The watchdog abandons the execution and answers with a typed
    ``timeout``; the hung thread discards its late result, so the
    executor never commits one. Clients may retry; a keyed retry runs
    fresh.
    """


class CheckpointError(ServeError):
    """A serve warm-state checkpoint is missing, corrupt, or stale.

    Raised when the checkpoint file fails its magic/version/CRC
    validation or its corpus fingerprint does not match the daemon's
    requested corpus. The daemon falls back to a cold build — a bad
    checkpoint costs startup time, never correctness.
    """


class StaleGenerationError(ServeError):
    """A generation-constrained request could not be satisfied.

    Raised client-side when a request carrying ``pin_generation`` was
    answered (or would be answered) by a different model generation, or
    one carrying ``min_generation`` reached a daemon still serving an
    older generation. Carries both sides of the comparison so callers
    can decide whether waiting for a promotion will help.
    """

    def __init__(self, message: str, requested: int | None = None,
                 current: int | None = None) -> None:
        super().__init__(message)
        self.requested = requested
        self.current = current


class OnlineError(ReproError):
    """Base class for continual-adaptation (``repro.online``) failures."""


class SwapGateError(OnlineError):
    """A candidate predictor failed the registry's compatibility gate.

    Hot-swapping is only safe for candidates that preserve the
    incumbent's counter set and gating granularity — those are the two
    predictor properties baked into the resident arena's prepared
    telemetry. An incompatible candidate is rejected before any state
    changes; the incumbent keeps serving.
    """


class RetriesExhaustedError(ServeError):
    """A client gave up after its full retry budget.

    Carries ``last_error`` — the error of the final attempt — so the
    caller can distinguish persistent overload from a dead daemon.
    """

    def __init__(self, message: str,
                 last_error: BaseException | None = None) -> None:
        super().__init__(message)
        self.last_error = last_error
