"""Hierarchical span tracer with a near-zero disabled fast path.

Two context managers:

* :func:`trace` opens a *root* span for one run (the CLI wraps each
  command in ``trace("repro.<command>")``) and, on exit, writes the
  structured JSON trace file described below.
* :func:`span` opens a nested span anywhere inside the run. Spans nest
  per thread (a thread-local stack provides the parent link) and are
  process-aware: spans recorded inside a process-pool worker are
  shipped back through the chunk-result sidecar and absorbed into the
  parent's buffer with their worker pid/ids intact.

Enablement is controlled by ``REPRO_TRACE`` (see
:class:`repro.config.ExecConfig`): unset or ``0`` disables tracing,
``1`` enables it with the default output path
(:data:`DEFAULT_TRACE_PATH`), and any other value enables it and names
the output file. When disabled, :func:`span` returns a shared no-op
singleton — no span object, no dict, no timestamp is allocated — so
instrumented hot paths cost one attribute load and one branch.

Trace-file schema (``schema`` = :data:`OBS_SCHEMA_VERSION`)::

    {
      "schema": 1,
      "run": "<root span name>",
      "pid": 1234,
      "started_unix": 1754000000.0,
      "duration_s": 12.5,
      "dropped_spans": 0,
      "sampled_spans": 0,
      "sample_rate": 8,
      "spans": [
        {"name": "exec.map", "id": "1234:7", "parent": "1234:1",
         "pid": 1234, "tid": 140.., "start_s": 0.002, "dur_s": 0.4,
         "attrs": {"stage": "evaluate", "items": 40}},
        ...
      ],
      "metrics": { ... Metrics.snapshot() ... }
    }

``id`` is ``"<pid>:<sequence>"`` so spans merged from workers never
collide with the parent's; ``start_s`` is relative to the process's
tracer epoch; ``parent`` is ``null`` for root/top-level spans.
:func:`validate_trace` checks a document against this schema and is
what CI's ``benchmarks/obs_smoke.py`` asserts with.

Tracing never changes results: spans observe timestamps only, consume
no randomness and reorder nothing, so a traced run is bit-identical to
an untraced one (CI runs tier-1 under ``REPRO_TRACE=1`` to prove it).
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time

from repro.config import KNOB
from repro.errors import ConfigurationError
from repro.obs.metrics import METRICS

#: Version stamped into (and required of) every trace document.
OBS_SCHEMA_VERSION = 1

#: The knobs gating the tracer and setting its sampling rate.
_TRACE, _SAMPLE = KNOB["trace"], KNOB["trace_sample"]

#: Where ``REPRO_TRACE=1`` writes the trace when no path is given.
DEFAULT_TRACE_PATH = "repro_trace.json"

#: Span-buffer hard bound; spans past it are counted, not stored, so
#: an instrumented long sweep cannot grow memory without bound. Once
#: the buffer is half full, deterministic 1-in-N sampling kicks in
#: (``REPRO_TRACE_SAMPLE``) so long sweeps keep a representative tail
#: instead of a truncated head.
MAX_SPANS = 200_000

#: Keys every span record must carry (schema validation).
_SPAN_KEYS = ("name", "id", "parent", "pid", "tid", "start_s", "dur_s",
              "attrs")

_LOCK = threading.Lock()
_LOCAL = threading.local()

#: Process epoch all ``start_s`` values are relative to.
_EPOCH = time.perf_counter()

_SPANS: list[dict] = []
_DROPPED = 0
_SAMPLE_SEEN = 0
_SAMPLED_OUT = 0
_NEXT_ID = 0
_LAST_TRACE_PATH: str | None = None


def _spec_from_env() -> str | None:
    """Trace destination from the environment, or None when disabled."""
    spec = _TRACE.read(os.environ.get(_TRACE.env), _TRACE.env)
    return DEFAULT_TRACE_PATH if spec == "1" else spec


def _sample_rate_from_env() -> int:
    """1-in-N sampling rate past the half-full mark (``1`` keeps every
    span up to the cap). Lenient, so a bad value cannot break
    ``import repro``: it falls back to the default here, and
    :meth:`repro.config.ExecConfig.from_env` is where it raises."""
    try:
        return _SAMPLE.read(os.environ.get(_SAMPLE.env), _SAMPLE.env)
    except ConfigurationError:
        return _SAMPLE.default


#: Cached sampling rate; refreshed alongside ``_ENABLED``.
_SAMPLE_RATE: int = _sample_rate_from_env()


#: The single branch every :func:`span` call tests. Initialised from
#: the environment at import (so spawned/forked pool workers inherit
#: the parent's setting), refreshed by :func:`trace`, :func:`enable`
#: and :func:`disable`.
_ENABLED: bool = _spec_from_env() is not None


class _NullSpan:
    """The disabled-mode span: one shared, immutable, do-nothing object."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One live span; records itself into the buffer on ``__exit__``."""

    __slots__ = ("name", "attrs", "_id", "_parent", "_start")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self._id = _new_id()
        self._parent = None
        self._start = 0.0

    def set(self, **attrs) -> "Span":
        """Attach attributes after the span opened."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _stack()
        self._parent = stack[-1] if stack else None
        stack.append(self._id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        stack = _stack()
        if stack and stack[-1] == self._id:
            stack.pop()
        _record({
            "name": self.name,
            "id": self._id,
            "parent": self._parent,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "start_s": self._start - _EPOCH,
            "dur_s": end - self._start,
            "attrs": self.attrs,
        })
        return False


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _new_id() -> str:
    global _NEXT_ID
    with _LOCK:
        _NEXT_ID += 1
        return f"{os.getpid()}:{_NEXT_ID}"


def _admit(record: dict) -> None:
    """Buffer one span record; caller holds ``_LOCK``.

    Admission policy: store everything while the buffer is under half
    of :data:`MAX_SPANS`; above that, keep every Nth span
    (``REPRO_TRACE_SAMPLE``, counter-based so it is deterministic and
    consumes no randomness) and count the rest under
    ``sampled_spans``; at the hard cap, count under ``dropped_spans``.
    Sampling selects which *observations are stored*, never what runs,
    so traced results stay bit-identical to untraced ones.
    """
    global _DROPPED, _SAMPLE_SEEN, _SAMPLED_OUT
    if len(_SPANS) >= MAX_SPANS:
        _DROPPED += 1
        return
    if _SAMPLE_RATE > 1 and len(_SPANS) >= MAX_SPANS // 2:
        _SAMPLE_SEEN += 1
        if _SAMPLE_SEEN % _SAMPLE_RATE != 0:
            _SAMPLED_OUT += 1
            return
    _SPANS.append(record)


def _record(record: dict) -> None:
    with _LOCK:
        _admit(record)


def span(name: str, **attrs):
    """Open a nested span; no-op singleton when tracing is disabled."""
    if not _ENABLED:
        return _NULL_SPAN
    return Span(name, attrs)


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _ENABLED


def enable(path: str | None = None) -> None:
    """Turn the tracer on programmatically (tests, benchmarks)."""
    global _ENABLED, _PATH_OVERRIDE
    _ENABLED = True
    _PATH_OVERRIDE = path


def disable() -> None:
    """Turn the tracer off and drop the buffered spans."""
    global _ENABLED, _DROPPED, _SAMPLE_SEEN, _SAMPLED_OUT
    global _PATH_OVERRIDE
    _ENABLED = False
    _PATH_OVERRIDE = None
    with _LOCK:
        _SPANS.clear()
        _DROPPED = 0
        _SAMPLE_SEEN = 0
        _SAMPLED_OUT = 0


_PATH_OVERRIDE: str | None = None


def refresh() -> None:
    """Re-read ``REPRO_TRACE`` / ``REPRO_TRACE_SAMPLE``
    (monkeypatched environments, workers)."""
    global _ENABLED, _SAMPLE_RATE
    if _PATH_OVERRIDE is None:
        _ENABLED = _spec_from_env() is not None
    _SAMPLE_RATE = _sample_rate_from_env()


@contextlib.contextmanager
def trace(name: str, path: str | None = None):
    """Root span for one run; writes the trace file on exit.

    Re-reads ``REPRO_TRACE`` on entry, so setting the variable right
    before a run (CLI, tests) takes effect without an explicit
    :func:`enable`. Disabled, it yields the no-op span and writes
    nothing. Spans recorded before this trace opened (e.g. by an
    earlier trace in the same process) are not re-exported: the
    document contains exactly the spans recorded during this block.
    """
    refresh()
    if not _ENABLED:
        yield _NULL_SPAN
        return
    with _LOCK:
        first = len(_SPANS)
    started_unix = time.time()
    t0 = time.perf_counter()
    root = span(name)
    try:
        with root:
            yield root
    finally:
        out = path or _PATH_OVERRIDE or _spec_from_env() or DEFAULT_TRACE_PATH
        _write(out, name, started_unix, time.perf_counter() - t0, first)


def _write(path: str, run: str, started_unix: float, duration_s: float,
           first: int) -> str:
    global _LAST_TRACE_PATH
    with _LOCK:
        spans = list(_SPANS[first:])
        dropped = _DROPPED
        sampled = _SAMPLED_OUT
    doc = {
        "schema": OBS_SCHEMA_VERSION,
        "run": run,
        "pid": os.getpid(),
        "started_unix": started_unix,
        "duration_s": duration_s,
        "dropped_spans": dropped,
        "sampled_spans": sampled,
        "sample_rate": _SAMPLE_RATE,
        "spans": spans,
        "metrics": METRICS.snapshot(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, default=str)
    _LAST_TRACE_PATH = path
    return path


def last_trace_path() -> str | None:
    """Path of the most recently written trace file, if any."""
    return _LAST_TRACE_PATH


# ---------------------------------------------------------------------
# Worker-side export (process-pool sidecar).
# ---------------------------------------------------------------------
def mark() -> int:
    """Checkpoint the span buffer for a later :func:`drain_since`."""
    with _LOCK:
        return len(_SPANS)


def drain_since(mark_: int) -> list[dict]:
    """Spans recorded since ``mark_`` (worker-side sidecar payload)."""
    with _LOCK:
        return list(_SPANS[mark_:])


def drain_reset(mark_: int) -> list[dict]:
    """Like :func:`drain_since`, but also truncates the buffer back to
    ``mark_`` — persistent-pool workers call this once per chunk so
    already-shipped spans never accumulate (or ship twice). The id
    counter is untouched, keeping worker span ids unique for the life
    of the worker."""
    with _LOCK:
        out = list(_SPANS[mark_:])
        del _SPANS[mark_:]
        return out


def absorb(spans: list[dict]) -> None:
    """Fold worker spans into this process's buffer (parent side).

    Worker spans pass through the same admission policy as local ones
    (:func:`_admit`), so sampling and the hard cap treat a span the
    same whichever process recorded it.
    """
    if not spans or not _ENABLED:
        return
    with _LOCK:
        for record in spans:
            _admit(record)


def reset() -> None:
    """Clear the span buffer and id counter (tests)."""
    global _DROPPED, _SAMPLE_SEEN, _SAMPLED_OUT
    global _NEXT_ID, _LAST_TRACE_PATH
    with _LOCK:
        _SPANS.clear()
        _DROPPED = 0
        _SAMPLE_SEEN = 0
        _SAMPLED_OUT = 0
        _NEXT_ID = 0
        _LAST_TRACE_PATH = None


def spans_snapshot() -> list[dict]:
    """Copy of the current span buffer (tests, reports)."""
    with _LOCK:
        return list(_SPANS)


def sample_stats() -> dict:
    """Admission counters: dropped, sampled-out and effective rate."""
    with _LOCK:
        return {
            "dropped": _DROPPED,
            "sampled_out": _SAMPLED_OUT,
            "sample_rate": _SAMPLE_RATE,
        }


# ---------------------------------------------------------------------
# Schema validation.
# ---------------------------------------------------------------------
def validate_trace(doc: dict) -> list[str]:
    """Check a trace document against the schema; [] means valid."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["trace document is not an object"]
    if doc.get("schema") != OBS_SCHEMA_VERSION:
        problems.append(
            f"schema is {doc.get('schema')!r}, "
            f"expected {OBS_SCHEMA_VERSION}")
    for key, kind in (("run", str), ("pid", int),
                      ("started_unix", (int, float)),
                      ("duration_s", (int, float)),
                      ("dropped_spans", int),
                      ("spans", list), ("metrics", dict)):
        if not isinstance(doc.get(key), kind):
            problems.append(f"missing or mistyped top-level key {key!r}")
    for key in ("sampled_spans", "sample_rate"):
        # Optional (added with span sampling); typed when present.
        if key in doc and not isinstance(doc[key], int):
            problems.append(f"mistyped optional top-level key {key!r}")
    spans = doc.get("spans")
    if not isinstance(spans, list):
        return problems
    ids = set()
    for i, record in enumerate(spans):
        if not isinstance(record, dict):
            problems.append(f"span {i} is not an object")
            continue
        for key in _SPAN_KEYS:
            if key not in record:
                problems.append(f"span {i} is missing {key!r}")
        if not isinstance(record.get("name"), str):
            problems.append(f"span {i} name is not a string")
        for key in ("start_s", "dur_s"):
            value = record.get(key)
            if not isinstance(value, (int, float)):
                problems.append(f"span {i} {key} is not numeric")
            elif key == "dur_s" and value < 0:
                problems.append(f"span {i} has negative duration")
        if not isinstance(record.get("attrs"), dict):
            problems.append(f"span {i} attrs is not an object")
        if record.get("id") is not None:
            ids.add(record["id"])
    for i, record in enumerate(spans):
        if not isinstance(record, dict):
            continue
        parent = record.get("parent")
        if parent is not None and parent not in ids:
            problems.append(
                f"span {i} parent {parent!r} does not resolve")
    return problems
