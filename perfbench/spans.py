"""In-memory span recorder and self-time accounting for traced runs.

The benchmark measures every layer from outside the program: it wraps
the program's own functions at their module boundary (nothing under
``src/`` changes) and records one span per call. A span is
``(id, parent, name, start, end, request, rows)``; ids carry the pid,
so spans from forked pool workers merge with the parent's without
clashing. Spans stay in memory. A forked worker writes its spans to
``<flush_dir>/spans-<pid>.json`` when it exits normally, and the
process that owns the run merges them afterwards.

A layer's self time is the duration of each of its spans minus the
part of that interval covered by the span's children, summed over the
layer's spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from pathlib import Path


class Recorder:
    """Thread-safe collector of spans for one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.flush_dir: Path | None = None
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def enable(self, flush_dir: str | Path | None = None) -> None:
        """Start recording; forked children flush into ``flush_dir``."""
        self.flush_dir = Path(flush_dir) if flush_dir is not None else None
        self.enabled = True
        # Runs in multiprocessing children after the start-up code has
        # cleared the finalizer registry, so the flush below survives.
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    def _after_fork(self) -> None:
        # A forked worker inherits the parent's spans; drop them so the
        # flushed file holds only work done in the worker.
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        if self.enabled and self.flush_dir is not None:
            multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> None:
        """Write this process's spans to ``flush_dir`` (worker exit)."""
        if self.flush_dir is None or not self.spans:
            return
        path = self.flush_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))

    def collect_flushed(self) -> list[dict]:
        """Spans written by exited workers, read back and removed."""
        out: list[dict] = []
        if self.flush_dir is None:
            return out
        for path in sorted(self.flush_dir.glob("spans-*.json")):
            out.extend(json.loads(path.read_text()))
            path.unlink()
        return out

    @contextlib.contextmanager
    def paused(self):
        """Record nothing on the calling thread inside the block."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    @contextlib.contextmanager
    def span(self, name: str, request: int | None = None):
        """Record one span; yields the mutable record (or ``None``)."""
        if not self.enabled or getattr(self._local, "paused", False):
            yield None
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        pid = os.getpid()
        record = {"id": f"{pid}:{next(self._ids)}",
                  "parent": stack[-1]["id"] if stack else None,
                  "name": name, "start": time.monotonic(), "end": None,
                  "request": (request if request is not None else
                              stack[-1]["request"] if stack else None),
                  "rows": None}
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.monotonic()
            with self._lock:
                self.spans.append(record)


#: The process-wide recorder the wrappers report into.
RECORDER = Recorder()


def wrap(owner, attr: str, name: str, rows=None) -> None:
    """Put a ``name`` span around every call of ``owner.attr``.

    ``owner`` is a class or a module. For a module function, every
    loaded module that imported the same function object by name is
    patched too, so call sites that bound the name at import time are
    covered. ``rows(args, kwargs, result)`` counts the work of one
    call. Raises ``AttributeError`` when the attribute does not exist,
    so a probe that no longer matches the program fails the traced run
    instead of reading as zero.
    """
    original = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if original is None:
        raise AttributeError(f"cannot probe {name}: "
                             f"{owner.__name__}.{attr} does not exist")

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with RECORDER.span(name) as record:
            result = original(*args, **kwargs)
            if record is not None and rows is not None:
                record["rows"] = int(rows(args, kwargs, result))
            return result

    setattr(owner, attr, wrapper)
    if not isinstance(owner, type):
        for module in list(sys.modules.values()):
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-name self time in seconds: duration minus child coverage."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        start, end = s["start"], s["end"]
        clipped = [(max(a, start), min(b, end))
                   for a, b in children.get(s["id"], ())
                   if min(b, end) > max(a, start)]
        own = (end - start) - _union_length(clipped)
        out[s["name"]] = out.get(s["name"], 0.0) + max(own, 0.0)
    return out


def counts(spans: list[dict]) -> dict[str, tuple[int, int]]:
    """Per-name ``(calls, rows)``; rows sum the per-call work counts."""
    out: dict[str, tuple[int, int]] = {}
    for s in spans:
        calls, rows = out.get(s["name"], (0, 0))
        out[s["name"]] = (calls + 1, rows + (s["rows"] or 0))
    return out
