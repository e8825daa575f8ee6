"""Zero-copy trace arena for process-backend fan-outs.

The process backend's historical problem (BENCH_perf.json, PR 1-2) was
data movement: every task pickled full :class:`TraceSpec` objects —
each dragging its application spec, phase physics and transition
matrices — plus the closure state of the worker function (the
``AdaptiveCPU`` with its predictor, machine config and interval model)
across the IPC boundary, per chunk, per call. On corpora of hundreds
of traces the pickle bytes dwarfed the simulation work and the process
backend lost to serial.

:class:`TraceArena` fixes the movement half of that. It packs the
corpus once into a single memory-mapped file:

``[magic | header length | header CRC32 | pickled header |
aligned raw data region]``

The *header* carries everything small-but-shared exactly once: the
deduplicated application specs, per-trace metadata rows, named-array
descriptors, the machine config, and any caller-supplied shared
objects (the ``AdaptiveCPU`` itself, a telemetry collector, a model
factory). The *data region* holds the bulk numpy payload — each
trace's phase sequence and any named arrays (feature matrices, label
vectors, bootstrap indices) — at 16-byte-aligned offsets.

Workers attach by *handle* (the file path): the OS maps the same pages
into every worker, ``np.frombuffer`` reconstructs read-only views
without copying, and task payloads shrink to ``(handle, [indices])``
tuples. Attachments are memoised per process in a small LRU, so a
persistent pool attaches once per arena and every later chunk is a
dictionary hit.

Determinism: the arena only changes *where arrays live*, never their
values. Reconstructed traces compare equal element-for-element with
the originals (``tests/test_exec_arena.py``), so arena-backed runs are
bit-identical to pickled dispatch — enforced alongside the
serial == thread == process identity in ``tests/test_exec_parallel.py``.

Integrity: :meth:`TraceArena._open` validates the whole segment before
any view is handed out — magic, declared header length against the
file size, a CRC32 of the pickled header, the format version, and the
declared data-region length. Every violation (including an injected
``corrupt_arena`` fault) raises a typed
:class:`~repro.errors.ArenaIntegrityError`, which arena call sites
catch to fall back to pickled dispatch: a stale, truncated or
bit-rotted segment costs throughput, never correctness.
"""

from __future__ import annotations

import atexit
import mmap
import os
import pickle
import struct
import tempfile
import threading
import time
import zlib
from collections import OrderedDict
from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import ArenaIntegrityError
from repro.exec import faults
from repro.obs.metrics import METRICS
from repro.obs import tracer

#: File magic identifying an arena segment.
MAGIC = b"RPRARENA"

#: Arena format version; bumped on any layout change.
#: (2: header CRC32 + declared data length in the header.)
VERSION = 2

#: Bytes between the magic and the header blob: ``<Q`` header length
#: plus ``<I`` CRC32 of the header blob.
_PREFIX_LEN = 8 + 4

#: Data-region offsets are rounded up to this alignment so numpy views
#: of any dtype the repo uses (float64/int64) are naturally aligned.
_ALIGN = 16

#: How many arenas one process keeps attached at once. Workers in a
#: persistent pool typically see one arena per pipeline stage; a small
#: bound keeps long sweeps from accumulating mappings.
_ATTACH_CACHE_SIZE = 4

_ATTACHED: OrderedDict[str, "TraceArena"] = OrderedDict()
_ATTACH_LOCK = threading.Lock()

#: Paths built (and therefore owned) by this process, unlinked atexit.
_OWNED_PATHS: set[str] = set()


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class TraceArena:
    """A read-only, memory-mapped package of a trace corpus.

    Build once in the parent with :meth:`build`; ship ``arena.handle``
    (a path string) to workers; workers call :meth:`attach` and read
    back zero-copy views via :meth:`trace`, :meth:`array` and
    :meth:`object`.
    """

    def __init__(self, path: str, mm: mmap.mmap, header: dict,
                 owner: bool) -> None:
        self._path = path
        self._mm = mm
        self._header = header
        self._owner = owner
        self._closed = False
        self._workload_cache: dict[tuple[int, int], object] = {}

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, traces: Sequence = (),
              objects: Mapping[str, object] | None = None,
              arrays: Mapping[str, np.ndarray] | None = None,
              machine: object | None = None) -> "TraceArena":
        """Pack a corpus into a new memory-mapped arena file.

        ``traces`` are :class:`~repro.workloads.generator.TraceSpec`
        instances (their applications are deduplicated); ``arrays`` are
        named bulk matrices shipped to the data region; ``objects`` are
        arbitrary picklable shared state stored once in the header.
        Raises the underlying pickling error when an object cannot be
        serialised — callers treat that as "no arena" and fall back to
        plain dispatch.
        """
        with tracer.span("arena.build", traces=len(traces)) as sp:
            arena = cls._build(traces, objects, arrays, machine)
            sp.set(bytes=len(arena._mm))
            return arena

    @classmethod
    def _build(cls, traces: Sequence,
               objects: Mapping[str, object] | None,
               arrays: Mapping[str, np.ndarray] | None,
               machine: object | None) -> "TraceArena":
        start = time.perf_counter()
        apps: list = []
        app_index: dict[int, int] = {}
        trace_rows: list[tuple] = []
        data_parts: list[tuple[int, bytes]] = []  # (offset, raw bytes)
        offset = 0

        def _append(buf: np.ndarray) -> int:
            nonlocal offset
            offset = _aligned(offset)
            at = offset
            raw = np.ascontiguousarray(buf).tobytes()
            data_parts.append((at, raw))
            offset += len(raw)
            return at

        for trace in traces:
            app = trace.workload.app
            idx = app_index.get(id(app))
            if idx is None:
                idx = len(apps)
                app_index[id(app)] = idx
                apps.append(app)
            seq = np.ascontiguousarray(trace.phase_seq, dtype=np.int64)
            trace_rows.append((
                idx,
                trace.workload.input_id,
                trace.trace_id,
                trace.interval_instructions,
                trace.seed,
                _append(seq),
                int(seq.shape[0]),
            ))

        array_rows: dict[str, tuple[str, tuple, int]] = {}
        for name, arr in (arrays or {}).items():
            arr = np.ascontiguousarray(arr)
            array_rows[name] = (arr.dtype.str, arr.shape, _append(arr))

        header = {
            "version": VERSION,
            "apps": apps,
            "traces": trace_rows,
            "arrays": array_rows,
            "objects": dict(objects or {}),
            "machine": machine,
            "data_len": offset,
        }
        header_blob = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
        prefix_len = len(MAGIC) + _PREFIX_LEN
        data_start = _aligned(prefix_len + len(header_blob))

        fd, path = tempfile.mkstemp(prefix="repro-arena-", suffix=".bin")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(MAGIC)
                fh.write(struct.pack("<Q", len(header_blob)))
                fh.write(struct.pack("<I", zlib.crc32(header_blob)))
                fh.write(header_blob)
                fh.write(b"\x00" * (data_start - prefix_len
                                    - len(header_blob)))
                for at, raw in data_parts:
                    fh.seek(data_start + at)
                    fh.write(raw)
                if not data_parts:
                    # mmap refuses zero-length maps; keep one pad byte.
                    fh.write(b"\x00")
        except BaseException:
            os.unlink(path)
            raise
        _OWNED_PATHS.add(path)

        arena = cls._open(path, owner=True)
        with _ATTACH_LOCK:
            _cache_put(path, arena)
        total = data_start + offset
        METRICS.incr("arena.builds")
        METRICS.incr("arena.bytes", total)
        METRICS.add_time("arena_build", time.perf_counter() - start)
        return arena

    @classmethod
    def _open(cls, path: str, owner: bool) -> "TraceArena":
        """Map and fully validate a segment, or raise
        :class:`~repro.errors.ArenaIntegrityError`."""
        try:
            with open(path, "rb") as fh:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise ArenaIntegrityError(
                f"arena {path} cannot be mapped: {exc}"
            ) from exc
        prefix_len = len(MAGIC) + _PREFIX_LEN
        try:
            if len(mm) < prefix_len:
                raise ArenaIntegrityError(
                    f"arena {path} is truncated ({len(mm)} bytes, "
                    f"need at least {prefix_len})"
                )
            if mm[:len(MAGIC)] != MAGIC:
                raise ArenaIntegrityError(
                    f"{path} is not an arena segment (bad magic)"
                )
            (header_len,) = struct.unpack_from("<Q", mm, len(MAGIC))
            (header_crc,) = struct.unpack_from("<I", mm, len(MAGIC) + 8)
            if prefix_len + header_len > len(mm):
                raise ArenaIntegrityError(
                    f"arena {path} declares a {header_len}-byte header "
                    f"but holds only {len(mm)} bytes"
                )
            header_blob = mm[prefix_len:prefix_len + header_len]
            if zlib.crc32(header_blob) != header_crc:
                raise ArenaIntegrityError(
                    f"arena {path} failed its header checksum"
                )
            try:
                header = pickle.loads(header_blob)
            except Exception as exc:
                raise ArenaIntegrityError(
                    f"arena {path} header does not unpickle: {exc}"
                ) from exc
            if header.get("version") != VERSION:
                raise ArenaIntegrityError(
                    f"arena {path} has version {header.get('version')}, "
                    f"expected {VERSION}"
                )
            data_start = _aligned(prefix_len + header_len)
            if data_start + header.get("data_len", 0) > len(mm):
                raise ArenaIntegrityError(
                    f"arena {path} data region is truncated"
                )
            header["_data_start"] = data_start
        except ArenaIntegrityError:
            mm.close()
            raise
        return cls(path, mm, header, owner)

    @classmethod
    def attach(cls, handle: str) -> "TraceArena":
        """Attach to an arena by handle, memoised per process.

        Raises :class:`~repro.errors.ArenaIntegrityError` when the
        segment fails validation (or an injected ``corrupt_arena``
        fault fires); callers fall back to pickled dispatch.
        """
        if faults.should_inject("corrupt_arena", handle):
            raise ArenaIntegrityError(
                f"injected arena corruption attaching {handle}"
            )
        with _ATTACH_LOCK:
            arena = _ATTACHED.get(handle)
            if arena is not None and not arena._closed:
                _ATTACHED.move_to_end(handle)
                METRICS.incr("arena.attach_hit")
                return arena
        start = time.perf_counter()
        arena = cls._open(handle, owner=False)
        with _ATTACH_LOCK:
            _cache_put(handle, arena)
        METRICS.incr("arena.attach_miss")
        METRICS.add_time("arena_attach", time.perf_counter() - start)
        return arena

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------
    @property
    def handle(self) -> str:
        """The shippable identity of this arena (its file path)."""
        return self._path

    @property
    def n_traces(self) -> int:
        return len(self._header["traces"])

    @property
    def machine(self):
        return self._header["machine"]

    def _view(self, dtype: str, shape: tuple, offset: int) -> np.ndarray:
        dt = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        view = np.frombuffer(self._mm, dtype=dt, count=count,
                             offset=self._header["_data_start"] + offset)
        return view.reshape(shape)

    def trace(self, index: int):
        """Reconstruct trace ``index`` with a zero-copy phase-seq view."""
        from repro.workloads.generator import TraceSpec, WorkloadSpec

        (app_idx, input_id, trace_id, interval_instructions, seed,
         offset, n_intervals) = self._header["traces"][index]
        key = (app_idx, input_id)
        workload = self._workload_cache.get(key)
        if workload is None:
            workload = WorkloadSpec(app=self._header["apps"][app_idx],
                                    input_id=input_id)
            self._workload_cache[key] = workload
        return TraceSpec(
            workload=workload,
            trace_id=trace_id,
            phase_seq=self._view("<i8", (n_intervals,), offset),
            interval_instructions=interval_instructions,
            seed=seed,
        )

    def traces(self, indices: Sequence[int] | None = None) -> list:
        """Reconstruct several traces (all of them by default)."""
        if indices is None:
            indices = range(self.n_traces)
        return [self.trace(i) for i in indices]

    def array(self, name: str) -> np.ndarray:
        """Zero-copy read-only view of a named bulk array."""
        dtype, shape, offset = self._header["arrays"][name]
        return self._view(dtype, shape, offset)

    def object(self, name: str):
        """A shared object stored once in the header."""
        return self._header["objects"][name]

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach; the building process also unlinks the backing file.

        Any still-exported numpy views keep their pages alive until
        they are garbage collected (the mapping itself cannot be torn
        down under them), so closing with live views is safe — the
        file name disappears, the memory follows the views.
        """
        if self._closed:
            return
        self._closed = True
        with _ATTACH_LOCK:
            if _ATTACHED.get(self._path) is self:
                del _ATTACHED[self._path]
        try:
            self._mm.close()
        except BufferError:
            pass  # live views export the buffer; GC will finish the job
        if self._owner:
            _OWNED_PATHS.discard(self._path)
            try:
                os.unlink(self._path)
            except OSError:
                pass

    def __enter__(self) -> "TraceArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _detach(arena: TraceArena) -> None:
    """Drop a non-owner attachment's mapping (owners close themselves)."""
    arena._closed = True
    try:
        arena._mm.close()
    except BufferError:
        pass


def _cache_put(handle: str, arena: TraceArena) -> None:
    """Insert into the attach LRU; caller holds ``_ATTACH_LOCK``.

    Attachments whose backing file is gone first leave the cache: the
    owner closed that arena, so no task will ask for it again, and
    keeping it would pin its header objects (a collector with a full
    interval LRU) in this process until newer attachments push it out.
    """
    for path, stale in list(_ATTACHED.items()):
        if not stale._owner and not os.path.exists(path):
            del _ATTACHED[path]
            _detach(stale)
    _ATTACHED[handle] = arena
    _ATTACHED.move_to_end(handle)
    while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
        _, evicted = _ATTACHED.popitem(last=False)
        if not evicted._owner:  # owners stay open until close()
            _detach(evicted)


def detach_all() -> None:
    """Drop every memoised attachment (tests, worker teardown)."""
    with _ATTACH_LOCK:
        arenas = list(_ATTACHED.values())
        _ATTACHED.clear()
    for arena in arenas:
        if not arena._owner:
            _detach(arena)


@atexit.register
def _cleanup_owned() -> None:
    for path in list(_OWNED_PATHS):
        try:
            os.unlink(path)
        except OSError:
            pass
    _OWNED_PATHS.clear()
