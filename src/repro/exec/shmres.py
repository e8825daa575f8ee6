"""Shared-memory result return for process-backend fan-outs.

The :class:`~repro.exec.arena.TraceArena` (PR 3) closed the *input*
half of the zero-copy story: corpora ship to workers as one mmap
segment and task payloads shrink to ``(handle, indices)``. Results,
however, still came home fully pickled — on dataset-scale builds the
feature blocks, simulation tensors and prediction arrays inside each
chunk result dominated the bytes crossing the IPC boundary.

This module closes the output half. Workers write every large ndarray
in a chunk's results into a per-chunk memory-mapped *result segment*
and ship only the pickled skeleton, in which each hoisted array is
replaced by a ``(offset, dtype, shape, nbytes, crc32)`` descriptor
(:func:`encode`). The parent maps the segment read-only, validates it
— magic, version, declared length against the file size, per-block
bounds and CRC32, mirroring arena format v2 — reconstructs zero-copy
``np.frombuffer`` views, and unlinks the file immediately
(:func:`decode`): POSIX keeps the pages alive exactly as long as the
views are, so the happy path needs no reclamation registry at all.

Segment format::

    [magic "RPRSHMRS" | <I version | <Q used bytes | 64-byte-aligned
     blocks ...]

Lifecycle and fault safety:

* Each pool dispatch opens one *call spool* directory
  (:func:`open_call_spool`); workers ``mkstemp`` their segments inside
  it. Decoded segments are unlinked eagerly; whatever remains when the
  dispatch ends — segments orphaned by crashed, hung or degraded
  workers — is swept (and counted under ``shmres.reclaimed``) by
  :func:`close_call_spool`, and the whole spool root goes ``atexit``.
* A segment that fails validation (or an injected ``corrupt_result``
  fault) raises a typed
  :class:`~repro.errors.ResultIntegrityError`; the dispatcher
  quarantines shared-memory return for the rest of that call and
  retries the pending chunks over plain pickled results — bit-identical,
  just slower.
* ``REPRO_EXEC_SHMRES=0`` is the kill-switch restoring fully pickled
  returns everywhere.

Determinism: hoisting only changes *where result arrays live*, never
their values — the views compare equal element-for-element with the
arrays the worker produced, so shm-return runs are bit-identical to
pickled ones (enforced in ``tests/test_exec_parallel.py``). Thread
and serial execution never encode (there is no IPC boundary to cross);
only process-pool workers do.
"""

from __future__ import annotations

import atexit
import dataclasses
import io
import mmap
import os
import pickle
import shutil
import struct
import tempfile
import threading
import zlib

import numpy as np

from repro.config import active_exec_config
from repro.errors import ResultIntegrityError
from repro.exec import faults
from repro.obs.metrics import METRICS

#: File magic identifying a result segment.
MAGIC = b"RPRSHMRS"

#: Result-segment format version; bumped on any layout change.
VERSION = 1

#: Fixed header: magic, ``<I`` version, ``<Q`` used-bytes.
_HEADER_LEN = len(MAGIC) + 4 + 8

#: Offset of the ``<Q`` used-bytes field (patched at finish time).
_USED_OFF = len(MAGIC) + 4

#: Block offsets are rounded up to this alignment (a cache line), so
#: views of any dtype the repo uses are naturally aligned.
_ALIGN = 64

#: Arrays smaller than this ride the pickle stream unchanged — below
#: it a descriptor costs about as many bytes as the array itself.
MIN_BLOCK_BYTES = 128

#: Initial segment preallocation; grown by doubling as blocks land.
_INITIAL_CAPACITY = 1 << 20

#: Tag marking this module's persistent-id descriptors.
_PID_TAG = "repro.shmres"

_SPOOL_LOCK = threading.Lock()
_SPOOL_ROOT: str | None = None


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def enabled(backend: str) -> bool:
    """Whether dispatch on ``backend`` should use result segments.

    Only the process backend crosses an IPC boundary; thread and
    serial execution return results by reference and never encode.
    """
    return backend == "process" and active_exec_config().shmres


@dataclasses.dataclass(frozen=True)
class ShmChunk:
    """What one chunk's results become on the wire.

    ``blob`` is the pickled result skeleton (descriptors inline via
    persistent ids); ``handle`` is the segment file path. This object
    — not the arrays — is what the pool pickles back to the parent.
    """

    handle: str
    blob: bytes
    n_blocks: int
    seg_bytes: int

    @property
    def ipc_bytes(self) -> int:
        """Approximate bytes this result costs on the IPC channel."""
        return len(self.blob) + len(self.handle.encode())


# ---------------------------------------------------------------------
# Worker side: encode.
# ---------------------------------------------------------------------
class _SegmentWriter:
    """One preallocated mmap-backed segment, append-only."""

    def __init__(self, spool: str) -> None:
        fd, path = tempfile.mkstemp(prefix="seg-", suffix=".shm",
                                    dir=spool)
        self.path = path
        self.n_blocks = 0
        self._fd = fd
        self._cap = _INITIAL_CAPACITY
        os.ftruncate(fd, self._cap)
        self._mm = mmap.mmap(fd, self._cap)
        self._mm[:len(MAGIC)] = MAGIC
        struct.pack_into("<I", self._mm, len(MAGIC), VERSION)
        self._used = _aligned(_HEADER_LEN)

    def put(self, arr: np.ndarray) -> tuple:
        """Append one contiguous array; return its descriptor tuple."""
        raw = arr.tobytes()
        at = _aligned(self._used)
        end = at + len(raw)
        if end > self._cap:
            new_cap = max(end, self._cap * 2)
            os.ftruncate(self._fd, new_cap)
            self._mm.resize(new_cap)
            self._cap = new_cap
        self._mm[at:end] = raw
        self._used = end
        self.n_blocks += 1
        return (at, arr.dtype.str, arr.shape, len(raw), zlib.crc32(raw))

    def finish(self) -> int:
        """Seal the segment: stamp used-bytes, trim the slack."""
        used = self._used
        struct.pack_into("<Q", self._mm, _USED_OFF, used)
        self._mm.flush()
        self._mm.close()
        os.ftruncate(self._fd, used)
        os.close(self._fd)
        return used

    def abort(self) -> None:
        """Discard a half-written segment (encode failed midway)."""
        try:
            self._mm.close()
        except (BufferError, ValueError):
            pass
        try:
            os.close(self._fd)
        except OSError:
            pass
        try:
            os.unlink(self.path)
        except OSError:
            pass


class _HoistingPickler(pickle.Pickler):
    """Pickler that diverts large ndarrays into a result segment.

    The segment is created lazily on the first qualifying array, so a
    chunk of small results never touches the filesystem.
    """

    def __init__(self, file, spool: str) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._spool = spool
        self.writer: _SegmentWriter | None = None

    def persistent_id(self, obj):
        if (type(obj) is np.ndarray and obj.nbytes >= MIN_BLOCK_BYTES
                and not obj.dtype.hasobject and obj.dtype.kind != "V"):
            if self.writer is None:
                self.writer = _SegmentWriter(self._spool)
            ref = self.writer.put(np.ascontiguousarray(obj))
            return (_PID_TAG, VERSION) + ref
        return None


def encode(results, spool: str):
    """Worker-side: hoist large result arrays into a segment.

    Returns a :class:`ShmChunk` when at least one array was hoisted,
    else ``results`` unchanged (nothing crossed the threshold — let
    the pool pickle them as before). Pickling errors propagate like
    any task error; a half-written segment is discarded first.
    """
    buf = io.BytesIO()
    pickler = _HoistingPickler(buf, spool)
    try:
        pickler.dump(results)
    except Exception:
        if pickler.writer is not None:
            pickler.writer.abort()
        raise
    if pickler.writer is None:
        return results
    seg_bytes = pickler.writer.finish()
    METRICS.incr("shmres.segments")
    METRICS.incr("shmres.segment_bytes", seg_bytes)
    return ShmChunk(handle=pickler.writer.path, blob=buf.getvalue(),
                    n_blocks=pickler.writer.n_blocks,
                    seg_bytes=seg_bytes)


# ---------------------------------------------------------------------
# Parent side: decode.
# ---------------------------------------------------------------------
class _SegmentReader:
    """Map and validate one result segment; serve zero-copy views."""

    def __init__(self, handle: str) -> None:
        self._handle = handle
        try:
            with open(handle, "rb") as fh:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise ResultIntegrityError(
                f"result segment {handle} cannot be mapped: {exc}"
            ) from exc
        self._mm = mm
        try:
            if len(mm) < _HEADER_LEN:
                raise ResultIntegrityError(
                    f"result segment {handle} is truncated "
                    f"({len(mm)} bytes, need at least {_HEADER_LEN})"
                )
            if mm[:len(MAGIC)] != MAGIC:
                raise ResultIntegrityError(
                    f"{handle} is not a result segment (bad magic)"
                )
            (version,) = struct.unpack_from("<I", mm, len(MAGIC))
            if version != VERSION:
                raise ResultIntegrityError(
                    f"result segment {handle} has version {version}, "
                    f"expected {VERSION}"
                )
            (used,) = struct.unpack_from("<Q", mm, _USED_OFF)
            if used > len(mm):
                raise ResultIntegrityError(
                    f"result segment {handle} declares {used} used "
                    f"bytes but holds only {len(mm)}"
                )
            self._used = used
        except ResultIntegrityError:
            mm.close()
            raise

    def load(self, ref: tuple) -> np.ndarray:
        offset, dtype, shape, nbytes, crc = ref
        if offset < _HEADER_LEN or offset + nbytes > self._used:
            raise ResultIntegrityError(
                f"result block [{offset}, {offset + nbytes}) is out of "
                f"bounds in segment {self._handle} ({self._used} bytes)"
            )
        raw = memoryview(self._mm)[offset:offset + nbytes]
        if zlib.crc32(raw) != crc:
            raise ResultIntegrityError(
                f"result block at offset {offset} in segment "
                f"{self._handle} failed its checksum"
            )
        dt = np.dtype(dtype)
        view = np.frombuffer(self._mm, dtype=dt,
                             count=nbytes // dt.itemsize, offset=offset)
        return view.reshape(shape)


class _HoistedUnpickler(pickle.Unpickler):
    def __init__(self, file, reader: _SegmentReader) -> None:
        super().__init__(file)
        self._reader = reader

    def persistent_load(self, pid):
        if (not isinstance(pid, tuple) or len(pid) != 7
                or pid[0] != _PID_TAG):
            raise ResultIntegrityError(
                f"unrecognised persistent reference {pid!r}"
            )
        if pid[1] != VERSION:
            raise ResultIntegrityError(
                f"result descriptor has version {pid[1]}, "
                f"expected {VERSION}"
            )
        return self._reader.load(pid[2:])


def _unlink(handle: str) -> None:
    try:
        os.unlink(handle)
    except OSError:
        pass


def decode(payload, stage: str | None = None):
    """Parent-side: resolve a :class:`ShmChunk` back into results.

    Non-:class:`ShmChunk` payloads pass through unchanged (pickled
    returns, thread/serial results). The segment file is unlinked
    before returning — success or failure — so a decoded dispatch
    leaves nothing behind; the mapped pages stay alive as long as the
    returned views do. Any validation failure (or an injected
    ``corrupt_result`` fault) raises
    :class:`~repro.errors.ResultIntegrityError`.
    """
    if not isinstance(payload, ShmChunk):
        return payload
    if faults.should_inject("corrupt_result", payload.handle):
        _unlink(payload.handle)
        raise ResultIntegrityError(
            f"injected result-segment corruption reading "
            f"{payload.handle} (stage {stage!r})"
        )
    try:
        reader = _SegmentReader(payload.handle)
        try:
            results = _HoistedUnpickler(io.BytesIO(payload.blob),
                                        reader).load()
        except ResultIntegrityError:
            raise
        except Exception as exc:
            raise ResultIntegrityError(
                f"result blob for segment {payload.handle} does not "
                f"unpickle: {exc}"
            ) from exc
    finally:
        _unlink(payload.handle)
    METRICS.incr("shmres.decodes")
    return results


def record_result_sample(stage: str, payload) -> None:
    """Record the IPC size of one representative chunk result.

    ``<stage>.result_bytes / <stage>.result_tasks`` then reads as
    bytes returned per task — the output-side twin of the arena's
    ``payload_bytes`` sampling. For pickled payloads the size is
    measured by re-pickling once per call (same cost model as
    :meth:`ParallelMap._sample_payload`).
    """
    if isinstance(payload, ShmChunk):
        nbytes = payload.ipc_bytes
    else:
        try:
            nbytes = len(pickle.dumps(payload,
                                      protocol=pickle.HIGHEST_PROTOCOL))
        except Exception:
            return
    METRICS.incr(f"{stage}.result_bytes", nbytes)
    METRICS.incr(f"{stage}.result_tasks", 1)


# ---------------------------------------------------------------------
# Spool lifecycle.
# ---------------------------------------------------------------------
def _spool_root() -> str:
    global _SPOOL_ROOT
    with _SPOOL_LOCK:
        if _SPOOL_ROOT is None or not os.path.isdir(_SPOOL_ROOT):
            _SPOOL_ROOT = tempfile.mkdtemp(prefix="repro-shmres-")
        return _SPOOL_ROOT


def open_call_spool() -> str:
    """A fresh per-dispatch directory for workers' result segments."""
    return tempfile.mkdtemp(prefix="call-", dir=_spool_root())


def close_call_spool(spool: str | None) -> int:
    """Sweep one dispatch's spool directory; returns orphans reclaimed.

    Decoded segments were unlinked eagerly, so anything still present
    was written by a worker that crashed, hung past its timeout, or
    was abandoned when the dispatch degraded — counted under
    ``shmres.reclaimed``.
    """
    if spool is None:
        return 0
    try:
        orphans = len(os.listdir(spool))
    except OSError:
        return 0
    if orphans:
        METRICS.incr("shmres.reclaimed", orphans)
    shutil.rmtree(spool, ignore_errors=True)
    return orphans


@atexit.register
def _cleanup_spool() -> None:
    global _SPOOL_ROOT
    with _SPOOL_LOCK:
        root, _SPOOL_ROOT = _SPOOL_ROOT, None
    if root is not None:
        shutil.rmtree(root, ignore_errors=True)
