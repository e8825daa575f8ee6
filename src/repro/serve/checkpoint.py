"""Warm-state checkpointing for the serving daemon.

A cold daemon start pays corpus synthesis plus predictor training
before it can answer its first request. Under process supervision
that bill is paid on *every* crash — exactly when fast recovery
matters most. This module serializes the daemon's expensive warm
state once at startup so a supervised restart loads it back in
milliseconds:

* the trace corpus (``list[TraceSpec]``),
* the trained :class:`~repro.core.predictor.DualModePredictor` inside
  its :class:`~repro.core.adaptive_cpu.AdaptiveCPU` (resident arena
  and interval-LRU drop out via the existing ``__getstate__`` hooks —
  both are rebuilt on load and can never change results).

File format: ``magic | version | CRC32(payload) | payload-length |
pickle payload``, written atomically (tmp + rename). Every load
validates magic, version, length, CRC and the embedded **corpus
fingerprint** — a digest of everything that shapes the corpus and
predictor — against what the restarting daemon was asked to serve.
Any mismatch raises a typed :class:`~repro.errors.CheckpointError`
and the daemon falls back to a cold build: a bad checkpoint costs
startup time, never correctness.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import struct
import time
import zlib

from repro.errors import CheckpointError

#: File magic for repro serve checkpoints.
MAGIC = b"RSCK"

#: Bump whenever the payload layout (or anything pickled into it)
#: changes incompatibly. 2: the pickled ``AdaptiveCPU`` carries a
#: resident prepared-run memo slot.
CHECKPOINT_VERSION = 2

#: magic(4s) | version(>I) | crc32(>I) | payload length(>Q)
_HEADER = struct.Struct(">4sIIQ")


def corpus_fingerprint(predictor_kind: str, n_apps: int,
                       workloads_per_app: int, intervals: int,
                       seed: int) -> str:
    """Digest of every input that shapes the daemon's warm state.

    The corpus is a pure function of (shape, seed) and the predictor
    of (kind, corpus), so two daemons with equal fingerprints serve
    bit-identical state — the invariant that makes restoring a
    checkpoint indistinguishable from a cold build.
    """
    token = (f"v{CHECKPOINT_VERSION}/{predictor_kind}/{n_apps}/"
             f"{workloads_per_app}/{intervals}/{seed}")
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def save_checkpoint(path: str, cpu, traces: list,
                    fingerprint: str, generation: int = 0) -> dict:
    """Atomically write the daemon's warm state to ``path``.

    Returns ``{"path", "bytes", "elapsed_s"}`` for the daemon's
    startup log / health op. Raises :class:`CheckpointError` when the
    state cannot be pickled (exotic predictor collaborators) — the
    daemon then simply runs without fast-restart.

    ``generation`` is the model-registry generation of ``cpu``: 0 for
    cold builds, N after the continual loop's Nth promotion (the
    server rewrites the checkpoint at each promotion so supervised
    restarts resume warm on the promoted model, not the founder).
    """
    start = time.perf_counter()
    payload_obj = {
        "fingerprint": fingerprint,
        "created": time.time(),
        "cpu": cpu,
        "traces": list(traces),
        "generation": int(generation),
    }
    try:
        buf = io.BytesIO()
        pickle.dump(payload_obj, buf, protocol=pickle.HIGHEST_PROTOCOL)
        payload = buf.getvalue()
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise CheckpointError(
            f"serve state is not checkpointable: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    header = _HEADER.pack(MAGIC, CHECKPOINT_VERSION,
                          zlib.crc32(payload), len(payload))
    tmp = f"{path}.tmp.{os.getpid()}"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return {
        "path": path,
        "bytes": _HEADER.size + len(payload),
        "elapsed_s": round(time.perf_counter() - start, 6),
    }


def load_checkpoint(path: str, fingerprint: str) -> dict:
    """Validate and load a checkpoint written by :func:`save_checkpoint`.

    Returns ``{"cpu", "traces", "created", "age_s", "generation"}``.
    Raises :class:`CheckpointError` on a
    missing file, bad magic/version, truncation, CRC mismatch or a
    fingerprint that does not match the requested corpus.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint at {path!r}")
    with open(path, "rb") as fh:
        raw_header = fh.read(_HEADER.size)
        if len(raw_header) != _HEADER.size:
            raise CheckpointError(
                f"checkpoint {path!r} truncated in header "
                f"({len(raw_header)} of {_HEADER.size} bytes)"
            )
        magic, version, crc, length = _HEADER.unpack(raw_header)
        if magic != MAGIC:
            raise CheckpointError(
                f"checkpoint {path!r} has bad magic {magic!r}"
            )
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} is version {version}, this "
                f"build reads {CHECKPOINT_VERSION}"
            )
        payload = fh.read(length)
    if len(payload) != length:
        raise CheckpointError(
            f"checkpoint {path!r} truncated in payload "
            f"({len(payload)} of {length} bytes)"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointError(
            f"checkpoint {path!r} failed its CRC32 check"
        )
    try:
        obj = pickle.loads(payload)
    except Exception as exc:  # corrupt-but-CRC-valid is hostile input
        raise CheckpointError(
            f"checkpoint {path!r} payload does not unpickle: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    if obj.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path!r} fingerprint "
            f"{obj.get('fingerprint')!r} does not match requested "
            f"corpus {fingerprint!r}"
        )
    created = float(obj.get("created", 0.0))
    return {
        "cpu": obj["cpu"],
        "traces": obj["traces"],
        "created": created,
        "age_s": round(max(time.time() - created, 0.0), 3),
        # ``.get``: checkpoints written before the continual loop
        # carry no generation and load as generation 0.
        "generation": int(obj.get("generation", 0)),
    }


__all__ = ["CHECKPOINT_VERSION", "MAGIC", "corpus_fingerprint",
           "load_checkpoint", "save_checkpoint"]
