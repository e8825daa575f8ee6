"""Wire protocol for the adaptation-serving daemon (schema 3).

A frame is::

    >I body length | >I header length | JSON header | tensor section

The compact UTF-8 JSON header holds every field except the
:data:`TENSOR_FIELDS` — a ``decide`` request's ``window`` (rows x
counter width) and its response's ``probs`` — which ride in the
8-byte-aligned section as raw little-endian float64, indexed in the
header as ``"tensors": [[name, shape, offset], ...]``.
:func:`decode_frame` returns them as read-only float64 arrays viewing
the received bytes. Raw float64 is exact (NaN payloads, signed zeros,
subnormals and infinities included) and ``json`` emits
shortest-round-trip header floats, so the daemon's answers stay
bit-identical to direct in-process
:class:`~repro.core.adaptive_cpu.AdaptiveCPU` calls.

Request shapes (tensors shown inline)::

    {"op": "ping"}
    {"op": "stats"}
    {"op": "health"}
    {"op": "shutdown"}
    {"op": "adapt",  "trace_index": 3, "tenant": "t0", "key": "c1-7"}
    {"op": "decide", "mode": "low_power", "window": <float64 (rows, C)>,
     "tenant": "t1"}

``key`` is an optional client-chosen idempotency key for the
inference ops: the daemon deduplicates — a retried or hedged request
whose original already executed (or is executing) returns the
original's payload instead of running twice.

Responses carry ``{"ok": true, ...}`` or a typed error
``{"ok": false, "error": "<kind>", ...}`` — ``busy`` is the admission
-control shed response and includes ``queue_depth`` plus a computed
``retry_after_ms`` hint. A body that does not decode (a schema-2
frame, a header or tensor past the body) raises
:class:`~repro.errors.ProtocolError`; the daemon answers it with a
typed ``bad_request`` on a connection that stays open.

Fault injection: :func:`send_frame` accepts an optional ``fault_key``
naming the send site. When a :class:`~repro.exec.faults.FaultPlan` is
active, the serve-site kinds fire there — ``conn_drop`` (abrupt
close, no response), ``corrupt_frame`` (first body byte overwritten
with 0xFF, so the header length runs past the body and the peer's
decode deterministically fails), ``slow_peer`` (partial frame, stall,
rest). Calls without a ``fault_key`` (clients, tests) are never
injected.
"""

from __future__ import annotations

import hashlib
import json
import math
import socket
import struct
import time
from collections.abc import Callable

import numpy as np

from repro.errors import ProtocolError
from repro.exec import faults

#: Known request operations, in dispatch order.
OPS = ("ping", "stats", "health", "adapt", "decide", "shutdown")

#: Message fields carried in the tensor section as float64 arrays.
TENSOR_FIELDS = ("window", "probs")

#: Hard bound on one frame's body. Large enough for a full mode
#: schedule response or a multi-thousand-row telemetry window, small
#: enough that a corrupt length prefix cannot make the reader attempt
#: a gigabyte allocation.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")
_F8 = np.dtype("<f8")


def encode_frame(obj: dict) -> bytes:
    """One wire frame for ``obj``; :data:`TENSOR_FIELDS` values
    (arrays or rows) ship as float64 tensors, and one that is not
    rectangular and numeric raises :class:`ProtocolError`."""
    header = dict(obj)
    specs: list[list] = []
    tensors: list[np.ndarray] = []
    offset = 0
    for name in TENSOR_FIELDS:
        if name not in header:
            continue
        try:
            array = np.ascontiguousarray(header.pop(name), dtype=_F8)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(
                f"field {name!r} is not a rectangular float array: {exc}"
            ) from exc
        specs.append([name, list(array.shape), offset])
        tensors.append(array)
        offset += array.nbytes
    if specs:
        header["tensors"] = specs
    text = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if tensors:
        # Pad with JSON whitespace so the tensor section starts 8-byte
        # aligned in the frame.
        text += b" " * (-len(text) % 8)
    length = _LEN.size + len(text) + offset
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return b"".join([_LEN.pack(length), _LEN.pack(len(text)), text,
                     *tensors])


def send_frame(sock: socket.socket, obj: dict,
               fault_key: str | None = None) -> None:
    """Write one frame to a connected socket.

    ``fault_key`` names this send as an injectable fault site (the
    daemon passes ``serve.send/<op>``); ``None`` sends cleanly always.
    """
    frame = encode_frame(obj)
    plan = faults.active_plan() if fault_key is not None else None
    if plan is not None:
        if faults.should_inject("conn_drop", f"{fault_key}/conn_drop"):
            # The peer sees EOF mid-exchange, exactly like a daemon
            # losing the connection after executing the request.
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
            raise OSError(f"injected conn_drop at {fault_key}")
        if faults.should_inject("corrupt_frame",
                                f"{fault_key}/corrupt_frame"):
            # 0xFF as the header length's high byte puts the header
            # far past the body, so the peer's decode always fails
            # with a typed ProtocolError — never a silently-valid
            # mutated message.
            frame = frame[:_LEN.size] + b"\xff" + frame[_LEN.size + 1:]
            sock.sendall(frame)
            return
        if faults.should_inject("slow_peer", f"{fault_key}/slow_peer"):
            # Stall with a partial frame on the wire: the peer's
            # reader must reassemble split frames (and a hedging
            # client may beat the stall on a second connection).
            sock.sendall(frame[:3])
            time.sleep(plan.hang_s)
            sock.sendall(frame[3:])
            return
    sock.sendall(frame)


def _recv_exact(read: Callable[[int], bytes], n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame start."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = read(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} "
                f"bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_body(read: Callable[[int], bytes]) -> bytes | None:
    """One frame's undecoded body via ``read`` (a socket's ``recv`` or
    a buffered file's ``read``); ``None`` on a clean close. A framing
    :class:`ProtocolError` leaves the stream out of sync."""
    prefix = _recv_exact(read, _LEN.size)
    if prefix is None:
        return None
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    body = _recv_exact(read, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    return body


def _undecodable(detail: str) -> ProtocolError:
    return ProtocolError(f"undecodable frame body: {detail}")


def _tensor_spec(spec: object) -> tuple[str, tuple[int, ...], int]:
    """Validated ``(name, shape, offset)`` of one header tensor entry."""
    def count(v: object) -> bool:
        return type(v) is int and v >= 0

    if (not isinstance(spec, list) or len(spec) != 3
            or spec[0] not in TENSOR_FIELDS
            or not isinstance(spec[1], list)
            or not all(count(d) for d in spec[1])
            or not count(spec[2])):
        raise _undecodable(
            f"bad tensor spec {spec!r}; expected [name, shape, offset] "
            f"with name in {list(TENSOR_FIELDS)}")
    return spec[0], tuple(spec[1]), spec[2]


def decode_frame(body: bytes) -> dict:
    """The message in one frame body (see the module docstring)."""
    if len(body) < _LEN.size:
        raise _undecodable(f"{len(body)}-byte body has no header length")
    (header_len,) = _LEN.unpack_from(body)
    start = _LEN.size + header_len
    if start > len(body):
        hint = ("; a schema-2 JSON frame? this peer speaks schema 3"
                if body[:1] == b"{" else "")
        raise _undecodable(f"header length {header_len} runs past the "
                           f"{len(body)}-byte body{hint}")
    try:
        obj = json.loads(body[_LEN.size:start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _undecodable(str(exc)) from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame header must be a JSON object, got {type(obj).__name__}"
        )
    specs = obj.pop("tensors", [])
    if not isinstance(specs, list):
        raise _undecodable(f"tensor index must be a list, got {specs!r}")
    section = len(body) - start
    for spec in specs:
        name, shape, offset = _tensor_spec(spec)
        n = math.prod(shape)
        if offset + n * _F8.itemsize > section:
            raise _undecodable(
                f"tensor {name!r} of shape {list(shape)} at offset "
                f"{offset} runs past the {section}-byte tensor section")
        obj[name] = np.frombuffer(body, dtype=_F8, count=n,
                                  offset=start + offset).reshape(shape)
    return obj


def recv_frame(sock: socket.socket) -> dict | None:
    """Read and decode one frame; ``None`` when the peer closed cleanly."""
    body = recv_body(sock.recv)
    return None if body is None else decode_frame(body)


# ---------------------------------------------------------------------
# Payload builders. The server and the bit-identity checks share these,
# so "daemon response == direct AdaptiveCPU call" is a comparison of
# two dicts produced by the same projection — any numeric divergence
# between the daemon path and the direct path shows up.
# ---------------------------------------------------------------------
def _digest(*arrays: np.ndarray) -> str:
    """SHA-256 over the raw bytes of the given arrays, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def adapt_payload(result) -> dict:
    """Wire projection of one ``AdaptiveRunResult``.

    Scalars ride as exact round-trip floats, the mode schedule as an
    int list (the decision the firmware would apply), and every dense
    array folds into one SHA-256 digest — so two payloads are equal
    iff the runs were bit-identical, without shipping megabytes.
    """
    return {
        "trace": result.trace_name,
        "app": result.app_name,
        "predictor": result.predictor_name,
        "granularity": int(result.granularity),
        "n_intervals": int(result.n_intervals),
        "modes": [int(m) for m in result.modes],
        "residency": float(result.residency),
        "ppw_gain": float(result.ppw_gain),
        "avg_performance": float(result.avg_performance),
        "energy_j": float(result.energy_j),
        "energy_baseline_j": float(result.energy_baseline_j),
        "switch_count": int(result.switch_count),
        "digest": _digest(result.modes, result.predictions,
                          result.labels, result.ipc, result.cycles,
                          result.cycles_baseline),
    }


def decide_payload(probs: np.ndarray, threshold: float) -> dict:
    """Wire projection of one gating-probability window.

    ``probs`` stays a float64 array (it ships as a tensor); the
    decisions are a JSON int list.
    """
    probs = np.asarray(probs, dtype=np.float64)
    return {
        "probs": probs,
        "decisions": (probs >= threshold).astype(np.int64).tolist(),
        "digest": _digest(probs),
    }
