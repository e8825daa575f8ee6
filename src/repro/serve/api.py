"""Typed, versioned request/response schema for the serving protocol.

Frames are schema 3 (JSON header plus raw float64 tensors, see
:mod:`repro.serve.protocol`); what this module adds is a typed layer
over the frames for the two inference ops. Both sides build and
consume frozen dataclasses — the server parses every incoming
``adapt``/``decide`` frame into a request object at the dispatch edge
(:func:`parse_request`) and serialises a response object back out
(``to_wire``); everything between those edges (validation, admission,
the executors, dedup) handles typed values, not raw dicts.

Versioning: every typed frame carries ``schema_version``, and the
daemon speaks exactly :data:`SCHEMA_VERSION`. A frame without the field
or with any other version is rejected with a typed ``bad_request``, so
a client on another dialect fails loudly instead of having fields
silently dropped or defaulted.

Responses carry ``model_generation`` (the registry generation that
computed them — the observable face of the hot-swap fence), and
requests may carry generation constraints: ``min_generation`` (serve
only if the daemon has promoted at least this far — "I require the
retrained model") and ``pin_generation`` (serve only from exactly
this generation — reproducibility across a promotion window).
Constraint violations come back as ``stale_generation`` errors
carrying both sides of the comparison.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.errors import ProtocolError

#: The one schema generation this daemon speaks: typed frames with
#: model generations and float64 tensor sections.
SCHEMA_VERSION = 3


def _put_optional(frame: dict, obj, *fields: str) -> dict:
    """Copy non-``None`` attributes into the wire frame."""
    for field in fields:
        value = getattr(obj, field)
        if value is not None:
            frame[field] = value
    return frame


@dataclasses.dataclass(frozen=True)
class AdaptRequest:
    """One ``adapt`` query: full gated run of a resident corpus trace.

    Field values are carried as received — semantic validation
    (``trace_index`` in corpus range, generation constraints being
    ints) stays server-side, with one validation path and one set of
    error messages.
    """

    trace_index: int
    tenant: str = "default"
    budget_ms: float | None = None
    key: str | None = None
    min_generation: int | None = None
    pin_generation: int | None = None
    schema_version: int = SCHEMA_VERSION

    op = "adapt"

    def to_wire(self) -> dict:
        frame = {"op": "adapt", "schema_version": self.schema_version,
                 "tenant": self.tenant,
                 "trace_index": self.trace_index}
        return _put_optional(frame, self, "budget_ms", "key",
                             "min_generation", "pin_generation")

    @classmethod
    def from_wire(cls, frame: dict) -> "AdaptRequest":
        return cls(trace_index=frame.get("trace_index"),
                   tenant=str(frame.get("tenant", "default")),
                   budget_ms=frame.get("budget_ms"),
                   key=frame.get("key"),
                   min_generation=frame.get("min_generation"),
                   pin_generation=frame.get("pin_generation"),
                   schema_version=int(frame["schema_version"]))


@dataclasses.dataclass(frozen=True)
class DecideRequest:
    """One ``decide`` query: mode-switch inference over counter rows.

    ``window`` is the counter rows: an array or a list of rows going
    out (the codec ships it as a float64 tensor), the decoded float64
    array coming in. Shape validation (non-empty, 2-D, rows of
    counter-set width) is server-side, against the serving predictor.
    """

    mode: str
    window: Any
    tenant: str = "default"
    budget_ms: float | None = None
    key: str | None = None
    min_generation: int | None = None
    pin_generation: int | None = None
    schema_version: int = SCHEMA_VERSION

    op = "decide"

    def to_wire(self) -> dict:
        frame = {"op": "decide", "schema_version": self.schema_version,
                 "tenant": self.tenant, "mode": self.mode,
                 "window": self.window}
        return _put_optional(frame, self, "budget_ms", "key",
                             "min_generation", "pin_generation")

    @classmethod
    def from_wire(cls, frame: dict) -> "DecideRequest":
        return cls(mode=frame.get("mode"),
                   window=frame.get("window"),
                   tenant=str(frame.get("tenant", "default")),
                   budget_ms=frame.get("budget_ms"),
                   key=frame.get("key"),
                   min_generation=frame.get("min_generation"),
                   pin_generation=frame.get("pin_generation"),
                   schema_version=int(frame["schema_version"]))


@dataclasses.dataclass(frozen=True)
class AdaptResponse:
    """Answer to :class:`AdaptRequest`.

    ``result`` is the digest-bearing adaptation payload
    (:func:`repro.serve.protocol.adapt_payload` — bit-identity
    contract unchanged); ``model_generation`` the registry generation
    whose model computed it.
    """

    result: dict
    model_generation: int
    schema_version: int = SCHEMA_VERSION

    def to_wire(self) -> dict:
        return {"result": self.result,
                "model_generation": self.model_generation,
                "schema_version": self.schema_version}

    @classmethod
    def from_wire(cls, payload: dict) -> "AdaptResponse":
        return cls(result=payload["result"],
                   model_generation=int(payload["model_generation"]),
                   schema_version=int(payload["schema_version"]))


@dataclasses.dataclass(frozen=True)
class DecideResponse:
    """Answer to :class:`DecideRequest`.

    ``probs``/``decisions``/``digest`` keep the exact payload keys and
    values (:func:`repro.serve.protocol.decide_payload`);
    ``model_generation`` stamps the predictor generation that
    inferred them.
    """

    mode: str
    probs: list
    decisions: list
    digest: str
    model_generation: int
    schema_version: int = SCHEMA_VERSION

    def to_wire(self) -> dict:
        return {"mode": self.mode, "probs": self.probs,
                "decisions": self.decisions, "digest": self.digest,
                "model_generation": self.model_generation,
                "schema_version": self.schema_version}

    @classmethod
    def from_wire(cls, payload: dict) -> "DecideResponse":
        return cls(mode=payload["mode"], probs=payload["probs"],
                   decisions=payload["decisions"],
                   digest=payload["digest"],
                   model_generation=int(payload["model_generation"]),
                   schema_version=int(payload["schema_version"]))


@dataclasses.dataclass(frozen=True)
class HealthStatus:
    """Typed view of the ``health`` op's liveness/degradation surface.

    All pre-existing keys are preserved verbatim; schema 2 added
    ``model_generation`` (the serving registry generation) and
    ``online`` (ring occupancy, drift detector state, last shadow
    verdict — ``None`` when the daemon runs without the continual
    loop).
    """

    ready: bool
    uptime_s: float
    init_s: float
    requests: int
    queue_depth: dict
    drain_rps: dict
    breakers: dict
    watchdog: dict
    batch_timeout_s: float
    checkpoint: dict | None
    dedup_entries: int
    model_generation: int = 0
    online: dict | None = None
    schema_version: int = SCHEMA_VERSION

    def to_wire(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_wire(cls, payload: dict) -> "HealthStatus":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})


def parse_request(frame: dict) -> AdaptRequest | DecideRequest:
    """Typed request for an incoming inference-op frame.

    A frame whose ``schema_version`` is missing or not
    :data:`SCHEMA_VERSION` raises :class:`ProtocolError`, so the client
    gets a loud ``bad_request`` instead of silent field drops.
    """
    op = frame.get("op")
    if op not in ("adapt", "decide"):
        raise ProtocolError(f"op {op!r} has no typed request form")
    version = frame.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ProtocolError(
            f"unsupported schema_version {version!r}; this daemon "
            f"speaks version {SCHEMA_VERSION}"
        )
    if op == "adapt":
        return AdaptRequest.from_wire(frame)
    return DecideRequest.from_wire(frame)


__all__ = [
    "SCHEMA_VERSION",
    "AdaptRequest",
    "AdaptResponse",
    "DecideRequest",
    "DecideResponse",
    "HealthStatus",
    "parse_request",
]
