"""Adaptation-as-a-service: the persistent serving daemon.

Everything the paper's pipeline computes per invocation —
corpus synthesis, predictor training, worker-pool spin-up, arena
packing — is paid once here, at daemon startup; requests then ride
the resident state. See :mod:`repro.serve.server` for the request
lifecycle, :mod:`repro.serve.protocol` for the wire format, and
:mod:`repro.serve.supervisor` / :mod:`repro.serve.checkpoint` for the
failure-containment and fast-restart layers.
"""

from repro.serve.admission import (DrainTracker, TenantLedger,
                                   busy_response, retry_after_ms)
from repro.serve.api import (SCHEMA_VERSION, AdaptRequest, AdaptResponse,
                             DecideRequest, DecideResponse, HealthStatus,
                             parse_request)
from repro.serve.checkpoint import (corpus_fingerprint, load_checkpoint,
                                    save_checkpoint)
from repro.serve.client import ServeClient, wait_until_ready
from repro.serve.protocol import MAX_FRAME_BYTES, OPS
from repro.serve.protocol import adapt_payload, decide_payload
from repro.serve.protocol import decode_frame, encode_frame
from repro.serve.protocol import recv_frame, send_frame
from repro.serve.server import (AdaptationServer, DAEMON_CRASH_EXIT,
                                build_server, const_predictor,
                                quick_forest_predictor, serving_corpus)
from repro.serve.supervisor import (BREAKER_MODES, ExecutionWatchdog,
                                    InflightTable, ServeCircuitBreaker,
                                    run_supervised)

__all__ = [
    "AdaptRequest",
    "AdaptResponse",
    "AdaptationServer",
    "BREAKER_MODES",
    "DAEMON_CRASH_EXIT",
    "DecideRequest",
    "DecideResponse",
    "DrainTracker",
    "ExecutionWatchdog",
    "HealthStatus",
    "InflightTable",
    "MAX_FRAME_BYTES",
    "OPS",
    "SCHEMA_VERSION",
    "ServeCircuitBreaker",
    "ServeClient",
    "TenantLedger",
    "adapt_payload",
    "build_server",
    "busy_response",
    "const_predictor",
    "corpus_fingerprint",
    "decide_payload",
    "decode_frame",
    "encode_frame",
    "load_checkpoint",
    "parse_request",
    "quick_forest_predictor",
    "recv_frame",
    "retry_after_ms",
    "run_supervised",
    "save_checkpoint",
    "send_frame",
    "serving_corpus",
    "wait_until_ready",
]
