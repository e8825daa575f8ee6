"""``repro.obs`` — zero-dependency observability.

Three pieces, all stdlib-only and importable from anywhere in the
package (``repro.obs`` never imports ``repro.exec``; the execution
engine imports *us*):

* :mod:`repro.obs.metrics` — the process-wide :data:`METRICS`
  registry (counters, gauges, histograms, stage timings); worker-side
  observations ship back through chunk-result sidecars and merge here.
* :mod:`repro.obs.tracer` — hierarchical :func:`trace`/:func:`span`
  context managers writing a structured JSON trace file per run,
  gated by ``REPRO_TRACE`` with a no-op singleton fast path when off.
* :mod:`repro.obs.report` — :func:`render_report`, the ``--obs-report``
  text (per-stage wall time, items/s, cache hit ratios, payload
  bytes, resilience events, inference batch shapes).
* :mod:`repro.obs.export` — :func:`to_chrome_trace`, converting the
  tracer's JSON into Chrome ``about:tracing`` / Perfetto format
  (``repro obs export-trace`` on the CLI).
"""

from repro.obs import tracer
from repro.obs.export import from_chrome_trace, to_chrome_trace
from repro.obs.metrics import METRICS, HistogramStat, Metrics, StageStat
from repro.obs.report import render_report
from repro.obs.tracer import (
    DEFAULT_TRACE_PATH,
    OBS_SCHEMA_VERSION,
    Span,
    span,
    trace,
    validate_trace,
)

__all__ = [
    "DEFAULT_TRACE_PATH",
    "METRICS",
    "OBS_SCHEMA_VERSION",
    "HistogramStat",
    "Metrics",
    "Span",
    "StageStat",
    "from_chrome_trace",
    "render_report",
    "span",
    "to_chrome_trace",
    "trace",
    "tracer",
    "validate_trace",
]
