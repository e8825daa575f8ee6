"""Continual adaptation: drift detection, retraining, hot-swap.

The serving daemon (``repro.serve``) answers adaptation queries from a
fixed predictor; this package closes the loop for long-lived
deployments where the served workload mix drifts away from what that
predictor was trained on:

* :mod:`repro.online.ringbuf` — bounded, sampled telemetry ring the
  daemon's executors feed with served-request outcomes;
* :mod:`repro.online.drift` — windowed population-stability and
  accuracy-proxy checks over the ring, emitting typed
  :class:`DriftSignal` events;
* :mod:`repro.online.learner` — the background control loop: retrain
  on drift, shadow-evaluate against the incumbent, promote only
  candidates that are no worse on both PPW and RSV;
* :mod:`repro.online.registry` — the generation-stamped model registry
  whose atomic swap (under the per-request generation fence) makes
  a promotion invisible to in-flight requests.

Everything here is thread-safe and usable standalone; the serving
integration lives in ``repro.serve.server`` behind the
``REPRO_ONLINE`` knob.
"""

from repro.online.drift import (DriftDetector, DriftSignal,
                                population_stability_index)
from repro.online.learner import OnlineLearner, ShadowVerdict
from repro.online.registry import ModelEntry, ModelRegistry
from repro.online.ringbuf import (OP_ADAPT, OP_DECIDE, RING_DTYPE,
                                  TelemetryRing)

__all__ = [
    "DriftDetector",
    "DriftSignal",
    "ModelEntry",
    "ModelRegistry",
    "OP_ADAPT",
    "OP_DECIDE",
    "OnlineLearner",
    "RING_DTYPE",
    "ShadowVerdict",
    "TelemetryRing",
    "population_stability_index",
]
