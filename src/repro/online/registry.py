"""Generation-stamped model registry with atomic hot-swap.

The actor/learner split's rendezvous point: the serving executors
(actors) resolve the current :class:`ModelEntry` exactly once per
request, the background learner pushes a promoted candidate in with
:meth:`ModelRegistry.swap`, and the generation fence between them is
what makes swaps invisible to in-flight work:

* an executor snapshots ``(generation, cpu)`` when a request starts
  and runs it against that immutable entry — a swap landing
  mid-request changes nothing the request can observe, so its response
  stays digest-identical to a direct call on the model it started with;
* :meth:`swap` replaces the current entry under the lock in one
  assignment — the next request's snapshot atomically sees generation
  N+1. No pause, no drain, no request ever waits on a swap.

Compatibility gate: the daemon's resident
:class:`~repro.exec.arena.TraceArena` pickles the *founding* CPU, and
worker-side preparation reads exactly two predictor properties from it
— ``counter_ids`` and ``granularity_factor`` (everything else about
preparation is predictor-independent; inference runs parent-side on
the entry's own predictor). A candidate that changed either would
silently desynchronize prepared telemetry from inference, so
:meth:`swap` rejects it with a typed
:class:`~repro.errors.SwapGateError` before any state changes.

Swapped-in CPUs share the founder's collector (interval model + its
warm LRU, and the SimCache), power/machine/SLA models, the
resident arena and the resident prepared-run memo, which bakes in the
same two properties — a swap is pointer surgery plus one
``AdaptiveCPU`` construction, not a rebuild of daemon state.
"""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np

from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.predictor import DualModePredictor
from repro.errors import SwapGateError
from repro.obs.metrics import METRICS


@dataclasses.dataclass(frozen=True)
class ModelEntry:
    """One immutable (generation, model) pair.

    Executors hold an entry for the lifetime of a request; the frozen
    dataclass makes "the model a request started with" a value, not a
    mutable reference.
    """

    generation: int
    cpu: AdaptiveCPU
    tag: str


class ModelRegistry:
    """Holds the serving model; swaps between requests."""

    def __init__(self, cpu: AdaptiveCPU, generation: int = 0,
                 tag: str = "incumbent") -> None:
        self._lock = threading.Lock()
        # The founder owns the resident arena; swapped-in CPUs borrow
        # its mapping (see shadow_cpu) and never close it.
        self._founder = cpu
        self._current = ModelEntry(generation=generation, cpu=cpu,
                                   tag=tag)
        self.swaps = 0
        self.last_swap_latency_s: float | None = None
        self.last_swap_tag: str | None = None

    # ------------------------------------------------------------------
    def current(self) -> ModelEntry:
        """The serving entry — call once per request, use throughout."""
        with self._lock:
            return self._current

    @property
    def generation(self) -> int:
        with self._lock:
            return self._current.generation

    @property
    def cpu(self) -> AdaptiveCPU:
        with self._lock:
            return self._current.cpu

    # ------------------------------------------------------------------
    def validate(self, predictor: DualModePredictor) -> None:
        """Raise :class:`SwapGateError` unless ``predictor`` is
        hot-swap compatible with the current entry."""
        incumbent = self.current().cpu.predictor
        if not np.array_equal(np.asarray(predictor.counter_ids),
                              np.asarray(incumbent.counter_ids)):
            raise SwapGateError(
                f"candidate {predictor.name!r} changes the counter set "
                f"({list(np.asarray(predictor.counter_ids))} vs "
                f"{list(np.asarray(incumbent.counter_ids))}); the "
                f"resident arena's prepared telemetry would no longer "
                f"match inference"
            )
        if predictor.granularity_factor != incumbent.granularity_factor:
            raise SwapGateError(
                f"candidate {predictor.name!r} changes the gating "
                f"granularity ({predictor.granularity_factor} vs "
                f"{incumbent.granularity_factor})"
            )

    def shadow_cpu(self, predictor: DualModePredictor) -> AdaptiveCPU:
        """An :class:`AdaptiveCPU` for ``predictor`` sharing every
        piece of warm daemon state except the predictor itself.

        Used both for shadow evaluation (score a candidate on recent
        traces without touching the serving entry) and as the CPU a
        promotion installs. The founder's resident arena, index and
        prepared-run memo are borrowed by reference: preparation fans
        out through the shared mapping and repeat traces come from the
        shared memo, and since a prepared run only bakes in
        ``counter_ids`` + ``granularity_factor`` (validated above),
        prepared telemetry is correct for any compatible predictor.
        """
        self.validate(predictor)
        base = self._founder
        cpu = AdaptiveCPU(predictor, collector=base.collector,
                          power=base.power, machine=base.machine,
                          sla=base.sla, horizon=base.horizon)
        cpu._resident_arena = base._resident_arena
        cpu._resident_index = base._resident_index
        cpu._resident_memo = base._resident_memo
        return cpu

    def swap(self, predictor: DualModePredictor,
             tag: str = "candidate") -> ModelEntry:
        """Install ``predictor`` as generation N+1; returns the entry.

        Validation happens before any state changes; the installation
        itself is one locked assignment, so concurrent ``current()``
        snapshots see either the old entry or the new one, never a
        mixture.
        """
        start = time.perf_counter()
        cpu = self.shadow_cpu(predictor)
        with self._lock:
            entry = ModelEntry(
                generation=self._current.generation + 1,
                cpu=cpu, tag=tag)
            self._current = entry
            self.swaps += 1
            self.last_swap_latency_s = time.perf_counter() - start
            self.last_swap_tag = tag
        METRICS.incr("online.swaps")
        METRICS.observe("online.swap_latency_s",
                        self.last_swap_latency_s)
        return entry

    def close(self) -> None:
        """Release the founder's resident arena (idempotent).

        Borrower CPUs drop their references too so nothing dangles on
        a closed mapping.
        """
        with self._lock:
            current = self._current.cpu
        self._founder.close_resident_arena()
        if current is not self._founder:
            current._resident_arena = None
            current._resident_index = {}
            current._resident_memo = {}

    def snapshot(self) -> dict:
        """Health-op projection of the registry's state."""
        with self._lock:
            entry = self._current
            return {
                "generation": entry.generation,
                "tag": entry.tag,
                "predictor": entry.cpu.predictor.name,
                "swaps": self.swaps,
                "last_swap_latency_ms":
                    None if self.last_swap_latency_s is None
                    else round(self.last_swap_latency_s * 1e3, 3),
            }


__all__ = ["ModelEntry", "ModelRegistry"]
