"""The closed-loop adaptive CPU.

Ties together every subsystem of Figure 1: the two-cluster core
(simulated), the telemetry system (counter snapshots each interval),
and the microcontroller-hosted adaptation models (a
:class:`~repro.core.predictor.DualModePredictor`). Each run deploys a
trained predictor on one trace and produces everything the evaluation
needs: the mode schedule, achieved IPC and energy, the all-high-
performance baseline, and prediction/ground-truth pairs for PGOS/RSV.
"""

from __future__ import annotations

import dataclasses
import functools
import pickle

import numpy as np

from repro.config import (DEFAULT_SLA, MachineConfig, SLAConfig,
                          active_exec_config)
from repro.core.gating import GatingController
from repro.core.labels import LabelSet, gating_labels
from repro.core.predictor import DualModePredictor
from repro.errors import ArenaIntegrityError, DatasetError
from repro.exec.arena import TraceArena
from repro.exec.parallel import ParallelMap, default_parallel_map
from repro.obs import METRICS, tracer
from repro.telemetry.collector import TelemetryCollector, coarsen
from repro.uarch.modes import Mode
from repro.uarch.power import MODE_SWITCH_ENERGY_NJ, PowerModel
from repro.workloads.generator import TraceSpec


@dataclasses.dataclass(frozen=True)
class AdaptiveRunResult:
    """Outcome of deploying a predictor on one trace."""

    trace_name: str
    app_name: str
    workload_name: str
    predictor_name: str
    granularity: int
    modes: np.ndarray  # (T,) chosen per interval, 1 = low power
    predictions: np.ndarray  # (T - horizon,) gating decisions applied
    labels: np.ndarray  # (T - horizon,) oracle labels for the same slots
    ipc: np.ndarray  # (T,) achieved IPC
    cycles: np.ndarray  # (T,) achieved cycles (incl. switch costs)
    cycles_baseline: np.ndarray  # (T,) all-high-performance cycles
    energy_j: float
    energy_baseline_j: float
    switch_count: int

    @property
    def n_intervals(self) -> int:
        return int(self.modes.shape[0])

    @property
    def residency(self) -> float:
        """Fraction of runtime intervals spent in low-power mode."""
        return float(self.modes.mean())

    @property
    def ppw_gain(self) -> float:
        """Performance-per-watt gain over the non-adaptive baseline.

        Equal work means PPW (instructions/joule) gain reduces to the
        baseline-to-adaptive energy ratio.
        """
        return self.energy_baseline_j / self.energy_j - 1.0

    @property
    def avg_performance(self) -> float:
        """Aggregate IPC relative to always-high-performance."""
        return float(self.cycles_baseline.sum() / self.cycles.sum())

def _arena_prepare_chunk(handle: str, indices: list[int]):
    """Worker-side prepare: attach to the arena, rebuild, prepare.

    Module-level so process pools can pickle it; the task payload is
    just ``(handle, indices)`` — the traces, the CPU (predictor,
    collector, machine) and the power model all travel once via the
    arena instead of once per chunk.
    """
    arena = TraceArena.attach(handle)
    cpu = arena.object("cpu")
    return cpu._prepare_chunk([arena.trace(i) for i in indices])


@dataclasses.dataclass(frozen=True)
class _PreparedRun:
    """Everything one closed-loop run needs except the predictions.

    The per-trace unit of the batched ``run_many`` path: preparation
    (simulation, telemetry, labels, energy) fans out across workers,
    while inference over the concatenated feature windows happens once
    per (mode, model) in the parent.
    """

    trace: TraceSpec
    features: dict[Mode, np.ndarray]  # (t_count, C) per telemetry mode
    labels: LabelSet
    t_count: int
    energy_by_mode: dict[Mode, np.ndarray]  # (t_count,) joules


class AdaptiveCPU:
    """Closed-loop deployment of a dual-mode predictor."""

    def __init__(self, predictor: DualModePredictor,
                 collector: TelemetryCollector | None = None,
                 power: PowerModel | None = None,
                 machine: MachineConfig | None = None,
                 sla: SLAConfig = DEFAULT_SLA,
                 horizon: int = 2) -> None:
        self.predictor = predictor
        self.collector = collector or TelemetryCollector()
        self.machine = machine or MachineConfig()
        self.power = power or PowerModel(self.machine)
        self.sla = sla
        self.controller = GatingController(predictor, self.machine,
                                           horizon=horizon)
        self.horizon = horizon
        self._resident_arena: TraceArena | None = None
        self._resident_index: dict[int, int] = {}
        self._resident_memo: dict[int, _PreparedRun] = {}

    def __getstate__(self) -> dict:
        """Drop the resident corpus state from pickled copies.

        The CPU itself travels inside arena segments and process-pool
        payloads; an open mmap handle is unpicklable and meaningless in
        a worker (workers attach by handle string instead), and the
        prepared-run memo is daemon-local.
        """
        state = self.__dict__.copy()
        state["_resident_arena"] = None
        state["_resident_index"] = {}
        state["_resident_memo"] = {}
        return state

    # ------------------------------------------------------------------
    # Daemon-lifetime resident arena (repro.serve).
    # ------------------------------------------------------------------
    def install_resident_arena(self, traces: list[TraceSpec],
                               share: bool = True) -> TraceArena | None:
        """Make ``traces`` this CPU's daemon-lifetime resident corpus.

        A serving daemon answers thousands of small batches over the
        *same* corpus. ``run_many`` memoises the prepared run of each
        resident trace (see :meth:`_prepare_many`), and with ``share``
        the corpus (and this CPU) is packed once into a long-lived
        :class:`TraceArena`, so process-backend fan-outs ship only
        arena indices. Returns the arena, or ``None`` when ``share``
        is off or the corpus holds unpicklable collaborators (fan-outs
        then package per call; the memo works either way). The caller
        owns the lifetime: :meth:`close_resident_arena` on shutdown.
        """
        self.close_resident_arena()
        self._resident_index = {id(t): i for i, t in enumerate(traces)}
        if not share:
            return None
        try:
            arena = TraceArena.build(traces, objects={"cpu": self},
                                     machine=self.machine)
        except (pickle.PicklingError, AttributeError, TypeError):
            METRICS.incr("arena.build_fallback")
            return None
        self._resident_arena = arena
        return arena

    def close_resident_arena(self) -> None:
        """Unmap the resident arena and forget the resident corpus and
        its prepared-run memo (idempotent)."""
        if self._resident_arena is not None:
            self._resident_arena.close()
        self._resident_arena = None
        self._resident_index = {}
        self._resident_memo.clear()
        METRICS.gauge_set("adaptive_prepare.resident_entries", 0)

    def _prepare(self, trace: TraceSpec) -> _PreparedRun:
        """Simulation, telemetry, labels and energy for one trace."""
        factor = self.predictor.granularity_factor
        results = self.collector.model.simulate_both(trace)

        # Telemetry the models would observe in each mode, coarsened to
        # the predictor's gating granularity.
        snaps = {}
        for mode in Mode:
            snap = self.collector.snapshot(trace, mode,
                                           self.predictor.counter_ids,
                                           result=results[mode])
            snaps[mode] = coarsen(snap, factor) if factor > 1 else snap

        labels = gating_labels(trace, self.sla, self.collector.model,
                               factor, results=results)
        t_count = min(labels.n_intervals,
                      *(s.n_intervals for s in snaps.values()))
        if t_count <= self.horizon:
            raise DatasetError(
                f"trace {trace.name} too short at granularity {factor}"
            )

        # Energy: per-base-interval energies of each mode, coarsened
        # to the gating granularity.
        energy_by_mode = {}
        for mode in Mode:
            per_interval = self.power.interval_energy_j(results[mode])
            t_full = t_count * factor
            energy_by_mode[mode] = per_interval[:t_full].reshape(
                t_count, factor).sum(axis=1)

        return _PreparedRun(
            trace=trace,
            features={mode: snaps[mode].normalized[:t_count]
                      for mode in Mode},
            labels=labels,
            t_count=t_count,
            energy_by_mode=energy_by_mode,
        )

    def _prepare_chunk(self, traces: list[TraceSpec]) -> list[_PreparedRun]:
        """Prepare a whole chunk: stacked simulation, then per-trace."""
        self.collector.model.simulate_batch(traces)
        return [self._prepare(trace) for trace in traces]

    def _finalize(self, prep: _PreparedRun,
                  probs: dict[Mode, np.ndarray]) -> AdaptiveRunResult:
        """Schedule modes from predictions and account the outcome."""
        trace = prep.trace
        labels = prep.labels
        t_count = prep.t_count
        modes, switch_cycles, switch_counts = self.controller.schedule(
            probs, trace.seed)

        gated = modes.astype(bool)
        cycles = np.where(gated, labels.cycles_low[:t_count],
                          labels.cycles_high[:t_count]) + switch_cycles
        inst = labels.granularity
        ipc = inst / cycles

        energy = np.where(gated, prep.energy_by_mode[Mode.LOW_POWER],
                          prep.energy_by_mode[Mode.HIGH_PERF])
        energy = energy + switch_counts * MODE_SWITCH_ENERGY_NJ * 1e-9
        # Switch cycles also burn static power in the active mode.
        switch_time = switch_cycles / (self.machine.frequency_ghz * 1e9)
        static_w = np.where(
            gated, self.power.static_power_w(Mode.LOW_POWER),
            self.power.static_power_w(Mode.HIGH_PERF))
        energy = energy + switch_time * static_w

        baseline_cycles = labels.cycles_high[:t_count]
        baseline_energy = float(prep.energy_by_mode[Mode.HIGH_PERF].sum())

        return AdaptiveRunResult(
            trace_name=trace.name,
            app_name=trace.app.name,
            workload_name=trace.workload.name,
            predictor_name=self.predictor.name,
            granularity=inst,
            modes=modes,
            predictions=modes[self.horizon:t_count],
            labels=labels.labels[self.horizon:t_count],
            ipc=ipc,
            cycles=cycles,
            cycles_baseline=baseline_cycles,
            energy_j=float(energy.sum()),
            energy_baseline_j=baseline_energy,
            switch_count=int(switch_counts.sum()),
        )

    def run(self, trace: TraceSpec) -> AdaptiveRunResult:
        """Deploy the predictor on one trace and account the outcome."""
        prep = self._prepare(trace)
        probs = {
            mode: self.predictor.predict_proba(prep.features[mode], mode)
            for mode in Mode
        }
        return self._finalize(prep, probs)

    def run_many(self, traces: list[TraceSpec],
                 pmap: ParallelMap | None = None,
                 ) -> list[AdaptiveRunResult]:
        """Deploy on a whole trace corpus.

        ``pmap`` selects the execution backend (default: the
        process-wide :func:`~repro.exec.parallel.default_parallel_map`,
        i.e. serial unless configured otherwise). Traces are
        independent and internally seeded, so every backend returns
        bit-identical results in trace order.

        Per-trace preparation fans out in whole chunks (stacked
        interval simulation per chunk; process backends ship the
        corpus once via a :class:`~repro.exec.arena.TraceArena` when
        ``REPRO_EXEC_ARENA=1``) and inference runs as one
        ``predict_proba`` call per distinct *model* over the feature
        windows of the *entire corpus* — all modes sharing an
        estimator are scored in a single concatenated call. The
        inference batch is independent of backend and chunking, so
        every backend stays bit-identical. Subclasses that override
        :meth:`run` keep their per-trace semantics and skip the
        batched path.

        ``REPRO_EXEC_SHARD`` caps how many traces are prepared and
        scored at once: above the cap the corpus streams shard-by-
        shard, so the parent never holds more than one shard of
        feature windows plus the accumulated (small) results.
        Inference is row-wise and finalisation per-trace, so sharded
        runs stay bit-identical to unsharded ones.
        """
        pmap = pmap if pmap is not None else default_parallel_map()
        if type(self).run is not AdaptiveCPU.run:
            return pmap.map(self.run, traces, stage="adaptive_run")
        shard = active_exec_config().shard
        if shard is not None and len(traces) > shard:
            n_shards = -(-len(traces) // shard)
            out: list[AdaptiveRunResult] = []
            for si in range(n_shards):
                sub = traces[si * shard:(si + 1) * shard]
                with tracer.span("deploy.shard", shard=si,
                                 shards=n_shards, traces=len(sub)):
                    out.extend(self._run_many_batch(sub, pmap))
                METRICS.incr("adaptive_run.shards")
            return out
        return self._run_many_batch(traces, pmap)

    def _run_many_batch(self, traces: list[TraceSpec],
                        pmap: ParallelMap) -> list[AdaptiveRunResult]:
        """One prepare → infer → finalize pass over (a shard of) traces."""
        with tracer.span("deploy.prepare", traces=len(traces)):
            preps = self._prepare_many(traces, pmap)
        if not preps:
            return []
        with METRICS.stage("adaptive_infer"), \
                tracer.span("deploy.infer", traces=len(preps)):
            bounds = np.cumsum([0] + [prep.t_count for prep in preps])
            probs_by_mode = self._infer_many(preps)
        with METRICS.stage("adaptive_finalize"), \
                tracer.span("deploy.finalize", traces=len(preps)):
            out = []
            for p, prep in enumerate(preps):
                lo, hi = int(bounds[p]), int(bounds[p + 1])
                probs = {mode: probs_by_mode[mode][lo:hi] for mode in Mode}
                out.append(self._finalize(prep, probs))
        return out

    def _prepare_many(self, traces: list[TraceSpec],
                      pmap: ParallelMap) -> list[_PreparedRun]:
        """Prepared runs for ``traces``, from the resident memo when
        it holds them.

        A prepared run depends only on the trace, the counter set and
        the granularity, so each resident-corpus trace is prepared
        once and then served from the memo, bit-identically: a repeat
        adapt costs inference plus finalize. The memo fills lazily and
        holds at most one entry per resident trace. Everything else is
        prepared afresh by :meth:`_prepare_fresh`.
        """
        if not self._resident_index:
            return self._prepare_fresh(traces, pmap)
        memo = self._resident_memo
        keys = [self._resident_index.get(id(t)) for t in traces]
        # One snapshot, so a concurrent close cannot misalign hits.
        cached = [None if k is None else memo.get(k) for k in keys]
        resident = sum(k is not None for k in keys)
        hits = sum(p is not None for p in cached)
        METRICS.incr("adaptive_prepare.resident_hit", hits)
        METRICS.incr("adaptive_prepare.resident_miss", resident - hits)
        missing = [t for t, p in zip(traces, cached) if p is None]
        fresh = iter(self._prepare_fresh(missing, pmap) if missing else ())
        out = []
        for key, prep in zip(keys, cached):
            if prep is None:
                prep = next(fresh)
                if key is not None:
                    memo[key] = prep
            out.append(prep)
        if hits < resident:
            METRICS.gauge_set("adaptive_prepare.resident_entries",
                              len(memo))
        return out

    def _prepare_fresh(self, traces: list[TraceSpec],
                       pmap: ParallelMap) -> list[_PreparedRun]:
        """Fan preparation out, via the trace arena when it pays.

        The arena is built only when dispatch will actually cross a
        process boundary (``REPRO_EXEC_ARENA=1`` and a process/auto
        backend on a multi-item corpus): workers then receive
        ``(handle, indices)`` and attach to the shared mapping instead
        of unpickling the CPU and traces per chunk. Any failure to
        package (an unpicklable collaborator) falls back to the plain
        per-chunk path, which has its own serial fallback — results
        are bit-identical either way.
        """
        arena = None
        if (self._resident_arena is not None
                and pmap.uses_processes(len(traces), "adaptive_prepare")):
            indices = [self._resident_index.get(id(t)) for t in traces]
            if all(i is not None for i in indices):
                # Serving hot path: the daemon's corpus already lives in
                # the resident arena, so fan out bare indices — no
                # per-request arena build or teardown.
                METRICS.incr("arena.resident_reuse")
                fn = functools.partial(_arena_prepare_chunk,
                                       self._resident_arena.handle)
                try:
                    return pmap.map_chunks(fn, indices,
                                           stage="adaptive_prepare")
                except ArenaIntegrityError:
                    METRICS.incr("arena.attach_fallback")
                    return pmap.map_chunks(self._prepare_chunk, traces,
                                           stage="adaptive_prepare")
        if (active_exec_config().arena and len(traces) > 1
                and pmap.uses_processes(len(traces), "adaptive_prepare")):
            try:
                arena = TraceArena.build(
                    traces, objects={"cpu": self}, machine=self.machine)
            except (pickle.PicklingError, AttributeError, TypeError):
                METRICS.incr("arena.build_fallback")
        if arena is None:
            return pmap.map_chunks(self._prepare_chunk, traces,
                                   stage="adaptive_prepare")
        try:
            fn = functools.partial(_arena_prepare_chunk, arena.handle)
            return pmap.map_chunks(fn, range(len(traces)),
                                   stage="adaptive_prepare")
        except ArenaIntegrityError:
            # A worker found the segment corrupt (or an injected
            # corrupt_arena fault fired): re-run via pickled dispatch,
            # which is bit-identical, just slower.
            METRICS.incr("arena.attach_fallback")
            return pmap.map_chunks(self._prepare_chunk, traces,
                                   stage="adaptive_prepare")
        finally:
            arena.close()

    def _infer_many(self, preps: list[_PreparedRun],
                    ) -> dict[Mode, np.ndarray]:
        """One ``predict_proba`` per distinct *model* over all modes.

        Modes that share an estimator (single-model predictors, Table-6
        blends reusing a forest) are concatenated into one feature
        block and scored in a single call; modes with their own model
        keep one call each. Row-wise inference is order-independent,
        so slicing the stacked result back out is bit-identical to
        per-mode calls.
        """
        probs_by_mode: dict[Mode, np.ndarray] = {}
        groups: dict[int, list[Mode]] = {}
        for mode in Mode:
            key = id(self.predictor.model_for(mode))
            groups.setdefault(key, []).append(mode)
        for modes in groups.values():
            blocks = [
                np.concatenate([prep.features[mode] for prep in preps],
                               axis=0)
                for mode in modes
            ]
            METRICS.incr("adaptive_infer.model_calls")
            if len(modes) == 1:
                METRICS.observe("adaptive_infer.batch_rows",
                                   blocks[0].shape[0])
                probs_by_mode[modes[0]] = self.predictor.predict_proba(
                    blocks[0], modes[0])
                continue
            stacked = np.concatenate(blocks, axis=0)
            METRICS.observe("adaptive_infer.batch_rows",
                               stacked.shape[0])
            probs = self.predictor.predict_proba(stacked, modes[0])
            rows = blocks[0].shape[0]
            for k, mode in enumerate(modes):
                probs_by_mode[mode] = probs[k * rows:(k + 1) * rows]
        return probs_by_mode
