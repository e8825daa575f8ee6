"""Dataset builders.

Assemble supervised gating datasets from trace corpora exactly as the
paper does (Section 4.1): simulate each trace once in each mode, label
it once, snapshot and cycle-normalise telemetry per mode, coarsen to
the prediction granularity, and pair counters at interval ``t`` with
the gating label at interval ``t + 2`` — the one-interval gap covers
transmitting counters to the microcontroller and computing the
prediction (Figure 3).
"""

from __future__ import annotations

import functools
import pickle

import numpy as np

from repro import rng as rng_mod
from repro.config import (BASE_INTERVAL_INSTRUCTIONS, DEFAULT_SLA, SLAConfig,
                          active_exec_config)
from repro.core.labels import gating_labels
from repro.data.dataset import (
    DatasetAssembler,
    GatingDataset,
    RowNames,
    concat_datasets,
)
from repro.errors import ArenaIntegrityError, DatasetError
from repro.exec.arena import TraceArena
from repro.exec.parallel import ParallelMap, default_parallel_map
from repro.exec.simcache import SimCache
from repro.obs.metrics import METRICS
from repro.obs import tracer
from repro.telemetry.collector import TelemetryCollector, coarsen
from repro.uarch.interval_model import BUILD_BATCH_TRACES, pair_key
from repro.uarch.modes import Mode
from repro.workloads.categories import hdtr_corpus
from repro.workloads.generator import ApplicationSpec, TraceSpec
from repro.workloads.spec2017 import spec2017_traces

#: Prediction horizon in intervals: predict for t+2 from counters at t.
PREDICTION_HORIZON = 2


def _build_trace_parts(trace: TraceSpec, results: dict,
                       modes: tuple[Mode, ...], counter_ids: np.ndarray,
                       sla: SLAConfig, collector: TelemetryCollector,
                       simcache: SimCache | None, granularity_factor: int,
                       horizon: int) -> list[GatingDataset]:
    """One trace's slice of the supervised dataset, one part per mode.

    ``results`` holds the chunk's simulations, keyed by
    :func:`~repro.uarch.interval_model.pair_key`. The gating labels do
    not depend on the telemetry mode, so they are computed once and
    paired with each mode's snapshot, which ``simcache`` may serve.
    """
    both = {mode: results[pair_key(trace, mode)] for mode in Mode}
    labels = gating_labels(trace, sla, granularity_factor=granularity_factor,
                           results=both)
    parts = []
    for mode in modes:
        snap = collector.snapshot(trace, mode, counter_ids,
                                  result=both[mode], simcache=simcache)
        if granularity_factor > 1:
            snap = coarsen(snap, granularity_factor)
        t_count = min(snap.n_intervals, labels.n_intervals)
        if t_count <= horizon:
            raise DatasetError(
                f"trace {trace.name} too short for horizon {horizon} at "
                f"granularity factor {granularity_factor}"
            )
        x = snap.normalized[:t_count - horizon]
        y = labels.labels[horizon:t_count]
        parts.append(GatingDataset(
            x=x,
            y=y,
            names=RowNames.of_trace(x.shape[0], trace.name,
                                    trace.workload.name, trace.app.name),
            mode=mode,
            counter_ids=counter_ids,
            granularity=(BASE_INTERVAL_INSTRUCTIONS * granularity_factor),
            sla_floor=sla.performance_floor,
        ))
    return parts


def _build_trace_chunk(traces: list[TraceSpec], *, modes: tuple[Mode, ...],
                       counter_ids: np.ndarray, sla: SLAConfig,
                       collector: TelemetryCollector,
                       simcache: SimCache | None, granularity_factor: int,
                       horizon: int) -> list[list[GatingDataset]]:
    """Chunk unit of the build: stacked simulation, then parts.

    The chunk is simulated in stacked passes of
    :data:`~repro.uarch.interval_model.BUILD_BATCH_TRACES` traces over
    both modes (the labels need both, whichever modes are being
    built), so each (trace, mode) pair is simulated once. Each pass's
    results go straight to labelling and snapshotting and are dropped
    with the pass: the model's LRU serves hits but is not filled, since
    nothing re-reads a build's simulations.

    Returns one list of parts per trace, in ``modes`` order.
    """
    parts = []
    for i in range(0, len(traces), BUILD_BATCH_TRACES):
        sub = traces[i:i + BUILD_BATCH_TRACES]
        results = collector.model.simulate_batch(sub, remember=False)
        parts.extend(_build_trace_parts(trace, results, modes, counter_ids,
                                        sla, collector, simcache,
                                        granularity_factor, horizon)
                     for trace in sub)
    return parts


def _arena_build_chunk(handle: str, indices: list[int],
                       **knobs) -> list[list[GatingDataset]]:
    """Worker-side build: attach to the arena, rebuild, assemble.

    Module-level so process pools can pickle it; the collector (which
    drags the interval model and counter catalog) and the traces ride
    in the arena, so the per-task payload is ``(handle, indices)``
    plus the small scalar knobs in this partial.
    """
    arena = TraceArena.attach(handle)
    return _build_trace_chunk([arena.trace(i) for i in indices],
                              collector=arena.object("collector"), **knobs)


def build_mode_dataset(traces: list[TraceSpec], mode: Mode,
                       counter_ids: list[int] | np.ndarray,
                       sla: SLAConfig = DEFAULT_SLA,
                       collector: TelemetryCollector | None = None,
                       granularity_factor: int = 1,
                       horizon: int = PREDICTION_HORIZON,
                       pmap: ParallelMap | None = None,
                       simcache: SimCache | None = None) -> GatingDataset:
    """Build the supervised dataset for one telemetry mode.

    Features are telemetry observed while running in ``mode``; two
    such datasets (one per mode) train the paper's two side-by-side
    models, and :func:`dataset_from_traces` builds both in one pass.
    """
    return _build_datasets(traces, (mode,), counter_ids, sla, collector,
                           granularity_factor, horizon, pmap,
                           simcache)[mode]


def dataset_from_traces(traces: list[TraceSpec],
                        counter_ids: list[int] | np.ndarray,
                        sla: SLAConfig = DEFAULT_SLA,
                        collector: TelemetryCollector | None = None,
                        granularity_factor: int = 1,
                        horizon: int = PREDICTION_HORIZON,
                        pmap: ParallelMap | None = None,
                        simcache: SimCache | None = None,
                        ) -> dict[Mode, GatingDataset]:
    """Both per-mode datasets for one trace corpus, in one pass.

    Each trace is simulated once per mode and labelled once; the
    result equals one :func:`build_mode_dataset` per mode bit for bit.
    """
    return _build_datasets(traces, tuple(Mode), counter_ids, sla,
                           collector, granularity_factor, horizon, pmap,
                           simcache)


def _build_datasets(traces, modes, counter_ids, sla, collector,
                    granularity_factor, horizon, pmap,
                    simcache) -> dict[Mode, GatingDataset]:
    """The dataset-builder body, over a tuple of telemetry modes.

    Per-trace work fans out through ``pmap`` (serial by default), and
    each mode's assembled matrices persist in ``simcache`` (the
    collector's by default), keyed by trace content, mode, counter
    set, SLA, granularity and machine config; only the modes without a
    cached dataset are built. The per-trace snapshots use the same
    cache; a dataset-key miss (a new horizon, say) still simulates
    each pair once, for the labels. Every path is bit-identical to a
    serial, uncached build.

    When ``REPRO_EXEC_SHARD`` caps the number of traces in flight, the
    corpus streams shard-by-shard with bounded parent RSS (and
    shard-level cache resume); see :func:`_build_sharded`.
    """
    if not traces:
        raise DatasetError("no traces supplied")
    with tracer.span("build_dataset",
                     modes=",".join(mode.value for mode in modes),
                     traces=len(traces)):
        collector = collector or TelemetryCollector()
        counter_ids = np.asarray(counter_ids, dtype=np.int64)
        simcache = simcache if simcache is not None else collector.simcache

        def key(sub: list[TraceSpec], mode: Mode) -> str | None:
            if simcache is None:
                return None
            return simcache.dataset_key(
                sub, mode, counter_ids, sla, granularity_factor, horizon,
                collector.model.machine,
                catalog_token=collector.catalog_token())

        keys = {mode: key(traces, mode) for mode in modes}
        out = {mode: simcache.load_dataset(keys[mode])
               for mode in modes if keys[mode] is not None}
        todo = tuple(mode for mode in modes if out.get(mode) is None)
        if todo:
            build = functools.partial(
                _build_parts, modes=todo, counter_ids=counter_ids, sla=sla,
                collector=collector, simcache=simcache,
                granularity_factor=granularity_factor,
                horizon=horizon,
                pmap=pmap if pmap is not None else default_parallel_map())
            shard = active_exec_config().shard
            if shard is not None and len(traces) > shard:
                out.update(_build_sharded(traces, todo, build, key,
                                          simcache, shard))
            else:
                parts = build(traces)
                out.update({mode: concat_datasets([p[k] for p in parts])
                            for k, mode in enumerate(todo)})
            for mode in todo:
                if keys[mode] is not None:
                    simcache.store_dataset(keys[mode], out[mode])
        return {mode: out[mode] for mode in modes}


def _build_parts(traces, *, modes, counter_ids, sla, collector, simcache,
                 granularity_factor, horizon,
                 pmap) -> list[list[GatingDataset]]:
    """Fan the per-trace builds of one (sub)corpus out through ``pmap``.

    Returns one list of parts per trace, in ``modes`` order.
    """
    knobs = dict(modes=modes, counter_ids=counter_ids, sla=sla,
                 simcache=simcache, granularity_factor=granularity_factor,
                 horizon=horizon)
    # Whole chunks reach each worker, so the interval simulations
    # of a chunk run as stacked batch passes before the per-trace
    # assembly. Process dispatch ships the corpus and collector once
    # via the trace arena.
    arena = None
    if (active_exec_config().arena and len(traces) > 1
            and pmap.uses_processes(len(traces), "build_dataset")):
        try:
            arena = TraceArena.build(
                traces, objects={"collector": collector})
        except (pickle.PicklingError, AttributeError, TypeError):
            METRICS.incr("arena.build_fallback")
    if arena is not None:
        try:
            return pmap.map_chunks(
                functools.partial(_arena_build_chunk, arena.handle,
                                  **knobs),
                range(len(traces)), stage="build_dataset")
        except ArenaIntegrityError:
            # Corrupt/injected-corrupt segment: fall back to
            # pickled dispatch below — bit-identical, just slower.
            METRICS.incr("arena.attach_fallback")
        finally:
            arena.close()
    return pmap.map_chunks(
        functools.partial(_build_trace_chunk, collector=collector, **knobs),
        traces, stage="build_dataset")


def _build_sharded(traces, modes, build, key, simcache,
                   shard: int) -> dict[Mode, GatingDataset]:
    """Stream the corpus shard-by-shard with bounded parent RSS.

    Each shard of ``shard`` traces is built (and its result views
    released) before the next begins; rows land in one
    :class:`~repro.data.dataset.DatasetAssembler` per mode by
    slice-copy, so peak parent memory is roughly the final matrices
    plus one shard of parts instead of every pickled part at once.
    Per-trace assembly is independent of grouping, so the result is
    bit-identical to the unsharded build. When a SimCache is attached,
    each (shard, mode) is also cached under its own key, giving
    interrupted million-trace builds shard-level resume.
    """
    assemblers = {mode: DatasetAssembler() for mode in modes}
    n_shards = -(-len(traces) // shard)
    for si in range(n_shards):
        sub = traces[si * shard:(si + 1) * shard]
        with tracer.span("build_dataset.shard", shard=si,
                         shards=n_shards, traces=len(sub)):
            shard_keys = {mode: key(sub, mode) for mode in modes}
            todo = []
            for mode in modes:
                cached = (None if shard_keys[mode] is None
                          else simcache.load_dataset(shard_keys[mode]))
                if cached is None:
                    todo.append(mode)
                else:
                    METRICS.incr("build_dataset.shard_cache_hits")
                    assemblers[mode].append(cached)
            if todo:
                parts = build(sub, modes=tuple(todo))
                for k, mode in enumerate(todo):
                    mode_parts = [p[k] for p in parts]
                    if shard_keys[mode] is not None:
                        shard_ds = concat_datasets(mode_parts)
                        simcache.store_dataset(shard_keys[mode], shard_ds)
                        mode_parts = [shard_ds]
                    for part in mode_parts:
                        assemblers[mode].append(part)
        METRICS.incr("build_dataset.shards")
    return {mode: assembler.finish()
            for mode, assembler in assemblers.items()}


def hdtr_traces(seed: int,
                apps: list[ApplicationSpec] | None = None,
                workloads_per_app: int | None = None,
                intervals_per_trace: int | None = None,
                ) -> list[TraceSpec]:
    """The scaled HDTR trace corpus.

    The paper's HDTR has ~4.5 traces per application, 5M instructions
    each; we default to a few workloads per app, a couple hundred
    10k-instruction intervals each, scaled by ``REPRO_SCALE``.
    """
    scale = active_exec_config().scale
    if apps is None:
        apps = hdtr_corpus(seed)
    if workloads_per_app is None:
        workloads_per_app = max(2, int(round(3 * scale)))
    if intervals_per_trace is None:
        intervals_per_trace = max(60, int(round(160 * scale)))
    traces: list[TraceSpec] = []
    for app in apps:
        for input_id in range(workloads_per_app):
            traces.append(app.workload(input_id).trace(
                intervals_per_trace, trace_id=0))
    return traces


def build_hdtr_datasets(seed: int, counter_ids: list[int] | np.ndarray,
                        sla: SLAConfig = DEFAULT_SLA,
                        granularity_factor: int = 1,
                        collector: TelemetryCollector | None = None,
                        traces: list[TraceSpec] | None = None,
                        pmap: ParallelMap | None = None,
                        simcache: SimCache | None = None,
                        ) -> dict[Mode, GatingDataset]:
    """Per-mode training datasets over the scaled HDTR corpus."""
    traces = traces if traces is not None else hdtr_traces(seed)
    return dataset_from_traces(traces, counter_ids, sla, collector,
                               granularity_factor, pmap=pmap,
                               simcache=simcache)


def build_spec_datasets(seed: int, counter_ids: list[int] | np.ndarray,
                        sla: SLAConfig = DEFAULT_SLA,
                        granularity_factor: int = 1,
                        collector: TelemetryCollector | None = None,
                        traces: list[TraceSpec] | None = None,
                        pmap: ParallelMap | None = None,
                        simcache: SimCache | None = None,
                        ) -> dict[Mode, GatingDataset]:
    """Per-mode datasets over the held-out SPEC2017-like suite."""
    traces = traces if traces is not None else spec2017_traces(
        rng_mod.derive_seed(seed, "spec-test"))
    return dataset_from_traces(traces, counter_ids, sla, collector,
                               granularity_factor, pmap=pmap,
                               simcache=simcache)
