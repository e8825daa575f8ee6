"""Interval telemetry collection.

Reproduces the paper's data pipeline (Section 4.1): as a trace plays
in the simulator, counter values are snapshot every 10k instructions,
then *normalised by the number of cycles in each interval* (the paper
finds this improves model accuracy). Coarser granularities are produced
by summing successive intervals and re-normalising.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import rng as rng_mod
from repro.errors import DatasetError
from repro.exec.simcache import SimCache, default_simcache
from repro.telemetry.counters import CounterCatalog, default_catalog
from repro.uarch.interval_model import IntervalModel, IntervalResult
from repro.uarch.modes import Mode
from repro.workloads.generator import TraceSpec


@dataclasses.dataclass(frozen=True)
class TelemetrySnapshot:
    """Telemetry for one trace in one mode.

    ``normalized`` is the counter matrix :math:`X = [x_1...x_T]` the
    paper's models consume — raw counts divided by interval cycles.
    """

    trace_name: str
    mode: Mode
    counter_ids: np.ndarray  # (C,)
    counts: np.ndarray  # (T, C) integer event counts
    normalized: np.ndarray  # (T, C) counts / cycles
    cycles: np.ndarray  # (T,)
    ipc: np.ndarray  # (T,)
    interval_instructions: int

    @property
    def n_intervals(self) -> int:
        return int(self.cycles.shape[0])

    def column(self, counter_id: int) -> np.ndarray:
        """Normalized values of one counter."""
        pos = np.flatnonzero(self.counter_ids == counter_id)
        if pos.size == 0:
            raise DatasetError(f"counter {counter_id} not in snapshot")
        return self.normalized[:, int(pos[0])]


def coarsen(snapshot: TelemetrySnapshot, factor: int) -> TelemetrySnapshot:
    """Aggregate successive intervals into coarser ones.

    Sums counts and cycles over ``factor``-interval groups and
    re-normalises, exactly as the paper coarsens 10k-instruction
    snapshots into larger prediction granularities. Trailing intervals
    that do not fill a group are dropped.
    """
    if factor <= 0:
        raise DatasetError(f"coarsen factor must be positive, got {factor}")
    if factor == 1:
        return snapshot
    t_full = (snapshot.n_intervals // factor) * factor
    if t_full == 0:
        raise DatasetError(
            f"trace too short ({snapshot.n_intervals} intervals) to "
            f"coarsen by {factor}"
        )
    shape = (t_full // factor, factor)
    counts = snapshot.counts[:t_full].reshape(shape[0], factor, -1).sum(axis=1)
    cycles = snapshot.cycles[:t_full].reshape(shape).sum(axis=1)
    inst = snapshot.interval_instructions * factor
    return TelemetrySnapshot(
        trace_name=snapshot.trace_name,
        mode=snapshot.mode,
        counter_ids=snapshot.counter_ids,
        counts=counts,
        normalized=counts / cycles[:, None],
        cycles=cycles,
        ipc=inst / cycles,
        interval_instructions=inst,
    )


class TelemetryCollector:
    """Runs the simulator and materialises counter snapshots.

    Snapshots persist in ``simcache`` (by default the
    ``REPRO_SIMCACHE_DIR`` cache, if set), which also holds the built
    datasets of a collector passed to :mod:`repro.data.builders`.
    """

    def __init__(self, catalog: CounterCatalog | None = None,
                 model: IntervalModel | None = None,
                 simcache: SimCache | None = None) -> None:
        self.catalog = catalog or default_catalog()
        self.model = model or IntervalModel()
        self.simcache = (simcache if simcache is not None
                         else default_simcache())

    def catalog_token(self) -> str:
        """Stable fingerprint of the counter catalog (for cache keys)."""
        return self.catalog.token()

    def has_snapshot(self, trace: TraceSpec, mode: Mode,
                     counter_ids: np.ndarray) -> bool:
        """Whether this collector's SimCache already holds this
        snapshot."""
        return self.simcache is not None and self.simcache.has(
            self.simcache.snapshot_key(trace, mode, self.model.machine,
                                       counter_ids, self.catalog_token()))

    def _noise_field(self, trace: TraceSpec, mode: Mode,
                     n_intervals: int) -> np.ndarray:
        """Standard-normal measurement noise, one draw per counter.

        Drawn over the *full* catalog width so a counter's measured
        value never depends on which other counters are being read.
        """
        rng = rng_mod.stream(trace.seed, "telemetry", mode.value)
        return rng.standard_normal((n_intervals, len(self.catalog)))

    def snapshot(self, trace: TraceSpec, mode: Mode,
                 counter_ids: list[int] | np.ndarray | None = None,
                 result: IntervalResult | None = None,
                 simcache: SimCache | None = None) -> TelemetrySnapshot:
        """Collect telemetry for one trace in one mode.

        Parameters
        ----------
        counter_ids:
            Subset of catalog counters to materialise; defaults to the
            full catalog (memory heavy — prefer subsets for training).
        result:
            Pre-computed simulation result to reuse; simulated on
            demand otherwise.
        simcache:
            Disk tier for the snapshot; this collector's by default.
        """
        if result is not None and result.mode is not mode:
            raise DatasetError(
                f"result mode {result.mode} does not match requested {mode}"
            )
        ids = (np.arange(len(self.catalog)) if counter_ids is None
               else np.asarray(counter_ids, dtype=np.int64))
        # Materialised snapshots persist in the attached SimCache: the
        # (T, catalog) noise field is the single most expensive step of
        # the warm closed loop, so skipping it entirely on a hit is
        # what makes repeated deployments fast.
        simcache = simcache if simcache is not None else self.simcache
        disk_key = None
        if simcache is not None:
            disk_key = simcache.snapshot_key(
                trace, mode, self.model.machine, ids, self.catalog_token())
            cached = simcache.load_snapshot(disk_key)
            if cached is not None:
                return cached
        if result is None:
            result = self.model.simulate(trace, mode)
        noise = self._noise_field(trace, mode, result.n_intervals)
        counts = self.catalog.materialize(result.signals, noise, ids)
        snapshot = TelemetrySnapshot(
            trace_name=trace.name,
            mode=mode,
            counter_ids=ids,
            counts=counts,
            normalized=counts / result.cycles[:, None],
            cycles=result.cycles.copy(),
            ipc=result.ipc.copy(),
            interval_instructions=result.interval_instructions,
        )
        if disk_key is not None:
            simcache.store_snapshot(disk_key, snapshot)
        return snapshot

    def snapshot_both(self, trace: TraceSpec,
                      counter_ids: list[int] | np.ndarray | None = None,
                      ) -> dict[Mode, TelemetrySnapshot]:
        """Telemetry for both modes of one trace (the training recipe)."""
        return {mode: self.snapshot(trace, mode, counter_ids)
                for mode in Mode}
