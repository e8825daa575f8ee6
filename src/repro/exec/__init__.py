"""Shared execution engine for dataset-scale paths.

Four pieces, used together by every loop that fans out over traces,
configurations or folds:

* :class:`~repro.exec.parallel.ParallelMap` — serial/thread/process/
  ``auto`` backends behind one ordered, chunked, deterministic
  dispatch body (``map_chunks``; ``map`` applies a per-item function
  through it), with warm worker pools and adaptive chunk sizing;
* :class:`~repro.exec.arena.TraceArena` — a memory-mapped, zero-copy
  package of a trace corpus (plus shared objects and bulk arrays)
  that process-pool workers attach to by handle, shrinking task
  payloads to index lists;
* :mod:`~repro.exec.shmres` — the output half of the zero-copy story:
  process-pool workers hoist large result arrays into validated
  shared-memory segments and ship descriptors home instead of pickled
  ndarrays (``REPRO_EXEC_SHMRES`` kill-switch);
* :class:`~repro.exec.simcache.SimCache` — a content-addressed on-disk
  cache of telemetry snapshots and built feature matrices;
* :data:`~repro.obs.metrics.METRICS` — process-wide stage timings,
  cache hit/miss counts, payload bytes, worker utilisation and
  resilience counters, printed by the CLI's ``--exec-report`` flag;
* :mod:`~repro.exec.faults` — deterministic, seedable fault injection
  (:class:`~repro.exec.faults.FaultPlan`, ``REPRO_FAULT_SPEC``) that
  exercises every recovery path above.

The invariant the engine guarantees (and the tier-1 suite enforces):
for any seed, parallel, cached and arena-backed runs produce
bit-identical results to the serial uncached path — and under any
fault plan, a run either still produces those bit-identical results
or raises a typed :class:`~repro.errors.ExecFaultError`; it never
silently returns a wrong answer.
"""

from repro.exec.arena import TraceArena, detach_all
from repro.exec.faults import (
    FaultPlan,
    active_plan,
    inject,
    install_fault_plan,
)
from repro.exec.parallel import (
    ParallelMap,
    close_pools,
    configure,
    default_parallel_map,
    reset_default,
)
from repro.exec.shmres import ShmChunk
from repro.exec.simcache import SimCache, default_simcache

__all__ = [
    "FaultPlan",
    "ParallelMap",
    "ShmChunk",
    "SimCache",
    "TraceArena",
    "active_plan",
    "close_pools",
    "configure",
    "default_parallel_map",
    "default_simcache",
    "detach_all",
    "inject",
    "install_fault_plan",
    "reset_default",
]
