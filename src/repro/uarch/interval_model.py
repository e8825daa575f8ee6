"""Fast analytical interval performance model.

This is the dataset-scale tier of the simulator. Following interval
analysis (Eyerman/Karkhanis), each telemetry interval's CPI decomposes
into an issue-limited base component plus additive stall components
from branch mispredictions, front-end misses, TLB misses, the memory
hierarchy (divided by exploitable memory-level parallelism), and
store-queue pressure. Mode dependence enters through:

* the effective issue width (7.44 for the 8-wide high-performance mode
  after steering inefficiency, 4.0 for low-power mode);
* halved MSHRs in low-power mode, capping memory-level parallelism;
* halved store-queue entries in low-power mode, which inflates the
  store-queue stall term sharply for store-burst phases;
* an inter-cluster communication tax paid only in high-performance
  mode.

The model also produces every base signal of
:mod:`repro.uarch.signals`, from which the telemetry catalog derives
counters. Per-interval *workload* jitter is drawn once per trace and
shared between modes (both-mode simulations of the same trace see the
same workload, as in the paper's data-collection flow, Figure 3);
measurement noise is added later, per counter, by the telemetry layer.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict

import numpy as np

from repro import rng as rng_mod
from repro.config import MachineConfig, active_exec_config
from repro.errors import SimulationError
from repro.obs.metrics import METRICS
from repro.obs import tracer
from repro.uarch.modes import Mode
from repro.uarch.signals import N_SIGNALS, signal_index
from repro.workloads.generator import PHYSICS_FIELDS, TraceSpec

# Physics field indices (see workloads.generator.PHYSICS_FIELDS).
_F = {name: i for i, name in enumerate(PHYSICS_FIELDS)}

#: Micro-ops per instruction for the synthetic ISA.
UOPS_PER_INSTRUCTION = 1.12

#: Fraction of peak width lost to steering imperfections in 8-wide mode.
STEERING_EFFICIENCY = 0.93

#: Fraction of memory stall cycles that overlap with useful work.
MEMORY_OVERLAP = 0.15

#: Store-queue stall penalty (cycles per store at full pressure). The
#: low-power value reflects the halved store queue: store bursts lose
#: ~40% of their IPC when gated — a clear SLA violation, but one whose
#: low-power telemetry still resembles ordinary latency-bound phases
#: on cache/branch/IPC counters (the Figure-9 blindspot).
SQ_PENALTY_HIGH_PERF = 1.5
SQ_PENALTY_LOW_POWER = 6.5

#: Decode throughput loss per uop-cache miss fraction (cycles/inst).
UOPCACHE_MISS_PENALTY = 0.35

#: Physics fields jittered per interval (relative lognormal).
_JITTERED_FIELDS = (
    "ilp", "l1d_mpki", "l2_mpki", "l3_mpki", "branch_mpki",
    "icache_mpki", "sq_pressure", "mlp",
)

#: Front-end penalty of running on a single cluster: the instruction
#: cache and uop cache are split per cluster (Figure 2), so low-power
#: mode effectively halves front-end capacity.
LOW_POWER_ICACHE_FACTOR = 1.6
LOW_POWER_UOPC_MISS_FACTOR = 1.35

#: Micro-ops the window must refill after a branch mispredict; refill
#: rate scales with issue width, so narrow mode pays slightly more.
MISPREDICT_REFILL_UOPS = 20.0


#: Traces per stacked ``simulate_batch`` call on the build paths (the
#: training-dataset build and counter selection). Those hand each
#: call's results straight to their consumers and drop them, so this
#: bounds the results alive at once. Results do not depend on it.
BUILD_BATCH_TRACES = 64


def _per_mode(mode, fn):
    """``fn(mode)`` for one mode, or a ``(P, 1)`` column over P modes.

    The column broadcasts against the ``(P, T)`` field slices of a
    stacked ``(P, T, F)`` physics tensor. Every use is elementwise, so
    row ``p`` of a stacked pass carries the same bits as a one-mode
    call on ``physics[p]``.
    """
    if isinstance(mode, Mode):
        return fn(mode)
    return np.array([[fn(m)] for m in mode])


def _is_low_power(mode: Mode) -> bool:
    return mode is Mode.LOW_POWER


def pair_key(trace: TraceSpec, mode: Mode) -> tuple:
    """The LRU key one (trace, mode) simulation is memoised under."""
    return (trace.name, trace.seed, trace.n_intervals, mode)


@dataclasses.dataclass(frozen=True)
class IntervalResult:
    """Per-interval simulation output for one trace in one mode."""

    trace_name: str
    mode: Mode
    ipc: np.ndarray  # (T,)
    cycles: np.ndarray  # (T,)
    signals: np.ndarray  # (T, N_SIGNALS)
    interval_instructions: int

    @property
    def n_intervals(self) -> int:
        return int(self.ipc.shape[0])

    @property
    def total_cycles(self) -> float:
        return float(self.cycles.sum())

    @property
    def mean_ipc(self) -> float:
        """Aggregate IPC over the whole trace."""
        return (self.n_intervals * self.interval_instructions
                / self.total_cycles)

    def signal(self, name: str) -> np.ndarray:
        """One base signal's per-interval values."""
        return self.signals[:, signal_index(name)]


class IntervalModel:
    """Vectorised per-interval performance and telemetry model.

    Results are memoised in a bounded LRU cache keyed by (trace, mode),
    because deployment and serving revisit the same traces (dataset
    builds read the memo but do not fill it). The bound defaults to the
    ``REPRO_INTERVAL_LRU`` knob (the active config's
    ``interval_lru``); hit/miss counts surface in
    the :data:`~repro.obs.metrics.METRICS` report. One model may be
    shared across threads: a small lock guards each LRU lookup and
    insert, and is never held while simulating. There is no disk
    tier: a stacked simulation is cheaper than loading its result.
    """

    def __init__(self, machine: MachineConfig | None = None,
                 cache_size: int | None = None) -> None:
        self.machine = machine or MachineConfig()
        self._cache: "OrderedDict[tuple, IntervalResult]" = OrderedDict()
        self._cache_size = (active_exec_config().interval_lru
                            if cache_size is None else cache_size)
        self._lru_lock = threading.Lock()

    def __getstate__(self) -> dict:
        """Pickle without the LRU memo or its lock.

        The memo is a pure accelerator — dropping it can never change a
        result — and shipping up to ``REPRO_INTERVAL_LRU`` cached
        interval tensors per task is exactly the payload bloat the
        execution engine exists to avoid.
        """
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        del state["_lru_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lru_lock = threading.Lock()

    def _lookup(self, key: tuple) -> IntervalResult | None:
        """LRU lookup plus recency refresh, atomic across threads."""
        with self._lru_lock:
            result = self._cache.get(key)
            if result is not None:
                self._cache.move_to_end(key)
        return result

    def _remember(self, key: tuple, result: IntervalResult) -> None:
        """Insert into the bounded LRU memo, atomic across threads."""
        with self._lru_lock:
            self._cache[key] = result
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    # Mode-dependent machine parameters.
    # ------------------------------------------------------------------
    def effective_width(self, mode: Mode) -> float:
        """Usable issue width in a mode, after steering losses."""
        if mode is Mode.HIGH_PERF:
            return self.machine.width_high_perf * STEERING_EFFICIENCY
        return float(self.machine.width_low_power)

    def mshr_cap(self, mode: Mode) -> float:
        """Outstanding-miss cap: per-cluster MSHRs times active clusters."""
        return self.machine.cluster.mshr_entries * mode.active_clusters

    def sq_entries(self, mode: Mode) -> int:
        """Store-queue entries available in a mode."""
        return self.machine.cluster.store_queue_entries * mode.active_clusters

    def lq_entries(self, mode: Mode) -> int:
        """Load-queue entries available in a mode."""
        return self.machine.cluster.load_queue_entries * mode.active_clusters

    def intercluster_cpi(self, mode: Mode) -> float:
        """CPI tax of inter-cluster bypasses (high-performance mode only)."""
        if mode is not Mode.HIGH_PERF:
            return 0.0
        m = self.machine
        return (m.intercluster_uop_fraction * m.intercluster_latency
                / self.effective_width(mode) * UOPS_PER_INSTRUCTION)

    # ------------------------------------------------------------------
    # Core model.
    # ------------------------------------------------------------------
    def _jittered_physics(self, trace: TraceSpec) -> np.ndarray:
        """Physics matrix with per-interval workload jitter applied.

        The jitter stream depends only on the trace (not the mode), so
        high-performance and low-power simulations of the same trace
        observe the same workload, exactly as when the paper replays one
        recorded trace through the simulator in both configurations.
        """
        physics = trace.physics().copy()
        rng = rng_mod.stream(trace.seed, "interval-jitter")
        noise_scale = physics[:, _F["noise_scale"]]
        for field in _JITTERED_FIELDS:
            col = _F[field]
            sigma = 0.03 + 1.2 * noise_scale
            factor = np.exp(rng.normal(0.0, 1.0, physics.shape[0]) * sigma)
            physics[:, col] *= factor
        # Restore invariants disturbed by jitter.
        physics[:, _F["ilp"]] = np.maximum(physics[:, _F["ilp"]], 1.0)
        physics[:, _F["mlp"]] = np.maximum(physics[:, _F["mlp"]], 1.0)
        physics[:, _F["sq_pressure"]] = np.clip(
            physics[:, _F["sq_pressure"]], 0.0, 1.0)
        physics[:, _F["l2_mpki"]] = np.minimum(
            physics[:, _F["l2_mpki"]], physics[:, _F["l1d_mpki"]])
        physics[:, _F["l3_mpki"]] = np.minimum(
            physics[:, _F["l3_mpki"]], physics[:, _F["l2_mpki"]])
        return physics

    def mode_adjusted_physics(self, physics: np.ndarray,
                              mode: Mode | list[Mode]) -> np.ndarray:
        """Apply mode-dependent front-end effects to phase physics.

        With cluster 2 gated, only its half of the split instruction
        cache and uop cache is usable, so low-power mode observes more
        front-end misses for the same code footprint. ``physics`` is
        ``(..., T, F)``; ``mode`` is one :class:`Mode`, or one mode per
        row of a stacked ``(P, T, F)`` tensor. Returns ``physics``
        itself when no row is low-power, else an adjusted copy.
        """
        if not np.any(_per_mode(mode, _is_low_power)):
            return physics
        adjusted = physics.copy()
        self._adjust_front_end(adjusted, mode)
        return adjusted

    @staticmethod
    def _adjust_front_end(physics: np.ndarray,
                          mode: Mode | list[Mode]) -> None:
        """The low-power front-end adjustment, in place on low-power rows."""
        low = _per_mode(mode, _is_low_power)
        if not np.any(low):
            return
        icache = physics[..., _F["icache_mpki"]]
        physics[..., _F["icache_mpki"]] = np.where(
            low, icache * LOW_POWER_ICACHE_FACTOR, icache)
        hit = physics[..., _F["uopcache_hit_rate"]]
        miss_rate = 1.0 - hit
        physics[..., _F["uopcache_hit_rate"]] = np.where(
            low, np.clip(1.0 - miss_rate * LOW_POWER_UOPC_MISS_FACTOR,
                         0.0, 1.0), hit)

    def cpi_components(self, physics: np.ndarray, mode: Mode | list[Mode],
                       ) -> dict[str, np.ndarray]:
        """CPI decomposition for each interval (interval analysis).

        ``physics`` must already be mode-adjusted and is ``(..., T,
        F)``; ``mode`` is one :class:`Mode`, or one mode per row of a
        stacked ``(P, T, F)`` tensor. Returns a dict of additive CPI
        components, each shaped like ``physics[..., 0]``.
        """
        m = self.machine
        width = _per_mode(mode, self.effective_width)
        ilp = physics[..., _F["ilp"]]
        cpi_base = 1.0 / np.minimum(width, ilp)

        refill = MISPREDICT_REFILL_UOPS / width
        cpi_branch = (physics[..., _F["branch_mpki"]] / 1000.0
                      * (m.branch_mispredict_penalty + refill))
        cpi_frontend = (
            physics[..., _F["icache_mpki"]] / 1000.0 * m.icache_miss_penalty
            + (1.0 - physics[..., _F["uopcache_hit_rate"]])
            * UOPCACHE_MISS_PENALTY
        )
        cpi_tlb = ((physics[..., _F["itlb_mpki"]]
                    + physics[..., _F["dtlb_mpki"]])
                   / 1000.0 * m.tlb_miss_penalty)

        l1d = physics[..., _F["l1d_mpki"]]
        l2 = physics[..., _F["l2_mpki"]]
        l3 = physics[..., _F["l3_mpki"]]
        mem_cost = ((l1d - l2) * m.l2_latency
                    + (l2 - l3) * m.l3_latency
                    + l3 * m.memory_latency) / 1000.0
        mlp_eff = np.clip(physics[..., _F["mlp"]], 1.0,
                          _per_mode(mode, self.mshr_cap))
        cpi_memory = mem_cost / mlp_eff * (1.0 - MEMORY_OVERLAP)

        sq_penalty = _per_mode(
            mode, lambda md: (SQ_PENALTY_LOW_POWER if md is Mode.LOW_POWER
                              else SQ_PENALTY_HIGH_PERF))
        cpi_sq = (physics[..., _F["sq_pressure"]]
                  * physics[..., _F["frac_store"]] * sq_penalty)

        cpi_xc = np.full(cpi_base.shape,
                         _per_mode(mode, self.intercluster_cpi))

        return {
            "base": cpi_base,
            "branch": cpi_branch,
            "frontend": cpi_frontend,
            "tlb": cpi_tlb,
            "memory": cpi_memory,
            "store_queue": cpi_sq,
            "intercluster": cpi_xc,
        }

    def simulate(self, trace: TraceSpec, mode: Mode) -> IntervalResult:
        """Simulate one trace in one mode.

        Returns per-interval IPC, cycles, and the full base-signal
        matrix the telemetry catalog consumes.
        """
        return self.simulate_batch([trace], (mode,))[pair_key(trace, mode)]

    def simulate_both(self, trace: TraceSpec,
                      ) -> dict[Mode, IntervalResult]:
        """Simulate a trace in both modes (the paper's data recipe)."""
        batch = self.simulate_batch([trace])
        return {mode: batch[pair_key(trace, mode)] for mode in Mode}

    def simulate_batch(self, traces, modes=None, remember: bool = True,
                       ) -> dict[tuple, IntervalResult]:
        """Simulate many (trace, mode) pairs in stacked tensor passes.

        Physics matrices for all cache-missing pairs are stacked into
        one ``(P, T, F)`` tensor (grouped by interval count ``T``) and
        the CPI decomposition plus every base signal are computed in a
        single vectorised pass. Every array operation is elementwise,
        so a pair's result does not depend on which other pairs share
        its batch (enforced by tests/test_batch_kernels.py).

        LRU hits are sliced out up front and only the misses are
        computed; fresh results enter the LRU. ``remember=False`` keeps
        fresh results out of the LRU, for callers that consume
        the returned results once and drop them (the cold dataset
        build), so the memo holds only what someone will re-read.

        Returns a dict keyed by ``(name, seed, n_intervals, mode)``.
        """
        modes_t = tuple(Mode) if modes is None else tuple(modes)
        pairs = []
        seen = set()
        for trace in traces:
            for mode in modes_t:
                key = pair_key(trace, mode)
                if key not in seen:
                    seen.add(key)
                    pairs.append((key, trace, mode))

        results: dict[tuple, IntervalResult] = {}
        misses = []
        for key, trace, mode in pairs:
            cached = self._lookup(key)
            if cached is not None:
                METRICS.incr("interval_lru.hit")
                results[key] = cached
                continue
            METRICS.incr("interval_lru.miss")
            misses.append((key, trace, mode))
        if not misses:
            return results

        # Stack pairs with equal interval counts; heterogeneous traces
        # simply land in separate groups.
        groups: dict[int, list] = {}
        for item in misses:
            groups.setdefault(item[1].n_intervals, []).append(item)
        METRICS.incr("interval_batch.pairs", len(misses))
        METRICS.observe("interval_batch.miss_rows", len(misses))
        with METRICS.stage("interval_simulate_batch"), \
                tracer.span("interval.simulate_batch",
                            pairs=len(pairs), misses=len(misses)):
            for _, group in sorted(groups.items()):
                computed = self._simulate_uncached(
                    [(trace, mode) for _, trace, mode in group])
                for (key, _, _), result in zip(group, computed):
                    if remember:
                        self._remember(key, result)
                    results[key] = result
        return results

    def _simulate_uncached(self, pairs: list[tuple[TraceSpec, Mode]],
                           ) -> list[IntervalResult]:
        """Compute a batch of same-``T`` pairs, bypassing the LRU."""
        # Per-row values that every row shares broadcast as plain
        # scalars instead of (P, 1) columns: the same bits, with less
        # per-call overhead for one-pair and one-mode batches.
        modes = [mode for _, mode in pairs]
        mode_arg = modes[0] if len(set(modes)) == 1 else modes
        insts = [float(trace.interval_instructions) for trace, _ in pairs]
        inst = (insts[0] if len(set(insts)) == 1
                else np.array(insts)[:, None])
        # Workload jitter is per trace (shared between modes), so a
        # trace appearing in both modes is jittered once and its matrix
        # reused in both rows.
        jittered: dict[tuple, np.ndarray] = {}
        rows = []
        for trace, _ in pairs:
            tkey = (trace.name, trace.seed, trace.n_intervals)
            if tkey not in jittered:
                jittered[tkey] = self._jittered_physics(trace)
            rows.append(jittered[tkey])
        physics = np.stack(rows)  # (P, T, F); rows are fresh copies
        self._adjust_front_end(physics, mode_arg)

        components = self.cpi_components(physics, mode_arg)
        cpi = np.zeros(physics.shape[:2])
        for part in components.values():
            cpi = cpi + part
        if np.any(cpi <= 0.0):
            raise SimulationError("non-positive CPI encountered")
        width = _per_mode(mode_arg, self.effective_width)
        ipc = np.minimum(1.0 / cpi, width)
        cpi = 1.0 / ipc
        cycles = inst * cpi
        signals = self._base_signals(mode_arg, inst, physics, components,
                                     cpi, cycles)
        self._add_measurement_noise(pairs, physics, signals)
        return [
            IntervalResult(
                trace_name=trace.name,
                mode=mode,
                ipc=ipc[p],
                cycles=cycles[p],
                signals=signals[p],
                interval_instructions=trace.interval_instructions,
            )
            for p, (trace, mode) in enumerate(pairs)
        ]

    # ------------------------------------------------------------------
    # Base-signal synthesis.
    # ------------------------------------------------------------------
    def _base_signals(self, mode: Mode | list[Mode], inst: np.ndarray,
                      physics: np.ndarray,
                      components: dict[str, np.ndarray], cpi: np.ndarray,
                      cycles: np.ndarray) -> np.ndarray:
        """Every noise-free base signal of a stacked batch.

        ``physics`` is ``(P, T, F)``; ``inst`` (instructions per
        interval) and ``mode`` are one value for the whole batch or a
        ``(P, 1)`` column / one mode per row. Returns ``(P, T,
        N_SIGNALS)``.
        """
        m = self.machine
        out = np.zeros(cpi.shape + (N_SIGNALS,))

        def put(name: str, values: np.ndarray | float) -> None:
            out[..., signal_index(name)] = values

        ipc = 1.0 / cpi
        frac_load = physics[..., _F["frac_load"]]
        frac_store = physics[..., _F["frac_store"]]
        frac_branch = physics[..., _F["frac_branch"]]
        frac_fp = physics[..., _F["frac_fp"]]
        frac_int = 1.0 - (frac_load + frac_store + frac_branch + frac_fp)

        uops = inst * UOPS_PER_INSTRUCTION
        loads = inst * frac_load
        stores = inst * frac_store
        branches = inst * frac_branch
        l1d_misses = inst * physics[..., _F["l1d_mpki"]] / 1000.0
        l2_misses = inst * physics[..., _F["l2_mpki"]] / 1000.0
        l3_misses = inst * physics[..., _F["l3_mpki"]] / 1000.0
        icache_misses = inst * physics[..., _F["icache_mpki"]] / 1000.0
        br_miss = inst * physics[..., _F["branch_mpki"]] / 1000.0
        dirty = physics[..., _F["dirty_frac"]]
        uopc_hit = physics[..., _F["uopcache_hit_rate"]]
        width = _per_mode(mode, self.effective_width)

        put("cycles", cycles)
        put("instructions", inst)
        put("uops_issued", uops + br_miss * width * 2.0)  # incl. wrong path
        put("uops_retired", uops)
        put("loads_retired", loads)
        put("stores_retired", stores)
        put("branches_retired", branches)
        put("fp_ops_retired", inst * frac_fp)
        put("int_ops_retired", inst * frac_int)
        put("l1d_reads", loads)
        put("l1d_writes", stores)
        put("l1d_misses", l1d_misses)
        put("l1d_hits", np.maximum(loads + stores - l1d_misses, 0.0))
        l2_accesses = l1d_misses + icache_misses
        put("l2_accesses", l2_accesses)
        put("l2_misses", l2_misses)
        put("l2_hits", np.maximum(l2_accesses - l2_misses, 0.0))
        put("l3_accesses", l2_misses)
        put("l3_misses", l3_misses)
        put("l3_hits", np.maximum(l2_misses - l3_misses, 0.0))
        put("memory_reads", l3_misses)
        l2_evictions = l2_misses  # each fill evicts in steady state
        put("l2_evictions", l2_evictions)
        put("l2_silent_evictions", l2_evictions * (1.0 - dirty))
        put("l2_dirty_evictions", l2_evictions * dirty)
        put("branch_mispredicts", br_miss)
        put("wrong_path_uops",
            br_miss * width * m.branch_mispredict_penalty * 0.5)
        machine_clears = inst * 2e-5
        put("pipeline_flushes", br_miss + machine_clears)
        put("machine_clears", machine_clears)
        put("icache_misses", icache_misses)
        fetch_blocks = inst / 8.0
        put("icache_hits", np.maximum(fetch_blocks - icache_misses, 0.0))
        put("uopcache_hits", uops * uopc_hit)
        put("uopcache_misses", uops * (1.0 - uopc_hit))
        put("itlb_misses", inst * physics[..., _F["itlb_mpki"]] / 1000.0)
        put("dtlb_misses", inst * physics[..., _F["dtlb_mpki"]] / 1000.0)

        # Stall accounting from the CPI decomposition.
        stall_share = np.maximum(cpi - components["base"], 0.0) / cpi
        put("stall_cycles", cycles * stall_share)
        fe_share = (components["branch"] + components["frontend"]) / cpi
        put("frontend_stall_cycles", cycles * fe_share)
        mem_share = components["memory"] / cpi
        put("memory_stall_cycles", cycles * mem_share)
        sq_share = components["store_queue"] / cpi
        put("sq_full_stall_cycles", cycles * sq_share)
        dep_share = np.maximum(
            components["base"] - 1.0 / width, 0.0) / cpi
        put("dep_stall_cycles", cycles * dep_share)
        put("backend_stall_cycles", cycles * (mem_share + sq_share + dep_share))

        # Occupancies via Little's law (summed entries x cycles).
        ilp = physics[..., _F["ilp"]]
        put("uops_ready", np.minimum(ilp, width) * cycles)
        avg_inst_latency = 5.0 + (components["memory"]
                                  * physics[..., _F["mlp"]]
                                  / np.maximum(frac_load, 0.02))
        in_flight = np.minimum(ipc * avg_inst_latency, m.rob_entries)
        put("rob_occupancy", in_flight * cycles)
        sched_total = _per_mode(
            mode, lambda md: m.cluster.scheduler_entries * md.active_clusters)
        sched_occ = np.minimum(in_flight * 0.45, sched_total)
        put("scheduler_occupancy", sched_occ * cycles)
        put("uops_stalled_dep",
            np.maximum(sched_occ - np.minimum(ilp, width), 0.0) * cycles)
        store_residency = 4.0 + physics[..., _F["sq_pressure"]] * 44.0
        sq_occ = np.minimum(frac_store * ipc * store_residency,
                            _per_mode(mode, self.sq_entries))
        put("sq_occupancy", sq_occ * cycles)
        load_residency = 4.0 + (components["memory"] * 1000.0
                                / np.maximum(frac_load * 1000.0, 1.0))
        lq_occ = np.minimum(frac_load * ipc * load_residency,
                            _per_mode(mode, self.lq_entries))
        put("lq_occupancy", lq_occ * cycles)
        # MSHR occupancy reflects exploited memory-level parallelism:
        # outstanding misses while memory-bound, capped by the MSHRs.
        mlp_exploited = np.clip(physics[..., _F["mlp"]], 1.0,
                                _per_mode(mode, self.mshr_cap))
        put("mshr_occupancy", mlp_exploited * mem_share * cycles)

        put("preg_refs", uops * 1.9)
        put("preg_allocs", uops * 0.85)
        high_perf = _per_mode(mode, lambda md: md is Mode.HIGH_PERF)
        put("intercluster_transfers",
            np.where(high_perf, uops * m.intercluster_uop_fraction, 0.0))
        put("mode_switches", 0.0)
        prefetches = l2_misses * 0.6
        put("prefetches_issued", prefetches)
        put("prefetch_hits", prefetches * 0.5)
        put("fp_divides", inst * frac_fp * 0.05)
        put("int_muls", inst * frac_int * 0.08)
        put("mem_bandwidth_bytes",
            (l3_misses + l2_evictions * dirty) * m.line_bytes)
        put("store_buffer_drains",
            stores * physics[..., _F["sq_pressure"]] * 0.1)
        return out

    @staticmethod
    def _add_measurement_noise(pairs: list[tuple[TraceSpec, Mode]],
                               physics: np.ndarray,
                               signals: np.ndarray) -> None:
        """Per-interval sampling noise on event counts, in place.

        Cycles and instructions stay exact, as the hardware counts
        them. Each pair owns a named RNG stream, so the ``(T,
        N_SIGNALS)`` draw stays per pair.
        """
        t_count = signals.shape[1]
        exact = [signal_index("cycles"), signal_index("instructions")]
        for p, (trace, mode) in enumerate(pairs):
            rng = rng_mod.stream(trace.seed, "signal-noise", mode.value)
            noise_sigma = (0.01
                           + physics[p, :, _F["noise_scale"]][:, None] * 0.3)
            noise = np.exp(rng.normal(0.0, 1.0, (t_count, N_SIGNALS))
                           * noise_sigma)
            noise[:, exact] = 1.0
            signals[p] *= noise
