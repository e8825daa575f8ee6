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
from repro.exec.simcache import SimCache, default_simcache
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


@dataclasses.dataclass(frozen=True)
class IntervalResult:
    """Per-interval simulation output for one trace in one mode."""

    trace_name: str
    mode: Mode
    ipc: np.ndarray  # (T,)
    cycles: np.ndarray  # (T,)
    signals: np.ndarray  # (T, N_SIGNALS)
    interval_instructions: int
    #: Which simulator tier produced this result: ``"interval"`` (the
    #: analytical pass) or ``"surrogate"`` (the tier-0 learned fast
    #: path). Surrogate results never enter the disk result cache and
    #: are only served from the LRU while the surrogate is enabled.
    tier: str = "interval"

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
    because dataset builders revisit the same traces at several gating
    granularities and in both modes. The bound defaults to the
    ``REPRO_INTERVAL_LRU`` knob (the active config's
    ``interval_lru``); hit/miss counts surface in
    the :data:`~repro.obs.metrics.METRICS` report.

    When a :class:`~repro.exec.simcache.SimCache` is attached (or
    ``REPRO_SIMCACHE_DIR`` is set), results additionally persist to a
    content-addressed disk cache shared across processes and runs.
    """

    def __init__(self, machine: MachineConfig | None = None,
                 cache_size: int | None = None,
                 simcache: SimCache | None = None) -> None:
        self.machine = machine or MachineConfig()
        self._cache: "OrderedDict[tuple, IntervalResult]" = OrderedDict()
        self._cache_size = (active_exec_config().interval_lru
                            if cache_size is None else cache_size)
        self.simcache = simcache if simcache is not None else (
            default_simcache())
        # Tier-0 learned surrogate (repro.surrogate), built lazily on
        # first use when REPRO_SURROGATE is on. ``_training`` guards
        # the probe pass: while the surrogate trains on this model's
        # own outputs it must see pure interval results.
        self._surrogate = None
        self._surrogate_config: tuple | None = None
        self._surrogate_lock = threading.RLock()
        self._training_tls = threading.local()

    @property
    def _training(self) -> bool:
        """Whether *this thread* is running the surrogate's probe pass.

        Thread-local on purpose: under the thread backend another
        thread must not mistake an in-progress training for "surrogate
        off" and silently take the interval path — it waits on
        :attr:`_surrogate_lock` and scores through the trained tier,
        reaching the same bits as a serial build.
        """
        return getattr(self._training_tls, "active", False)

    @_training.setter
    def _training(self, value: bool) -> None:
        self._training_tls.active = bool(value)

    def __getstate__(self) -> dict:
        """Pickle without the LRU memo or the surrogate tier.

        The memo is a pure accelerator — dropping it can never change a
        result — and shipping up to ``REPRO_INTERVAL_LRU`` cached
        interval tensors per task is exactly the payload bloat the
        execution engine exists to avoid. The surrogate tier is dropped
        for the same reason: workers retrain it deterministically (or
        load it from the shared SimCache), reaching the identical
        accept/fallback decisions.
        """
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        state["_surrogate"] = None
        state["_surrogate_config"] = None
        del state["_surrogate_lock"], state["_training_tls"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._surrogate_lock = threading.RLock()
        self._training_tls = threading.local()

    def _surrogate_tier(self, config):
        """The active surrogate tier, or ``None`` when disabled.

        Rebuilt when the surrogate knobs change between calls; a tier
        whose agreement gate refused stays cached (still ``None``-like:
        its ``score`` returns everything as fallback) so refusal is
        paid once, not per batch.
        """
        if self._training:
            return None
        if not config.surrogate:
            return None
        key = (config.surrogate_threshold, config.surrogate_probes)
        if self._surrogate is None or self._surrogate_config != key:
            with self._surrogate_lock:
                # Double-checked: one thread trains, the rest block
                # here and reuse the published tier.
                if (self._surrogate is None
                        or self._surrogate_config != key):
                    from repro.surrogate import SurrogateTier
                    tier = SurrogateTier(
                        self, threshold=config.surrogate_threshold,
                        n_probes=config.surrogate_probes)
                    tier.train()
                    self._surrogate = tier
                    self._surrogate_config = key
        return self._surrogate

    def _lru_usable(self, result: IntervalResult, surrogate_on: bool,
                    ) -> bool:
        """Whether an LRU entry may be served under the active config.

        Surrogate-tagged entries are only valid while the surrogate is
        on (and never during its own training); otherwise they read as
        misses and the interval pass recomputes and replaces them.
        """
        if result.tier == "interval":
            return True
        return (not self._training) and surrogate_on

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
                              mode: Mode) -> np.ndarray:
        """Apply mode-dependent front-end effects to phase physics.

        With cluster 2 gated, only its half of the split instruction
        cache and uop cache is usable, so low-power mode observes more
        front-end misses for the same code footprint. Accepts one
        ``(T, F)`` matrix or a stack ``(P, T, F)`` of them; the
        adjustments are elementwise, so stacked rows carry the same
        bits as per-matrix calls.
        """
        if mode is Mode.HIGH_PERF:
            return physics
        adjusted = physics.copy()
        adjusted[..., _F["icache_mpki"]] *= LOW_POWER_ICACHE_FACTOR
        miss_rate = 1.0 - adjusted[..., _F["uopcache_hit_rate"]]
        adjusted[..., _F["uopcache_hit_rate"]] = np.clip(
            1.0 - miss_rate * LOW_POWER_UOPC_MISS_FACTOR, 0.0, 1.0)
        return adjusted

    def cpi_components(self, physics: np.ndarray, mode: Mode,
                       ) -> dict[str, np.ndarray]:
        """CPI decomposition for each interval (interval analysis).

        ``physics`` must already be mode-adjusted. Returns a dict of
        additive CPI components, all shaped ``(T,)``.
        """
        m = self.machine
        width = self.effective_width(mode)
        ilp = physics[:, _F["ilp"]]
        cpi_base = 1.0 / np.minimum(width, ilp)

        refill = MISPREDICT_REFILL_UOPS / width
        cpi_branch = (physics[:, _F["branch_mpki"]] / 1000.0
                      * (m.branch_mispredict_penalty + refill))
        cpi_frontend = (
            physics[:, _F["icache_mpki"]] / 1000.0 * m.icache_miss_penalty
            + (1.0 - physics[:, _F["uopcache_hit_rate"]])
            * UOPCACHE_MISS_PENALTY
        )
        cpi_tlb = ((physics[:, _F["itlb_mpki"]] + physics[:, _F["dtlb_mpki"]])
                   / 1000.0 * m.tlb_miss_penalty)

        l1d = physics[:, _F["l1d_mpki"]]
        l2 = physics[:, _F["l2_mpki"]]
        l3 = physics[:, _F["l3_mpki"]]
        mem_cost = ((l1d - l2) * m.l2_latency
                    + (l2 - l3) * m.l3_latency
                    + l3 * m.memory_latency) / 1000.0
        mlp_eff = np.clip(physics[:, _F["mlp"]], 1.0, self.mshr_cap(mode))
        cpi_memory = mem_cost / mlp_eff * (1.0 - MEMORY_OVERLAP)

        sq_penalty = (SQ_PENALTY_LOW_POWER if mode is Mode.LOW_POWER
                      else SQ_PENALTY_HIGH_PERF)
        cpi_sq = (physics[:, _F["sq_pressure"]]
                  * physics[:, _F["frac_store"]] * sq_penalty)

        if mode is Mode.HIGH_PERF:
            cpi_xc = np.full_like(cpi_base,
                                  m.intercluster_uop_fraction
                                  * m.intercluster_latency / width
                                  * UOPS_PER_INSTRUCTION)
        else:
            cpi_xc = np.zeros_like(cpi_base)

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
        config = active_exec_config()
        key = (trace.name, trace.seed, trace.n_intervals, mode)
        cached = self._cache.get(key)
        if cached is not None and self._lru_usable(cached, config.surrogate):
            self._cache.move_to_end(key)
            METRICS.incr("interval_lru.hit")
            return cached
        METRICS.incr("interval_lru.miss")
        # Tier-0 fast path: the surrogate decides *before* the disk
        # result tier, so a pair's tier outcome is a pure function of
        # (trace, mode, trained surrogate) — never of LRU or disk
        # state. Accepted results enter the LRU only; the disk result
        # tier stores interval-tier truth exclusively.
        surrogate = self._surrogate_tier(config)
        if surrogate is not None:
            result = surrogate.score_one(trace, mode)
            if result is not None:
                self._remember(key, result)
                return result
        disk_key = None
        if self.simcache is not None:
            disk_key = self.simcache.sim_key(trace, mode, self.machine)
            result = self.simcache.load_result(disk_key)
            if result is not None:
                self._remember(key, result)
                return result
        with METRICS.stage("interval_simulate"):
            result = self._simulate_uncached(trace, mode)
        self._remember(key, result)
        if disk_key is not None:
            self.simcache.store_result(disk_key, result)
        return result

    def _simulate_uncached(self, trace: TraceSpec,
                           mode: Mode) -> IntervalResult:
        """The actual simulation, bypassing both cache tiers."""
        physics = self.mode_adjusted_physics(
            self._jittered_physics(trace), mode)
        components = self.cpi_components(physics, mode)
        cpi = np.zeros(physics.shape[0])
        for part in components.values():
            cpi = cpi + part
        if np.any(cpi <= 0.0):
            raise SimulationError("non-positive CPI encountered")
        width = self.effective_width(mode)
        ipc = np.minimum(1.0 / cpi, width)
        cpi = 1.0 / ipc
        inst = float(trace.interval_instructions)
        cycles = inst * cpi
        signals = self._signals(trace, physics, components, cpi, cycles, mode)
        return IntervalResult(
            trace_name=trace.name,
            mode=mode,
            ipc=ipc,
            cycles=cycles,
            signals=signals,
            interval_instructions=trace.interval_instructions,
        )

    def _remember(self, key: tuple, result: IntervalResult) -> None:
        """Insert into the bounded LRU memo."""
        self._cache[key] = result
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def simulate_both(self, trace: TraceSpec,
                      ) -> dict[Mode, IntervalResult]:
        """Simulate a trace in both modes (the paper's data recipe)."""
        if active_exec_config().batch_sim:
            batch = self.simulate_batch([trace])
            return {mode: batch[(trace.name, trace.seed,
                                 trace.n_intervals, mode)]
                    for mode in Mode}
        return {mode: self.simulate(trace, mode) for mode in Mode}

    # ------------------------------------------------------------------
    # Batched simulation.
    # ------------------------------------------------------------------
    def simulate_batch(self, traces, modes=None,
                       ) -> dict[tuple, IntervalResult]:
        """Simulate many (trace, mode) pairs in stacked tensor passes.

        Physics matrices for all cache-missing pairs are stacked into
        one ``(P, T, F)`` tensor (grouped by interval count ``T``) and
        the CPI decomposition plus every base signal are computed in a
        single vectorised pass. Every array operation is elementwise,
        so each row of the batch is bit-identical to a scalar
        :meth:`simulate` call (enforced by tests/test_batch_kernels.py).

        Both cache tiers are honoured per pair: LRU and disk hits are
        sliced out up front and only the misses are computed; fresh
        results enter both tiers exactly as in :meth:`simulate`.

        Returns a dict keyed by ``(name, seed, n_intervals, mode)`` —
        the same key :meth:`simulate` memoises under.
        """
        modes_t = tuple(Mode) if modes is None else tuple(modes)
        pairs = []
        seen = set()
        for trace in traces:
            for mode in modes_t:
                key = (trace.name, trace.seed, trace.n_intervals, mode)
                if key not in seen:
                    seen.add(key)
                    pairs.append((key, trace, mode))

        config = active_exec_config()
        results: dict[tuple, IntervalResult] = {}
        lru_misses = []
        for key, trace, mode in pairs:
            cached = self._cache.get(key)
            if cached is not None and self._lru_usable(cached,
                                                       config.surrogate):
                self._cache.move_to_end(key)
                METRICS.incr("interval_lru.hit")
                results[key] = cached
                continue
            METRICS.incr("interval_lru.miss")
            lru_misses.append((key, trace, mode, None))
        if not lru_misses:
            return results

        # Tier-0 fast path: the surrogate scores every LRU miss first —
        # *before* the disk result tier — so a pair's tier outcome is a
        # pure function of (trace, mode, trained surrogate), never of
        # cache state. Accepted results enter the LRU but not the disk
        # result tier; only the gated remainder consults the disk and
        # pays the interval pass below, exactly as before.
        surrogate = self._surrogate_tier(config)
        if surrogate is not None:
            accepted, lru_misses = surrogate.score(lru_misses)
            for key, result in accepted.items():
                self._remember(key, result)
                results[key] = result
            if not lru_misses:
                return results

        misses = []
        for key, trace, mode, _ in lru_misses:
            disk_key = None
            if self.simcache is not None:
                disk_key = self.simcache.sim_key(trace, mode, self.machine)
                result = self.simcache.load_result(disk_key)
                if result is not None:
                    self._remember(key, result)
                    results[key] = result
                    continue
            misses.append((key, trace, mode, disk_key))
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
                computed = self._simulate_batch_uncached(
                    [(trace, mode) for _, trace, mode, _ in group])
                for (key, trace, mode, disk_key), result in zip(group,
                                                                computed):
                    self._remember(key, result)
                    if disk_key is not None:
                        self.simcache.store_result(disk_key, result)
                    results[key] = result
        return results

    def _simulate_batch_uncached(self, pairs: list[tuple[TraceSpec, Mode]],
                                 ) -> list[IntervalResult]:
        """Compute a batch of same-``T`` pairs, bypassing both caches."""
        modes = [mode for _, mode in pairs]
        # Workload jitter is per trace (shared between modes), so a
        # trace appearing in both modes is jittered once and its matrix
        # reused in both rows — exactly the values the scalar path sees.
        jittered: dict[tuple, np.ndarray] = {}
        rows = []
        for trace, _ in pairs:
            tkey = (trace.name, trace.seed, trace.n_intervals)
            if tkey not in jittered:
                jittered[tkey] = self._jittered_physics(trace)
            rows.append(jittered[tkey])
        physics = np.stack(rows)  # (P, T, F); rows are fresh copies

        # Mode-adjusted front end, applied in place on low-power rows
        # with the same elementwise ops as mode_adjusted_physics.
        lp_rows = np.flatnonzero(
            np.array([mode is Mode.LOW_POWER for mode in modes]))
        if lp_rows.size:
            physics[lp_rows, :, _F["icache_mpki"]] = (
                physics[lp_rows, :, _F["icache_mpki"]]
                * LOW_POWER_ICACHE_FACTOR)
            miss_rate = 1.0 - physics[lp_rows, :, _F["uopcache_hit_rate"]]
            physics[lp_rows, :, _F["uopcache_hit_rate"]] = np.clip(
                1.0 - miss_rate * LOW_POWER_UOPC_MISS_FACTOR, 0.0, 1.0)

        components = self._cpi_components_batch(physics, modes)
        cpi = np.zeros(physics.shape[:2])
        for part in components.values():
            cpi = cpi + part
        if np.any(cpi <= 0.0):
            raise SimulationError("non-positive CPI encountered")
        width = self._mode_col(modes, self.effective_width)
        ipc = np.minimum(1.0 / cpi, width)
        cpi = 1.0 / ipc
        inst = np.array([[float(trace.interval_instructions)]
                         for trace, _ in pairs])
        cycles = inst * cpi
        signals = self._signals_batch(pairs, physics, components, cpi, cycles)
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

    @staticmethod
    def _mode_col(modes: list[Mode], fn) -> np.ndarray:
        """Per-mode machine scalars as a broadcastable (P, 1) column."""
        return np.array([[fn(mode)] for mode in modes])

    def _cpi_components_batch(self, physics: np.ndarray, modes: list[Mode],
                              ) -> dict[str, np.ndarray]:
        """:meth:`cpi_components` over a stacked (P, T, F) tensor.

        Per-mode machine scalars broadcast as (P, 1) columns; every
        operation is elementwise, so row ``p`` equals
        ``cpi_components(physics[p], modes[p])`` bit for bit.
        """
        m = self.machine
        width = self._mode_col(modes, self.effective_width)
        ilp = physics[:, :, _F["ilp"]]
        cpi_base = 1.0 / np.minimum(width, ilp)

        refill = MISPREDICT_REFILL_UOPS / width
        cpi_branch = (physics[:, :, _F["branch_mpki"]] / 1000.0
                      * (m.branch_mispredict_penalty + refill))
        cpi_frontend = (
            physics[:, :, _F["icache_mpki"]] / 1000.0 * m.icache_miss_penalty
            + (1.0 - physics[:, :, _F["uopcache_hit_rate"]])
            * UOPCACHE_MISS_PENALTY
        )
        cpi_tlb = ((physics[:, :, _F["itlb_mpki"]]
                    + physics[:, :, _F["dtlb_mpki"]])
                   / 1000.0 * m.tlb_miss_penalty)

        l1d = physics[:, :, _F["l1d_mpki"]]
        l2 = physics[:, :, _F["l2_mpki"]]
        l3 = physics[:, :, _F["l3_mpki"]]
        mem_cost = ((l1d - l2) * m.l2_latency
                    + (l2 - l3) * m.l3_latency
                    + l3 * m.memory_latency) / 1000.0
        mlp_eff = np.clip(physics[:, :, _F["mlp"]], 1.0,
                          self._mode_col(modes, self.mshr_cap))
        cpi_memory = mem_cost / mlp_eff * (1.0 - MEMORY_OVERLAP)

        sq_penalty = np.array(
            [[SQ_PENALTY_LOW_POWER if mode is Mode.LOW_POWER
              else SQ_PENALTY_HIGH_PERF] for mode in modes])
        cpi_sq = (physics[:, :, _F["sq_pressure"]]
                  * physics[:, :, _F["frac_store"]] * sq_penalty)

        xc_const = (m.intercluster_uop_fraction * m.intercluster_latency
                    / self.effective_width(Mode.HIGH_PERF)
                    * UOPS_PER_INSTRUCTION)
        xc_col = np.array([[xc_const if mode is Mode.HIGH_PERF else 0.0]
                           for mode in modes])
        cpi_xc = np.broadcast_to(xc_col, cpi_base.shape).copy()

        return {
            "base": cpi_base,
            "branch": cpi_branch,
            "frontend": cpi_frontend,
            "tlb": cpi_tlb,
            "memory": cpi_memory,
            "store_queue": cpi_sq,
            "intercluster": cpi_xc,
        }

    def _signals_batch(self, pairs: list[tuple[TraceSpec, Mode]],
                       physics: np.ndarray,
                       components: dict[str, np.ndarray], cpi: np.ndarray,
                       cycles: np.ndarray) -> np.ndarray:
        """:meth:`_signals` over a stacked batch -> (P, T, N_SIGNALS).

        The deterministic signal synthesis is one tensor pass; only the
        per-pair measurement-noise draw stays a loop, because each pair
        owns a named RNG stream whose draw order must match the scalar
        path exactly.
        """
        m = self.machine
        modes = [mode for _, mode in pairs]
        n_pairs, t_count = cpi.shape
        inst = np.array([[float(trace.interval_instructions)]
                         for trace, _ in pairs])
        out = np.zeros((n_pairs, t_count, N_SIGNALS))

        def put(name: str, values: np.ndarray | float) -> None:
            out[:, :, signal_index(name)] = values

        ipc = 1.0 / cpi
        frac_load = physics[:, :, _F["frac_load"]]
        frac_store = physics[:, :, _F["frac_store"]]
        frac_branch = physics[:, :, _F["frac_branch"]]
        frac_fp = physics[:, :, _F["frac_fp"]]
        frac_int = 1.0 - (frac_load + frac_store + frac_branch + frac_fp)

        uops = inst * UOPS_PER_INSTRUCTION
        loads = inst * frac_load
        stores = inst * frac_store
        branches = inst * frac_branch
        l1d_misses = inst * physics[:, :, _F["l1d_mpki"]] / 1000.0
        l2_misses = inst * physics[:, :, _F["l2_mpki"]] / 1000.0
        l3_misses = inst * physics[:, :, _F["l3_mpki"]] / 1000.0
        icache_misses = inst * physics[:, :, _F["icache_mpki"]] / 1000.0
        br_miss = inst * physics[:, :, _F["branch_mpki"]] / 1000.0
        dirty = physics[:, :, _F["dirty_frac"]]
        uopc_hit = physics[:, :, _F["uopcache_hit_rate"]]
        width = self._mode_col(modes, self.effective_width)

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
        put("itlb_misses", inst * physics[:, :, _F["itlb_mpki"]] / 1000.0)
        put("dtlb_misses", inst * physics[:, :, _F["dtlb_mpki"]] / 1000.0)

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
        ilp = physics[:, :, _F["ilp"]]
        put("uops_ready", np.minimum(ilp, width) * cycles)
        avg_inst_latency = 5.0 + (components["memory"]
                                  * physics[:, :, _F["mlp"]]
                                  / np.maximum(frac_load, 0.02))
        in_flight = np.minimum(ipc * avg_inst_latency, m.rob_entries)
        put("rob_occupancy", in_flight * cycles)
        sched_total = np.array(
            [[m.cluster.scheduler_entries * mode.active_clusters]
             for mode in modes])
        sched_occ = np.minimum(in_flight * 0.45, sched_total)
        put("scheduler_occupancy", sched_occ * cycles)
        put("uops_stalled_dep",
            np.maximum(sched_occ - np.minimum(ilp, width), 0.0) * cycles)
        store_residency = 4.0 + physics[:, :, _F["sq_pressure"]] * 44.0
        sq_occ = np.minimum(frac_store * ipc * store_residency,
                            self._mode_col(modes, self.sq_entries))
        put("sq_occupancy", sq_occ * cycles)
        load_residency = 4.0 + (components["memory"] * 1000.0
                                / np.maximum(frac_load * 1000.0, 1.0))
        lq_occ = np.minimum(frac_load * ipc * load_residency,
                            self._mode_col(modes, self.lq_entries))
        put("lq_occupancy", lq_occ * cycles)
        # MSHR occupancy reflects exploited memory-level parallelism:
        # outstanding misses while memory-bound, capped by the MSHRs.
        mlp_exploited = np.clip(physics[:, :, _F["mlp"]], 1.0,
                                self._mode_col(modes, self.mshr_cap))
        put("mshr_occupancy", mlp_exploited * mem_share * cycles)

        put("preg_refs", uops * 1.9)
        put("preg_allocs", uops * 0.85)
        hp_col = np.array([[mode is Mode.HIGH_PERF] for mode in modes])
        put("intercluster_transfers",
            np.where(hp_col, uops * m.intercluster_uop_fraction, 0.0))
        put("mode_switches", 0.0)
        prefetches = l2_misses * 0.6
        put("prefetches_issued", prefetches)
        put("prefetch_hits", prefetches * 0.5)
        put("fp_divides", inst * frac_fp * 0.05)
        put("int_muls", inst * frac_int * 0.08)
        put("mem_bandwidth_bytes",
            (l3_misses + l2_evictions * dirty) * m.line_bytes)
        put("store_buffer_drains",
            stores * physics[:, :, _F["sq_pressure"]] * 0.1)

        # Per-interval sampling noise on event counts. Each pair owns a
        # named RNG stream, so the (T, N_SIGNALS) draw stays per pair.
        exact = [signal_index("cycles"), signal_index("instructions")]
        result = np.empty_like(out)
        for p, (trace, mode) in enumerate(pairs):
            rng = rng_mod.stream(trace.seed, "signal-noise", mode.value)
            noise_sigma = (0.01
                           + physics[p, :, _F["noise_scale"]][:, None] * 0.3)
            noise = np.exp(rng.normal(0.0, 1.0, (t_count, N_SIGNALS))
                           * noise_sigma)
            noise[:, exact] = 1.0
            result[p] = out[p] * noise
        return result

    # ------------------------------------------------------------------
    # Base-signal synthesis.
    # ------------------------------------------------------------------
    def _signals(self, trace: TraceSpec, physics: np.ndarray,
                 components: dict[str, np.ndarray], cpi: np.ndarray,
                 cycles: np.ndarray, mode: Mode) -> np.ndarray:
        """Emit all base signals for each interval."""
        m = self.machine
        t_count = physics.shape[0]
        inst = float(trace.interval_instructions)
        out = np.zeros((t_count, N_SIGNALS))

        def put(name: str, values: np.ndarray | float) -> None:
            out[:, signal_index(name)] = values

        ipc = 1.0 / cpi
        frac_load = physics[:, _F["frac_load"]]
        frac_store = physics[:, _F["frac_store"]]
        frac_branch = physics[:, _F["frac_branch"]]
        frac_fp = physics[:, _F["frac_fp"]]
        frac_int = 1.0 - (frac_load + frac_store + frac_branch + frac_fp)

        uops = inst * UOPS_PER_INSTRUCTION
        loads = inst * frac_load
        stores = inst * frac_store
        branches = inst * frac_branch
        l1d_misses = inst * physics[:, _F["l1d_mpki"]] / 1000.0
        l2_misses = inst * physics[:, _F["l2_mpki"]] / 1000.0
        l3_misses = inst * physics[:, _F["l3_mpki"]] / 1000.0
        icache_misses = inst * physics[:, _F["icache_mpki"]] / 1000.0
        br_miss = inst * physics[:, _F["branch_mpki"]] / 1000.0
        dirty = physics[:, _F["dirty_frac"]]
        uopc_hit = physics[:, _F["uopcache_hit_rate"]]
        width = self.effective_width(mode)

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
        put("itlb_misses", inst * physics[:, _F["itlb_mpki"]] / 1000.0)
        put("dtlb_misses", inst * physics[:, _F["dtlb_mpki"]] / 1000.0)

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
        ilp = physics[:, _F["ilp"]]
        put("uops_ready", np.minimum(ilp, width) * cycles)
        avg_inst_latency = 5.0 + (components["memory"] * physics[:, _F["mlp"]]
                                  / np.maximum(frac_load, 0.02))
        in_flight = np.minimum(ipc * avg_inst_latency, m.rob_entries)
        put("rob_occupancy", in_flight * cycles)
        sched_total = (m.cluster.scheduler_entries * mode.active_clusters)
        sched_occ = np.minimum(in_flight * 0.45, sched_total)
        put("scheduler_occupancy", sched_occ * cycles)
        put("uops_stalled_dep",
            np.maximum(sched_occ - np.minimum(ilp, width), 0.0) * cycles)
        store_residency = 4.0 + physics[:, _F["sq_pressure"]] * 44.0
        sq_occ = np.minimum(frac_store * ipc * store_residency,
                            self.sq_entries(mode))
        put("sq_occupancy", sq_occ * cycles)
        load_residency = 4.0 + (components["memory"] * 1000.0
                                / np.maximum(frac_load * 1000.0, 1.0))
        lq_occ = np.minimum(frac_load * ipc * load_residency,
                            self.lq_entries(mode))
        put("lq_occupancy", lq_occ * cycles)
        # MSHR occupancy reflects exploited memory-level parallelism:
        # outstanding misses while memory-bound, capped by the MSHRs.
        mlp_exploited = np.clip(physics[:, _F["mlp"]], 1.0,
                                self.mshr_cap(mode))
        put("mshr_occupancy", mlp_exploited * mem_share * cycles)

        put("preg_refs", uops * 1.9)
        put("preg_allocs", uops * 0.85)
        if mode is Mode.HIGH_PERF:
            put("intercluster_transfers",
                uops * m.intercluster_uop_fraction)
        put("mode_switches", 0.0)
        prefetches = l2_misses * 0.6
        put("prefetches_issued", prefetches)
        put("prefetch_hits", prefetches * 0.5)
        put("fp_divides", inst * frac_fp * 0.05)
        put("int_muls", inst * frac_int * 0.08)
        put("mem_bandwidth_bytes",
            (l3_misses + l2_evictions * dirty) * m.line_bytes)
        put("store_buffer_drains",
            stores * physics[:, _F["sq_pressure"]] * 0.1)

        # Per-interval sampling noise on event counts (not on cycles or
        # instructions, which the hardware counts exactly).
        rng = rng_mod.stream(trace.seed, "signal-noise", mode.value)
        noise_sigma = 0.01 + physics[:, _F["noise_scale"]][:, None] * 0.3
        noise = np.exp(rng.normal(0.0, 1.0, out.shape) * noise_sigma)
        exact = [signal_index("cycles"), signal_index("instructions")]
        noise[:, exact] = 1.0
        return out * noise
