"""Cycle-level model of the two-cluster out-of-order core.

A trace-driven dataflow-with-resources simulator in the style used for
fast industrial timing studies: every micro-op's fetch, dispatch,
issue, completion and retirement cycles are computed in program order
subject to

* front-end bandwidth (split per cluster; halved in low-power mode)
  and mispredict redirect/refill;
* ROB, per-cluster scheduler, load-queue, store-queue and MSHR
  capacity (rings keyed by the cycle each older entry frees);
* per-cluster execution ports per uop class;
* dataflow dependencies with an inter-cluster bypass penalty when a
  value crosses clusters in high-performance mode;
* in-order retirement at the retire width.

The cluster-gating microcode flow is modelled by
:meth:`ClusteredCoreModel.mode_switch_cycles`. Validation tests check
this tier agrees with the fast interval model
(:mod:`repro.uarch.interval_model`) on IPC across phases and on the
low-power/high-performance ratio that drives gating labels.
"""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np

from repro import rng as rng_mod
from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.obs import tracer
from repro.uarch.isa import (
    BASE_LATENCY,
    MEM_DRAM,
    MEM_L2,
    MEM_L3,
    UopStream,
    UopType,
    synthesize_uops,
)
from repro.uarch.modes import Mode
from repro.workloads.phases import PhaseInstance

#: Extra decode/rename pipeline depth between fetch and dispatch.
FRONTEND_DEPTH = 5

#: Cycles to refill the front end after a mispredict redirect.
REDIRECT_REFILL = 3

#: Uops per steering chunk: large enough that most dependence chains
#: stay within one cluster, small enough to balance cluster load.
STEERING_CHUNK = 16

#: Maximum tolerated cluster-load imbalance (uops) before steering
#: overrides dependence locality.
STEERING_IMBALANCE = 12

#: Uops per wavefront chunk in the SoA kernel. Decoded numpy arrays
#: are materialised into plain Python lists one chunk at a time, which
#: bounds the transient list footprint while the scoreboard state
#: (rings, pools, front end, retirement) carries across chunks.
WAVEFRONT_CHUNK = 4096


@dataclasses.dataclass(frozen=True)
class CycleSimResult:
    """Aggregate outcome of one cycle-level run."""

    mode: Mode
    n_uops: int
    cycles: float
    branch_mispredicts: int
    loads: int
    stores: int
    l2_accesses: int
    l3_accesses: int
    dram_accesses: int
    intercluster_transfers: int

    @property
    def ipc(self) -> float:
        """Retired micro-ops per cycle."""
        if self.cycles <= 0:
            raise SimulationError("no cycles simulated")
        return self.n_uops / self.cycles


class _UnitPool:
    """A pool of pipelined execution units; pick the earliest free.

    ``free`` is a min-heap of unit-free times. Only the multiset of
    times matters: issuing always takes the minimum (``free[0]``) and
    replaces it with ``at + 1``, so the heap is observationally — and
    bit- — identical to the former linear scan while O(log units).
    """

    __slots__ = ("free",)

    def __init__(self, n_units: int) -> None:
        # All-equal entries already satisfy the heap invariant.
        self.free = [0.0] * max(n_units, 1)

    def issue(self, ready: float) -> float:
        """Issue at the earliest cycle >= ready with a free unit."""
        best_time = self.free[0]
        at = ready if ready > best_time else best_time
        heapq.heapreplace(self.free, at + 1.0)
        return at


class _Ring:
    """Capacity ring: entry ``i`` waits for entry ``i - size`` to free."""

    __slots__ = ("times", "size", "count")

    def __init__(self, size: int) -> None:
        self.size = max(size, 1)
        self.times = [0.0] * self.size
        self.count = 0

    def reserve(self, at: float) -> float:
        """Earliest cycle >= at when a slot is free (older slot reuse)."""
        slot = self.count % self.size
        gate = self.times[slot]
        self.count += 1
        return at if at > gate else gate

    def release(self, frees_at: float) -> None:
        """Record when the most recently reserved slot frees."""
        slot = (self.count - 1) % self.size
        self.times[slot] = frees_at


class ClusteredCoreModel:
    """Cycle-level two-cluster core for one operating mode.

    :meth:`execute` runs the structure-of-arrays kernel (decode +
    chunked wavefront scoreboard). Subclasses that override the
    outcome hooks fall back to :meth:`_execute_reference`, the
    original per-uop loop, since the SoA decode pass assumes the
    trace-annotated outcomes. The two are bit-identical on annotated
    streams, and the reference loop is the SoA kernel's test oracle.
    """

    def __init__(self, machine: MachineConfig | None = None,
                 mode: Mode = Mode.HIGH_PERF) -> None:
        self.machine = machine or MachineConfig()
        self.mode = mode

    @property
    def active_clusters(self) -> int:
        return self.mode.active_clusters

    def mode_switch_cycles(self, live_registers: int) -> float:
        """Microcode cost of gating cluster 2 (Section 3)."""
        live = min(live_registers, self.machine.max_register_transfers)
        return (self.machine.mode_switch_base_cycles
                + live / self.machine.width_low_power)

    # -- Outcome hooks: the trace-driven (annotated) tier reads the
    # -- stream's annotations; the structural tier overrides these to
    # -- consult real caches and branch predictors.
    def load_outcome(self, stream: UopStream, i: int) -> int:
        """Memory-hierarchy level for load ``i`` (MEM_L1..MEM_DRAM)."""
        return int(stream.mem_level[i])

    def store_outcome(self, stream: UopStream, i: int) -> None:
        """Observe store ``i`` (structural tier updates the caches)."""

    def branch_outcome(self, stream: UopStream, i: int) -> bool:
        """Whether branch ``i`` mispredicts."""
        return bool(stream.mispredicted[i])

    def _hooks_are_default(self) -> bool:
        """Whether outcomes come straight from the stream annotations."""
        cls = type(self)
        return (cls.load_outcome is ClusteredCoreModel.load_outcome
                and cls.store_outcome is ClusteredCoreModel.store_outcome
                and cls.branch_outcome is ClusteredCoreModel.branch_outcome)

    # ------------------------------------------------------------------
    def execute(self, stream: UopStream) -> CycleSimResult:
        """Run a micro-op stream to completion; return timing/events."""
        if self._hooks_are_default():
            return self._execute_soa(stream)
        return self._execute_reference(stream)

    def _execute_reference(self, stream: UopStream) -> CycleSimResult:
        """The original per-uop loop: ground truth for the SoA kernel."""
        machine = self.machine
        cluster_cfg = machine.cluster
        n_clusters = self.active_clusters
        fe_width = cluster_cfg.issue_width * n_clusters
        n = stream.n_uops

        rob = _Ring(machine.rob_entries)
        schedulers = [_Ring(cluster_cfg.scheduler_entries)
                      for _ in range(n_clusters)]
        load_queues = [_Ring(cluster_cfg.load_queue_entries)
                       for _ in range(n_clusters)]
        store_queues = [_Ring(cluster_cfg.store_queue_entries)
                        for _ in range(n_clusters)]
        mshrs = [_Ring(cluster_cfg.mshr_entries) for _ in range(n_clusters)]
        pools = []
        for _ in range(n_clusters):
            pools.append({
                int(UopType.ALU): _UnitPool(cluster_cfg.alu_units),
                int(UopType.MUL): _UnitPool(max(cluster_cfg.alu_units // 2,
                                                1)),
                int(UopType.FP): _UnitPool(cluster_cfg.fpu_units),
                int(UopType.LOAD): _UnitPool(cluster_cfg.load_ports),
                int(UopType.STORE): _UnitPool(cluster_cfg.store_ports),
                int(UopType.BRANCH): _UnitPool(cluster_cfg.alu_units),
            })

        complete = np.zeros(n)
        cluster_of = np.zeros(n, dtype=np.int8)
        cluster_load = [0] * n_clusters
        # The MEU drains one retired store per interval; a lone MEU in
        # low-power mode drains more slowly, so store bursts back up
        # the halved store queue — the physics behind the blindspot.
        drain_interval = 1.0 if n_clusters > 1 else 2.5
        last_drain = [0.0] * n_clusters
        retire_gate = 0.0
        retire_in_cycle = 0
        fe_cycle = 0.0
        fe_in_cycle = 0
        redirect_until = 0.0

        mem_latency_by_level = {
            MEM_L2: machine.l2_latency,
            MEM_L3: machine.l3_latency,
            MEM_DRAM: machine.memory_latency,
        }

        types = stream.types
        src1 = stream.src1
        src2 = stream.src2

        branch_misses = 0
        loads = stores = 0
        l2 = l3 = dram = 0
        xc_transfers = 0

        for i in range(n):
            # ---- Fetch: bandwidth + redirect. ----
            start = redirect_until
            if start < fe_cycle:
                start = fe_cycle
            if start > fe_cycle:
                fe_cycle = start
                fe_in_cycle = 0
            fetch = fe_cycle
            fe_in_cycle += 1
            if fe_in_cycle >= fe_width:
                fe_cycle += 1.0
                fe_in_cycle = 0

            # ---- Cluster steering: MOD-N fetch-group round robin,
            # following the producer only when it is recent enough for
            # the bypass to matter (Baniasadi/Moshovos-style heuristic).
            # Following every producer would collapse the whole stream
            # onto one cluster.
            if n_clusters == 1:
                cluster = 0
            else:
                if src1[i] >= 0 and i - src1[i] < STEERING_CHUNK:
                    cluster = int(cluster_of[src1[i]])
                else:
                    cluster = (i // STEERING_CHUNK) % n_clusters
                # Load-balance override: following producers alone
                # would pin every chain to the seed cluster.
                lightest = min(range(n_clusters),
                               key=cluster_load.__getitem__)
                if (cluster_load[cluster] - cluster_load[lightest]
                        > STEERING_IMBALANCE):
                    cluster = lightest
                cluster_load[cluster] += 1
            cluster_of[i] = cluster

            # ---- Dispatch: pipeline depth + structural capacity. ----
            dispatch = fetch + FRONTEND_DEPTH
            dispatch = rob.reserve(dispatch)
            dispatch = schedulers[cluster].reserve(dispatch)
            uop_type = int(types[i])
            if uop_type == int(UopType.LOAD):
                dispatch = load_queues[cluster].reserve(dispatch)
            elif uop_type == int(UopType.STORE):
                dispatch = store_queues[cluster].reserve(dispatch)

            # ---- Ready: dataflow with inter-cluster bypass. The
            # bypass penalty binds only for *fresh* values; older
            # results have already propagated to the register file.
            ready = dispatch + 1.0
            for src in (src1[i], src2[i]):
                if src < 0:
                    continue
                avail = complete[src]
                if cluster_of[src] != cluster:
                    xc_transfers += 1
                    if avail > dispatch - 8.0:
                        avail += machine.intercluster_latency
                if avail > ready:
                    ready = avail

            # ---- Issue and execute. ----
            issue_at = pools[cluster][uop_type].issue(ready)
            latency = float(BASE_LATENCY[UopType(uop_type)])
            if uop_type == int(UopType.LOAD):
                loads += 1
                level = self.load_outcome(stream, i)
                if level >= MEM_L2:
                    issue_at = mshrs[cluster].reserve(issue_at)
                    latency = float(mem_latency_by_level[level])
                    mshrs[cluster].release(issue_at + latency)
                    if level == MEM_L2:
                        l2 += 1
                    elif level == MEM_L3:
                        l3 += 1
                    else:
                        dram += 1
            elif uop_type == int(UopType.STORE):
                stores += 1
                self.store_outcome(stream, i)
            done = issue_at + latency
            complete[i] = done
            schedulers[cluster].release(issue_at + 1.0)

            # ---- Branch resolution. ----
            if (uop_type == int(UopType.BRANCH)
                    and self.branch_outcome(stream, i)):
                branch_misses += 1
                redirect = done + machine.branch_mispredict_penalty
                if redirect > redirect_until:
                    redirect_until = redirect
                    fe_cycle = redirect + REDIRECT_REFILL
                    fe_in_cycle = 0

            # ---- Retire in order at retire width. ----
            at = done
            if at < retire_gate:
                at = retire_gate
            if at == retire_gate:
                retire_in_cycle += 1
                if retire_in_cycle >= machine.retire_width:
                    retire_gate += 1.0
                    retire_in_cycle = 0
            else:
                retire_gate = at
                retire_in_cycle = 1
            rob.release(at)
            if uop_type == int(UopType.LOAD):
                load_queues[cluster].release(at)
            elif uop_type == int(UopType.STORE):
                # Stores drain from the SQ serially after retirement.
                drain_at = max(at + 2.0,
                               last_drain[cluster] + drain_interval)
                last_drain[cluster] = drain_at
                store_queues[cluster].release(drain_at)

        total_cycles = max(float(retire_gate), float(complete.max())) + 1.0
        return CycleSimResult(
            mode=self.mode,
            n_uops=n,
            cycles=total_cycles,
            branch_mispredicts=branch_misses,
            loads=loads,
            stores=stores,
            l2_accesses=l2,
            l3_accesses=l3,
            dram_accesses=dram,
            intercluster_transfers=xc_transfers,
        )

    def _execute_soa(self, stream: UopStream) -> CycleSimResult:
        """Structure-of-arrays scoreboard kernel.

        Three passes, bit-identical to :meth:`_execute_reference`:

        1. *Decode* (vectorized): uop classes, per-uop execution
           latency with the memory hierarchy folded in for loads that
           miss the L1, MSHR need, and branch-redirect flags are
           computed for the whole stream with array ops.
        2. *Events* (vectorized): load/store/mispredict/L2/L3/DRAM
           counts come from mask reductions instead of per-uop
           increments.
        3. *Timing* (chunked wavefront): the serial recurrence — ring
           reservations, unit-pool issue, dataflow with the
           inter-cluster bypass, retirement — runs over plain Python
           lists materialised one :data:`WAVEFRONT_CHUNK` at a time,
           with ring state inlined as slot-indexed lists (no per-call
           method dispatch) and unit pools as raw heaps.

        All floating-point operations happen in the same order and on
        the same IEEE doubles as the reference loop, so results match
        bit for bit (enforced by tests/test_batch_kernels.py).
        """
        n = stream.n_uops
        if n == 0:
            return self._execute_reference(stream)
        machine = self.machine
        cluster_cfg = machine.cluster
        n_clusters = self.active_clusters
        fe_width = cluster_cfg.issue_width * n_clusters

        types = stream.types.astype(np.int64, copy=False)
        src1 = stream.src1.astype(np.int64, copy=False)
        src2 = stream.src2.astype(np.int64, copy=False)
        mem_level = stream.mem_level.astype(np.int64, copy=False)

        t_load = int(UopType.LOAD)
        t_store = int(UopType.STORE)

        # ---- Decode pass (vectorized). ----
        base_lat = np.zeros(len(UopType))
        for uop_t, lat in BASE_LATENCY.items():
            base_lat[int(uop_t)] = float(lat)
        latency = base_lat[types]
        is_load = types == t_load
        needs_mshr = is_load & (mem_level >= MEM_L2)
        mem_lat = np.zeros(MEM_DRAM + 1)
        mem_lat[MEM_L2] = float(machine.l2_latency)
        mem_lat[MEM_L3] = float(machine.l3_latency)
        mem_lat[MEM_DRAM] = float(machine.memory_latency)
        latency = np.where(
            needs_mshr, mem_lat[np.clip(mem_level, 0, MEM_DRAM)], latency)
        redirects = (types == int(UopType.BRANCH)) & stream.mispredicted

        # ---- Event pass (vectorized). ----
        loads = int(np.count_nonzero(is_load))
        stores = int(np.count_nonzero(types == t_store))
        branch_misses = int(np.count_nonzero(redirects))
        l2 = int(np.count_nonzero(is_load & (mem_level == MEM_L2)))
        l3 = int(np.count_nonzero(is_load & (mem_level == MEM_L3)))
        dram = int(np.count_nonzero(is_load & (mem_level == MEM_DRAM)))

        # ---- Steering candidates (vectorized). ----
        multi = n_clusters > 1
        if multi:
            idx = np.arange(n)
            follow_np = np.where(
                (src1 >= 0) & (idx - src1 < STEERING_CHUNK), src1, -1)
            rr_np = (idx // STEERING_CHUNK) % n_clusters

        # ---- Timing scoreboard state (inlined rings + raw heaps). ----
        rob_size = max(machine.rob_entries, 1)
        sched_size = max(cluster_cfg.scheduler_entries, 1)
        lq_size = max(cluster_cfg.load_queue_entries, 1)
        sq_size = max(cluster_cfg.store_queue_entries, 1)
        mshr_size = max(cluster_cfg.mshr_entries, 1)
        rob_times = [0.0] * rob_size
        sched_times = [[0.0] * sched_size for _ in range(n_clusters)]
        lq_times = [[0.0] * lq_size for _ in range(n_clusters)]
        sq_times = [[0.0] * sq_size for _ in range(n_clusters)]
        mshr_times = [[0.0] * mshr_size for _ in range(n_clusters)]
        sched_count = [0] * n_clusters
        lq_count = [0] * n_clusters
        sq_count = [0] * n_clusters
        mshr_count = [0] * n_clusters
        pool_units = {
            int(UopType.ALU): cluster_cfg.alu_units,
            int(UopType.MUL): max(cluster_cfg.alu_units // 2, 1),
            int(UopType.FP): cluster_cfg.fpu_units,
            int(UopType.LOAD): cluster_cfg.load_ports,
            int(UopType.STORE): cluster_cfg.store_ports,
            int(UopType.BRANCH): cluster_cfg.alu_units,
        }
        pools = [[[0.0] * max(pool_units[t], 1) for t in range(len(UopType))]
                 for _ in range(n_clusters)]

        complete = [0.0] * n
        cluster_of = [0] * n
        cluster_load = [0] * n_clusters
        drain_interval = 1.0 if multi else 2.5
        last_drain = [0.0] * n_clusters
        retire_gate = 0.0
        retire_in_cycle = 0
        fe_cycle = 0.0
        fe_in_cycle = 0
        redirect_until = 0.0
        max_done = 0.0
        xc_transfers = 0
        xc_latency = float(machine.intercluster_latency)
        penalty = float(machine.branch_mispredict_penalty)
        refill = float(REDIRECT_REFILL)
        retire_width = machine.retire_width
        heapreplace = heapq.heapreplace

        for lo in range(0, n, WAVEFRONT_CHUNK):
            hi = min(lo + WAVEFRONT_CHUNK, n)
            c_type = types[lo:hi].tolist()
            c_src1 = src1[lo:hi].tolist()
            c_src2 = src2[lo:hi].tolist()
            c_lat = latency[lo:hi].tolist()
            c_mshr = needs_mshr[lo:hi].tolist()
            c_redirect = redirects[lo:hi].tolist()
            if multi:
                c_follow = follow_np[lo:hi].tolist()
                c_rr = rr_np[lo:hi].tolist()
            for k in range(hi - lo):
                i = lo + k
                # ---- Fetch: bandwidth + redirect. ----
                if redirect_until > fe_cycle:
                    fe_cycle = redirect_until
                    fe_in_cycle = 0
                fetch = fe_cycle
                fe_in_cycle += 1
                if fe_in_cycle >= fe_width:
                    fe_cycle += 1.0
                    fe_in_cycle = 0

                # ---- Cluster steering (same heuristic as reference).
                if multi:
                    f = c_follow[k]
                    cluster = cluster_of[f] if f >= 0 else c_rr[k]
                    if n_clusters == 2:
                        lightest = (0 if cluster_load[0] <= cluster_load[1]
                                    else 1)
                    else:
                        lightest = min(range(n_clusters),
                                       key=cluster_load.__getitem__)
                    if (cluster_load[cluster] - cluster_load[lightest]
                            > STEERING_IMBALANCE):
                        cluster = lightest
                    cluster_load[cluster] += 1
                else:
                    cluster = 0
                cluster_of[i] = cluster

                # ---- Dispatch: pipeline depth + structural capacity.
                dispatch = fetch + FRONTEND_DEPTH
                rob_slot = i % rob_size
                gate = rob_times[rob_slot]
                if gate > dispatch:
                    dispatch = gate
                st = sched_times[cluster]
                sched_slot = sched_count[cluster] % sched_size
                sched_count[cluster] += 1
                gate = st[sched_slot]
                if gate > dispatch:
                    dispatch = gate
                ut = c_type[k]
                if ut == t_load:
                    qt = lq_times[cluster]
                    q_slot = lq_count[cluster] % lq_size
                    lq_count[cluster] += 1
                    gate = qt[q_slot]
                    if gate > dispatch:
                        dispatch = gate
                elif ut == t_store:
                    qt = sq_times[cluster]
                    q_slot = sq_count[cluster] % sq_size
                    sq_count[cluster] += 1
                    gate = qt[q_slot]
                    if gate > dispatch:
                        dispatch = gate

                # ---- Ready: dataflow with inter-cluster bypass. ----
                ready = dispatch + 1.0
                bypass_gate = dispatch - 8.0
                s = c_src1[k]
                if s >= 0:
                    avail = complete[s]
                    if cluster_of[s] != cluster:
                        xc_transfers += 1
                        if avail > bypass_gate:
                            avail += xc_latency
                    if avail > ready:
                        ready = avail
                s = c_src2[k]
                if s >= 0:
                    avail = complete[s]
                    if cluster_of[s] != cluster:
                        xc_transfers += 1
                        if avail > bypass_gate:
                            avail += xc_latency
                    if avail > ready:
                        ready = avail

                # ---- Issue and execute. ----
                pool = pools[cluster][ut]
                best = pool[0]
                issue_at = ready if ready > best else best
                heapreplace(pool, issue_at + 1.0)
                lat = c_lat[k]
                if c_mshr[k]:
                    mt = mshr_times[cluster]
                    m_slot = mshr_count[cluster] % mshr_size
                    mshr_count[cluster] += 1
                    gate = mt[m_slot]
                    if gate > issue_at:
                        issue_at = gate
                    mt[m_slot] = issue_at + lat
                done = issue_at + lat
                complete[i] = done
                if done > max_done:
                    max_done = done
                st[sched_slot] = issue_at + 1.0

                # ---- Branch resolution. ----
                if c_redirect[k]:
                    redirect = done + penalty
                    if redirect > redirect_until:
                        redirect_until = redirect
                        fe_cycle = redirect + refill
                        fe_in_cycle = 0

                # ---- Retire in order at retire width. ----
                at = done if done > retire_gate else retire_gate
                if at == retire_gate:
                    retire_in_cycle += 1
                    if retire_in_cycle >= retire_width:
                        retire_gate += 1.0
                        retire_in_cycle = 0
                else:
                    retire_gate = at
                    retire_in_cycle = 1
                rob_times[rob_slot] = at
                if ut == t_load:
                    qt[q_slot] = at
                elif ut == t_store:
                    drain_at = at + 2.0
                    floor = last_drain[cluster] + drain_interval
                    if floor > drain_at:
                        drain_at = floor
                    last_drain[cluster] = drain_at
                    qt[q_slot] = drain_at

        total_cycles = max(retire_gate, max_done) + 1.0
        return CycleSimResult(
            mode=self.mode,
            n_uops=n,
            cycles=total_cycles,
            branch_mispredicts=branch_misses,
            loads=loads,
            stores=stores,
            l2_accesses=l2,
            l3_accesses=l3,
            dram_accesses=dram,
            intercluster_transfers=xc_transfers,
        )


def simulate_phase_cycle_level(phase: PhaseInstance, n_uops: int,
                               mode: Mode, seed: int,
                               machine: MachineConfig | None = None,
                               ) -> CycleSimResult:
    """Synthesize a uop stream for a phase and run the cycle model."""
    with tracer.span("cycle.simulate_phase", phase=phase.name,
                     mode=mode.value, uops=n_uops):
        stream = synthesize_uops(phase, n_uops,
                                 rng_mod.derive_seed(seed, "cyclesim",
                                                     phase.name,
                                                     mode.value))
        return ClusteredCoreModel(machine, mode).execute(stream)
