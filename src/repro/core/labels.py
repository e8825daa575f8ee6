"""Ground-truth gating labels (Section 4.1 / Figure 3).

For every interval, the trace is simulated in both cluster
configurations; the label is 1 ("gate cluster 2") when low-power-mode
IPC meets the SLA performance threshold relative to high-performance
IPC, and 0 otherwise. Coarser prediction granularities aggregate
cycles over successive base intervals before taking the ratio.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import DEFAULT_SLA, SLAConfig
from repro.errors import DatasetError
from repro.uarch.interval_model import IntervalModel, IntervalResult
from repro.uarch.modes import Mode
from repro.workloads.generator import TraceSpec


def coarsen_cycles(cycles: np.ndarray, factor: int) -> np.ndarray:
    """Sum cycles over successive ``factor``-interval groups."""
    if factor <= 0:
        raise DatasetError(f"factor must be positive, got {factor}")
    if factor == 1:
        return cycles
    t_full = (cycles.shape[0] // factor) * factor
    if t_full == 0:
        raise DatasetError("trace too short for requested granularity")
    return cycles[:t_full].reshape(-1, factor).sum(axis=1)


@dataclasses.dataclass(frozen=True)
class LabelSet:
    """Per-interval gating ground truth for one trace."""

    trace_name: str
    labels: np.ndarray  # (T,) 1 = gate / low-power meets the SLA
    ratio: np.ndarray  # (T,) IPC_low / IPC_high
    ipc_high: np.ndarray
    ipc_low: np.ndarray
    cycles_high: np.ndarray
    cycles_low: np.ndarray
    granularity: int
    sla_floor: float

    @property
    def n_intervals(self) -> int:
        return int(self.labels.shape[0])

    @property
    def residency(self) -> float:
        """Ideal low-power residency: fraction of gateable intervals."""
        if self.n_intervals == 0:
            raise DatasetError("empty label set")
        return float(self.labels.mean())


def gating_labels(trace: TraceSpec, sla: SLAConfig = DEFAULT_SLA,
                  model: IntervalModel | None = None,
                  granularity_factor: int = 1,
                  results: dict[Mode, IntervalResult] | None = None,
                  ) -> LabelSet:
    """Compute gating labels for a trace.

    Parameters
    ----------
    granularity_factor:
        Prediction granularity in multiples of the 10k-instruction base
        interval (e.g. 4 for the Best RF's 40k interval).
    results:
        Pre-computed both-mode simulation results to reuse.
    """
    if results is None:
        results = (model or IntervalModel()).simulate_both(trace)
    cycles_high = coarsen_cycles(results[Mode.HIGH_PERF].cycles,
                                 granularity_factor)
    cycles_low = coarsen_cycles(results[Mode.LOW_POWER].cycles,
                                granularity_factor)
    inst = trace.interval_instructions * granularity_factor
    ipc_high = inst / cycles_high
    ipc_low = inst / cycles_low
    ratio = ipc_low / ipc_high
    labels = (ratio >= sla.performance_floor).astype(np.int64)
    return LabelSet(
        trace_name=trace.name,
        labels=labels,
        ratio=ratio,
        ipc_high=ipc_high,
        ipc_low=ipc_low,
        cycles_high=cycles_high,
        cycles_low=cycles_low,
        granularity=inst,
        sla_floor=sla.performance_floor,
    )


def ideal_residency(traces: list[TraceSpec], sla: SLAConfig = DEFAULT_SLA,
                    model: IntervalModel | None = None,
                    granularity_factor: int = 1) -> float:
    """Mean ideal low-power residency across traces (Figure 7)."""
    model = model or IntervalModel()
    residencies = [
        gating_labels(trace, sla, model, granularity_factor).residency
        for trace in traces
    ]
    if not residencies:
        raise DatasetError("no traces supplied")
    return float(np.mean(residencies))
