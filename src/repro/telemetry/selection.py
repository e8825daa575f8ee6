"""Counter screening and PF (Perona-Freeman) spectral selection.

Section 6.2 of the paper: start from all 936 counters, apply two
heuristic screens —

1. *Low activity*: flag counters that read zero for more than 15% of a
   trace; remove counters flagged in more than 5% of traces.
2. *Low signal-to-noise*: remove the bottom 50% of counters by
   standard deviation.

— then run Algorithm 1 (an adaptation of the Perona-Freeman
factorisation): repeatedly eigendecompose the covariance of the
surviving counters, read the second eigenvector, take the counter with
the largest-magnitude coefficient as the representative of a cluster of
statistically interchangeable counters (all counters whose relative
coefficient magnitude exceeds a similarity threshold ``tau``), remove
the cluster, and iterate until ``r`` counters are chosen.

Statistics are accumulated streaming (sums and outer-product sums), so
selection over hundreds of traces never materialises the full
``traces x intervals x 936`` tensor.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import DatasetError
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.counters import CounterCatalog
from repro.uarch.interval_model import BUILD_BATCH_TRACES, pair_key
from repro.uarch.modes import Mode
from repro.workloads.generator import TraceSpec


@dataclasses.dataclass
class SelectionStats:
    """Streaming statistics over normalised counter data."""

    n_counters: int
    n_samples: int
    sum_x: np.ndarray  # (C,)
    sum_outer: np.ndarray  # (C, C)
    zero_flags: np.ndarray  # (n_traces,) bool rows x (C,) - fraction flags
    n_traces: int
    sum_lag: np.ndarray  # (C,) sum of x_t * x_{t+1}
    n_lag: int  # number of lag pairs accumulated

    @property
    def mean(self) -> np.ndarray:
        if self.n_samples == 0:
            raise DatasetError("no samples accumulated")
        return self.sum_x / self.n_samples

    @property
    def covariance(self) -> np.ndarray:
        mu = self.mean
        cov = self.sum_outer / self.n_samples - np.outer(mu, mu)
        # Numerical floor: tiny negative variances from cancellation.
        diag = np.maximum(np.diag(cov).copy(), 0.0)
        np.fill_diagonal(cov, diag)
        return cov

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))

    @property
    def flagged_trace_fraction(self) -> np.ndarray:
        """Fraction of traces in which each counter was low-activity."""
        if self.n_traces == 0:
            raise DatasetError("no traces accumulated")
        return self.zero_flags.sum(axis=0) / self.n_traces

    @property
    def lag1_autocorrelation(self) -> np.ndarray:
        """Lag-1 autocorrelation of each counter.

        A measurable signal-to-noise proxy: workload phases persist
        across intervals, so a counter dominated by real phase signal
        has high lag-1 autocorrelation, while white measurement noise
        pushes it toward zero.
        """
        if self.n_lag == 0:
            raise DatasetError("no lag pairs accumulated")
        mu = self.mean
        var = np.maximum(np.diag(self.covariance), 1e-24)
        lag_cov = self.sum_lag / self.n_lag - mu * mu
        return np.clip(lag_cov / var, -1.0, 1.0)


#: Rows per ``sum_outer`` update: one gemm over about four 100-interval
#: snapshots (~3 MB at 936 counters) instead of one small gemm each.
OUTER_BLOCK_ROWS = 400


def gather_selection_stats(collector: TelemetryCollector,
                           traces: list[TraceSpec],
                           modes: tuple[Mode, ...] = (Mode.HIGH_PERF,
                                                      Mode.LOW_POWER),
                           zero_interval_fraction: float = 0.15,
                           ) -> SelectionStats:
    """Accumulate selection statistics over traces (both modes).

    ``zero_interval_fraction`` is the paper's 15%: a counter is flagged
    low-activity within a trace when it reads zero in more than that
    fraction of the trace's intervals.

    Traces are simulated in stacked passes of
    :data:`~repro.uarch.interval_model.BUILD_BATCH_TRACES` (pairs whose
    full-catalog snapshot is already on disk are skipped) whose results
    are snapshotted and dropped without entering the model's LRU, and
    ``sum_outer`` is updated once per block of about
    :data:`OUTER_BLOCK_ROWS` rows. The block boundaries depend only on
    the snapshot sequence, so the sums are the same on every run.
    """
    model = collector.model
    n_counters = len(collector.catalog)
    ids = np.arange(n_counters)
    sum_x = np.zeros(n_counters)
    sum_outer = np.zeros((n_counters, n_counters))
    sum_lag = np.zeros(n_counters)
    flags: list[np.ndarray] = []
    block: list[np.ndarray] = []
    n_samples = 0
    n_lag = 0

    def flush() -> None:
        nonlocal sum_outer
        x = block[0] if len(block) == 1 else np.concatenate(block)
        sum_outer += x.T @ x
        block.clear()

    for start in range(0, len(traces), BUILD_BATCH_TRACES):
        sub = traces[start:start + BUILD_BATCH_TRACES]
        sub_sim = [trace for trace in sub
                   if not all(collector.has_snapshot(trace, mode, ids)
                              for mode in modes)]
        results = (model.simulate_batch(sub_sim, modes, remember=False)
                   if sub_sim else {})
        for trace in sub:
            for mode in modes:
                snap = collector.snapshot(
                    trace, mode, result=results.get(pair_key(trace, mode)))
                x = snap.normalized
                sum_x += x.sum(axis=0)
                block.append(x)
                if sum(len(b) for b in block) >= OUTER_BLOCK_ROWS:
                    flush()
                n_samples += x.shape[0]
                if x.shape[0] > 1:
                    sum_lag += (x[:-1] * x[1:]).sum(axis=0)
                    n_lag += x.shape[0] - 1
                zero_frac = (snap.counts == 0).mean(axis=0)
                flags.append(zero_frac > zero_interval_fraction)
    if block:
        flush()
    return SelectionStats(
        n_counters=n_counters,
        n_samples=n_samples,
        sum_x=sum_x,
        sum_outer=sum_outer,
        zero_flags=np.array(flags, dtype=bool),
        n_traces=len(flags),
        sum_lag=sum_lag,
        n_lag=n_lag,
    )


def screen_low_activity(stats: SelectionStats,
                        trace_fraction: float = 0.05) -> np.ndarray:
    """Counters surviving the low-activity screen (paper: >5% of traces)."""
    return np.flatnonzero(stats.flagged_trace_fraction <= trace_fraction)


def screen_low_std(stats: SelectionStats, surviving: np.ndarray,
                   keep_fraction: float = 0.5) -> np.ndarray:
    """Drop the bottom half of surviving counters by standard deviation.

    Standard deviations are compared on mean-relative scale (coefficient
    of variation) so counters with different natural magnitudes compete
    fairly — low CV means low signal-to-noise under the paper's
    post-silicon Gaussian-variation assumption.
    """
    std = stats.std[surviving]
    mean = np.abs(stats.mean[surviving])
    cv = std / np.maximum(mean, 1e-12)
    keep = max(1, int(round(len(surviving) * keep_fraction)))
    order = np.argsort(-cv, kind="stable")
    kept = surviving[np.sort(order[:keep])]
    return kept


@dataclasses.dataclass(frozen=True)
class PFSelectionResult:
    """Output of PF counter selection."""

    selected_ids: list[int]
    groups: list[list[int]]  # counter-id cluster removed at each step
    screened_ids: np.ndarray  # counters that survived both screens

    def names(self, catalog: CounterCatalog) -> list[str]:
        """Display names of the selected counters."""
        return [catalog[i].name for i in self.selected_ids]


def pf_counter_selection(stats: SelectionStats, r: int = 12,
                         tau: float = 0.7,
                         trace_fraction: float = 0.05,
                         keep_fraction: float = 0.5) -> PFSelectionResult:
    """Algorithm 1: screens plus Perona-Freeman spectral selection.

    Works on the *correlation* matrix of surviving counters (the
    centred, variance-normalised covariance), so a cluster is a set of
    counters that move together regardless of units. Each cluster's
    representative is the member with the highest lag-1 autocorrelation
    — the highest-signal-to-noise view of the cluster's shared signal —
    with ties broken toward the lowest counter id (the catalog's
    canonical, architecturally-documented counters come first).
    """
    surviving = screen_low_activity(stats, trace_fraction)
    surviving = screen_low_std(stats, surviving, keep_fraction)
    if surviving.size == 0:
        raise DatasetError("no counters survive the screens")

    cov = stats.covariance[np.ix_(surviving, surviving)]
    std = np.sqrt(np.maximum(np.diag(cov), 1e-24))
    corr = cov / np.outer(std, std)
    np.fill_diagonal(corr, 1.0)

    autocorr = stats.lag1_autocorrelation
    remaining = surviving.copy()
    matrix = corr
    selected: list[int] = []
    groups: list[list[int]] = []
    for _ in range(r):
        n = matrix.shape[0]
        if n == 0:
            break
        if n == 1:
            selected.append(int(remaining[0]))
            groups.append([int(remaining[0])])
            break
        # Second eigenvector (second-largest eigenvalue), per Alg. 1;
        # eigh orders the columns by ascending eigenvalue.
        second = np.abs(np.linalg.eigh(matrix)[1][:, n - 2])
        peak = second.max()
        group_mask = second / max(peak, 1e-24) > tau
        group_mask[int(second.argmax())] = True
        members = remaining[group_mask]
        # Representative: cleanest view of the cluster's shared signal.
        rho = autocorr[members]
        best = rho.max()
        near_best = members[rho >= best - 0.02]
        pick = int(near_best.min())
        selected.append(pick)
        groups.append([int(c) for c in members])
        keep_mask = ~group_mask
        remaining = remaining[keep_mask]
        matrix = matrix[np.ix_(keep_mask, keep_mask)]
    if len(selected) < r:
        # Large redundancy groups can exhaust the pool before r picks;
        # backfill with the next-cleanest members of the removed
        # groups, in removal order, so the result always has r
        # counters (required by downstream fixed-width models).
        chosen = set(selected)
        for group in groups:
            members = [c for c in group if c not in chosen]
            members.sort(key=lambda c: -autocorr[c])
            for counter in members:
                if len(selected) >= r:
                    break
                selected.append(counter)
                chosen.add(counter)
            if len(selected) >= r:
                break
    return PFSelectionResult(
        selected_ids=selected,
        groups=groups,
        screened_ids=surviving,
    )
