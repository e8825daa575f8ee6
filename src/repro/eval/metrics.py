"""The paper's system-oriented prediction metrics (Section 4.2).

* **PGOS** — Percentage of Gating Opportunities Seized (Eq. 1), the
  recall of low-power predictions; PGOS drives PPW gains.
* **RSV** — Rate of SLA Violations (Eqs. 2-4): predictions are split
  into windows of ``W`` samples; a window violates the SLA in
  expectation when more than half its predictions are false positives
  (wrong low-power decisions); RSV is the fraction of violating
  windows. Large RSV flags *systematic* errors within a workload phase
  — a statistical blindspot — whereas spurious errors wash out.

The paper's window is ``W = R * T_SLA * L`` = 1600 predictions at 10k
granularity (16 GIPS, 1 ms). Our traces are scaled down ~100x, so
:func:`effective_sla_window` scales ``W`` by the same knob that scales
the datasets, keeping windows comparable to phase dwell times exactly
as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.config import DEFAULT_SLA, MachineConfig, SLAConfig
from repro.errors import DatasetError

#: Scale factor applied to the paper's SLA window length; the default
#: matches the ~100x trace-length scale-down of the default datasets.
SLA_WINDOW_SCALE = 0.01

#: Smallest usable window, in predictions.
MIN_WINDOW = 4


def effective_sla_window(granularity: int,
                         machine: MachineConfig | None = None,
                         sla: SLAConfig = DEFAULT_SLA,
                         window_scale: float = SLA_WINDOW_SCALE) -> int:
    """Scaled window size ``W`` in predictions (Eq. 2's sample size)."""
    machine = machine or MachineConfig()
    paper_w = sla.window_predictions(machine, granularity)
    return max(MIN_WINDOW, int(round(paper_w * window_scale)))


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based) with ties sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    # Tied runs in the sorted order all receive the mean of the
    # positions they span (scipy's "average" method).
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1],
                        [True])))
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        ranks[order[start:stop]] = 0.5 * (start + stop - 1) + 1.0
    return ranks


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation, dependency-free.

    Pearson correlation of average ranks (ties share their mean rank),
    matching ``scipy.stats.spearmanr``. Used to validate the cycle tier
    against the interval tier (``benchmarks/bench_sim_validation.py``).
    Returns 0.0 when either input has zero rank variance.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise DatasetError(
            f"shape mismatch: {x.shape} vs {y.shape}"
        )
    if x.size < 2:
        raise DatasetError(
            f"spearman needs at least 2 samples, got {x.size}"
        )
    rx = _ranks(x)
    ry = _ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


def mean_relative_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean of ``|pred - true| / |true|``."""
    y_true = np.asarray(y_true, dtype=np.float64).ravel()
    y_pred = np.asarray(y_pred, dtype=np.float64).ravel()
    if y_true.shape != y_pred.shape:
        raise DatasetError(
            f"shape mismatch: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise DatasetError("mean_relative_error needs at least 1 sample")
    if np.any(y_true == 0.0):
        raise DatasetError("mean_relative_error undefined for zero truth")
    return float(np.mean(np.abs(y_pred - y_true) / np.abs(y_true)))


def _check(y_true: np.ndarray, y_pred: np.ndarray,
           ) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true).astype(np.int64)
    y_pred = np.asarray(y_pred).astype(np.int64)
    if y_true.shape != y_pred.shape:
        raise DatasetError(
            f"shape mismatch: {y_true.shape} vs {y_pred.shape}"
        )
    return y_true, y_pred


def pgos(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Percentage of gating opportunities seized (Eq. 1), in [0, 1].

    Correct low-power predictions over ground-truth low-power
    intervals. Returns 0 when no gating opportunities exist.
    """
    y_true, y_pred = _check(y_true, y_pred)
    opportunities = int((y_true == 1).sum())
    if opportunities == 0:
        return 0.0
    seized = int(((y_pred == 1) & (y_true == 1)).sum())
    return seized / opportunities


def expected_false_positive(y_true: np.ndarray,
                            y_pred: np.ndarray) -> float:
    """Eq. 2: expectation of the false-positive indicator over a sample."""
    y_true, y_pred = _check(y_true, y_pred)
    if y_true.size == 0:
        raise DatasetError("empty sample")
    fp = (y_pred != y_true) & (y_true == 0)
    return float(fp.mean())


def violation_indicator_windows(y_true: np.ndarray, y_pred: np.ndarray,
                                window: int) -> np.ndarray:
    """Eq. 3: per-window violation indicators ``V``.

    Splits the prediction stream into consecutive windows of ``window``
    samples (dropping any partial tail) and marks each window whose
    expected false-positive rate exceeds 50% — i.e. a randomly
    recorded IPC measurement inside it is more likely than not to be
    found violating the SLA.
    """
    y_true, y_pred = _check(y_true, y_pred)
    if window <= 0:
        raise DatasetError(f"window must be positive, got {window}")
    n_windows = y_true.shape[0] // window
    if n_windows == 0:
        raise DatasetError(
            f"{y_true.shape[0]} predictions cannot fill a window of "
            f"{window}"
        )
    t_full = n_windows * window
    fp = ((y_pred != y_true) & (y_true == 0)).astype(np.float64)
    window_fp = fp[:t_full].reshape(n_windows, window).mean(axis=1)
    return (window_fp > 0.5).astype(np.int64)


def rsv(y_true: np.ndarray, y_pred: np.ndarray, window: int) -> float:
    """Eq. 4: rate of SLA violations over the window set, in [0, 1]."""
    indicators = violation_indicator_windows(y_true, y_pred, window)
    return float(indicators.mean())


def pooled_rsv(pairs: list[tuple[np.ndarray, np.ndarray]],
               window: int) -> float:
    """RSV pooled over several traces' prediction streams.

    Windows never straddle traces; the rate is over all windows of all
    traces, matching the paper's "complete set of samples spanning a
    trace".
    """
    indicators = [violation_indicator_windows(y_true, y_pred, window)
                  for y_true, y_pred in pairs
                  if y_true.shape[0] >= window]
    if not indicators:
        raise DatasetError("no trace fills a single window")
    return float(np.concatenate(indicators).mean())
