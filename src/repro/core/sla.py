"""System-level SLA window accounting.

Section 3.1: the SLA guarantees that the (possibly gated) core performs
within :math:`P_{SLA}` of high-performance mode, measured in IPC over
:math:`T_{SLA}` windows, for at least 99% of windows. This module
measures that guarantee directly on a deployed run by comparing the
adaptive core's windowed IPC against the all-high-performance baseline.

The *prediction-error* formulation of SLA violations (Eqs. 2-4) lives
in :mod:`repro.eval.metrics`; the paper reports that one, but the
system-level check here is what a customer would actually observe.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import DatasetError


@dataclasses.dataclass(frozen=True)
class SLAAccounting:
    """Windowed SLA measurement over one deployed run."""

    n_windows: int
    n_violations: int
    window_ratios: np.ndarray  # per-window IPC_adaptive / IPC_baseline

    @property
    def violation_rate(self) -> float:
        if self.n_windows == 0:
            raise DatasetError("no complete SLA windows")
        return self.n_violations / self.n_windows

    def meets_guarantee(self, guarantee: float = 0.99) -> bool:
        """True when the fraction of good windows reaches the guarantee."""
        return (1.0 - self.violation_rate) >= guarantee


class RollingSLA:
    """Streaming SLA accounting over a sliding window of observations.

    The batch :func:`sla_window_violations` measures a finished run;
    serving needs the same semantics *online* — each served request
    contributes one (achieved, budget) pair and the question is "what
    fraction of the recent window violated the floor". This keeps a
    fixed-capacity ring of the most recent ratios and reduces to one
    :class:`SLAAccounting` window on demand, so the serving layer and
    the offline accounting share one definition of a violation
    (``ratio < floor``, strict — an exactly-on-budget observation
    complies).
    """

    def __init__(self, window: int, performance_floor: float = 1.0,
                 guarantee: float = 0.99) -> None:
        if window <= 0:
            raise DatasetError(f"window must be positive: {window}")
        if not 0.0 < guarantee <= 1.0:
            raise DatasetError(
                f"guarantee must be in (0, 1], got {guarantee}"
            )
        self.window = window
        self.performance_floor = performance_floor
        self.guarantee = guarantee
        self._ratios = np.zeros(window, dtype=np.float64)
        self._next = 0
        self._count = 0

    def observe(self, achieved: float, budget: float) -> None:
        """Record one observation as the ratio ``budget / achieved``.

        Mirrors the batch accounting (baseline / adaptive for equal
        work): a request that took longer than its budget, or a window
        whose IPC fell under the floor, yields a ratio below the floor.
        """
        ratio = budget / achieved if achieved > 0 else float("inf")
        self._ratios[self._next] = ratio
        self._next = (self._next + 1) % self.window
        self._count = min(self._count + 1, self.window)

    @property
    def n_observations(self) -> int:
        return self._count

    def accounting(self) -> SLAAccounting:
        """The current window as one :class:`SLAAccounting`."""
        if self._count == 0:
            return SLAAccounting(n_windows=0, n_violations=0,
                                 window_ratios=np.empty(0))
        ratios = self._ratios[:self._count].copy()
        violations = int((ratios < self.performance_floor).sum())
        return SLAAccounting(n_windows=self._count,
                             n_violations=violations,
                             window_ratios=ratios)

    def pressure(self) -> float:
        """How close this window is to breaching its guarantee.

        0.0 = no violations; 1.0 = exactly at the tolerated violation
        budget (``1 - guarantee``); above 1.0 the guarantee is already
        breached. The serving daemon reports it per tenant in its
        ``stats`` op.
        """
        if self._count == 0:
            return 0.0
        allowance = 1.0 - self.guarantee
        rate = self.accounting().violation_rate
        if allowance <= 0.0:
            return 0.0 if rate == 0.0 else float("inf")
        return rate / allowance


def sla_window_violations(cycles_adaptive: np.ndarray,
                          cycles_baseline: np.ndarray,
                          window_intervals: int,
                          performance_floor: float) -> SLAAccounting:
    """Measure windowed SLA violations of an adaptive run.

    Both cycle arrays cover the same instructions per interval, so the
    windowed IPC ratio reduces to a windowed cycle ratio.
    """
    if window_intervals <= 0:
        raise DatasetError(
            f"window_intervals must be positive: {window_intervals}"
        )
    if cycles_adaptive.shape != cycles_baseline.shape:
        raise DatasetError("cycle arrays must align")
    n_windows = cycles_adaptive.shape[0] // window_intervals
    if n_windows == 0:
        raise DatasetError(
            f"run too short for window of {window_intervals} intervals"
        )
    t_full = n_windows * window_intervals
    adaptive = cycles_adaptive[:t_full].reshape(n_windows, -1).sum(axis=1)
    baseline = cycles_baseline[:t_full].reshape(n_windows, -1).sum(axis=1)
    # IPC ratio = cycles_baseline / cycles_adaptive for equal work.
    ratios = baseline / adaptive
    violations = int((ratios < performance_floor).sum())
    return SLAAccounting(
        n_windows=n_windows,
        n_violations=violations,
        window_ratios=ratios,
    )
