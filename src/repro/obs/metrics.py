"""Run-metrics registry: counters, gauges, histograms, stage timings.

It lives outside the execution engine so every layer (uarch kernels,
data builders, ML training, the CLI) can report into one process-wide
sink, :data:`METRICS`, without importing ``repro.exec``.

Four instrument kinds:

* **stage timings** — :meth:`Metrics.add_time` / :meth:`Metrics.stage`
  accumulate per-stage wall/busy seconds and worker capacity.
* **counters** — monotonically increasing event counts
  (:meth:`Metrics.incr`).
* **gauges** — instantaneous levels that can go up *and* down
  (:meth:`Metrics.gauge_add` / :meth:`Metrics.gauge_set`), e.g.
  ``parallel.pools_open``, the number of live worker pools.
* **histograms** — value distributions summarised as
  count/total/min/max (:meth:`Metrics.observe`), e.g.
  ``adaptive_infer.batch_rows``, the rows per model-inference call.

Worker aggregation: metrics observed inside a process-pool worker used
to die with the worker. :meth:`mark` / :meth:`delta` / :meth:`merge`
close that gap — a worker snapshots a mark before running a chunk,
computes the delta after, and ships it back through the chunk result;
the parent merges deltas whose origin pid differs from its own (thread
workers share this registry, so their deltas must not double-count).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import threading
import time


@dataclasses.dataclass
class StageStat:
    """Accumulated timing for one named execution stage."""

    calls: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0  # summed worker-side task time
    workers: int = 1  # widest pool observed for this stage
    capacity_s: float = 0.0  # sum of per-call wall x effective workers

    @property
    def utilization(self) -> float:
        """Fraction of available worker-seconds spent doing work.

        Capacity is accumulated per call as ``wall x effective_workers``,
        so a stage whose calls mix parallel fan-outs with serial
        fallbacks is judged against the workers each call actually had —
        not against the widest pool ever observed, which made serial
        fallbacks look like 25% utilisation on a 4-worker pool.
        """
        capacity = self.capacity_s
        if capacity <= 0.0:
            capacity = self.wall_s * self.workers
        if capacity <= 0.0:
            return 0.0
        return self.busy_s / capacity


@dataclasses.dataclass
class HistogramStat:
    """Summary of an observed value distribution."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value


class Metrics:
    """Thread-safe registry of stage timings, counters, gauges and
    histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, StageStat] = {}
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, HistogramStat] = {}

    # ------------------------------------------------------------------
    # Recording.
    # ------------------------------------------------------------------
    def add_time(self, stage: str, wall_s: float, busy_s: float | None = None,
                 workers: int = 1) -> None:
        """Account one completed stage execution."""
        with self._lock:
            stat = self._stages.setdefault(stage, StageStat())
            stat.calls += 1
            stat.wall_s += wall_s
            stat.busy_s += wall_s if busy_s is None else busy_s
            stat.workers = max(stat.workers, workers)
            stat.capacity_s += wall_s * max(1, workers)

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time a ``with`` block as one execution of ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def incr(self, counter: str, n: int = 1) -> None:
        """Bump a named event counter."""
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + n

    def count(self, counter: str) -> int:
        """Current value of a named event counter (0 if never bumped)."""
        with self._lock:
            return self._counters.get(counter, 0)

    def gauge_add(self, gauge: str, delta: float) -> None:
        """Move a gauge up (positive delta) or down (negative)."""
        with self._lock:
            self._gauges[gauge] = self._gauges.get(gauge, 0) + delta

    def gauge_set(self, gauge: str, value: float) -> None:
        """Pin a gauge to an absolute level."""
        with self._lock:
            self._gauges[gauge] = value

    def gauge(self, gauge: str) -> float:
        """Current gauge level (0 if never touched)."""
        with self._lock:
            return self._gauges.get(gauge, 0)

    def observe(self, hist: str, value: float) -> None:
        """Record one observation into a histogram."""
        with self._lock:
            self._hists.setdefault(hist, HistogramStat()).observe(value)

    def per_item_cost(self, stage: str) -> float | None:
        """Observed busy seconds per item for a stage, if known.

        Uses the ``<stage>.items`` counter that :class:`ParallelMap`
        maintains alongside each stage timing; returns ``None`` until
        the stage has run at least once. The adaptive dispatcher uses
        this to size chunks and to decide whether a fan-out is worth a
        pool at all.
        """
        with self._lock:
            stat = self._stages.get(stage)
            items = self._counters.get(f"{stage}.items", 0)
        if stat is None or items <= 0 or stat.busy_s <= 0.0:
            return None
        return stat.busy_s / items

    def reset(self) -> None:
        """Clear all instruments (tests, bench reruns)."""
        with self._lock:
            self._stages.clear()
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()

    # ------------------------------------------------------------------
    # Worker aggregation.
    # ------------------------------------------------------------------
    def mark(self) -> dict:
        """Opaque checkpoint of the registry for a later :meth:`delta`."""
        with self._lock:
            return {
                "stages": {name: dataclasses.replace(s)
                           for name, s in self._stages.items()},
                "counters": dict(self._counters),
                "hists": {name: dataclasses.replace(h)
                          for name, h in self._hists.items()},
            }

    def delta(self, mark: dict) -> dict:
        """Everything recorded since ``mark``, as a picklable dict.

        Gauges are deliberately absent: a gauge is a level owned by the
        process that set it (a worker's view of ``parallel.pools_open``
        says nothing about the parent's pools), so shipping gauge
        deltas across processes would corrupt the parent's levels.
        """
        out: dict = {"pid": os.getpid(), "stages": {}, "counters": {},
                     "hists": {}}
        with self._lock:
            prev_stages = mark["stages"]
            for name, stat in self._stages.items():
                prev = prev_stages.get(name, StageStat())
                if stat.calls == prev.calls and stat.wall_s == prev.wall_s:
                    continue
                out["stages"][name] = {
                    "calls": stat.calls - prev.calls,
                    "wall_s": stat.wall_s - prev.wall_s,
                    "busy_s": stat.busy_s - prev.busy_s,
                    "workers": stat.workers,
                    "capacity_s": stat.capacity_s - prev.capacity_s,
                }
            prev_counters = mark["counters"]
            for name, value in self._counters.items():
                diff = value - prev_counters.get(name, 0)
                if diff:
                    out["counters"][name] = diff
            prev_hists = mark["hists"]
            for name, hist in self._hists.items():
                prev = prev_hists.get(name)
                n_prev = prev.count if prev else 0
                if hist.count == n_prev:
                    continue
                out["hists"][name] = {
                    "count": hist.count - n_prev,
                    "total": hist.total - (prev.total if prev else 0.0),
                    "min": hist.min,
                    "max": hist.max,
                }
        return out

    def merge(self, delta: dict) -> bool:
        """Fold a worker's :meth:`delta` into this registry.

        Returns ``False`` (and merges nothing) when the delta
        originated in this very process — thread-pool workers share the
        registry, so their observations are already here and merging
        would double-count them.
        """
        if delta.get("pid") == os.getpid():
            return False
        with self._lock:
            for name, d in delta.get("stages", {}).items():
                stat = self._stages.setdefault(name, StageStat())
                stat.calls += d["calls"]
                stat.wall_s += d["wall_s"]
                stat.busy_s += d["busy_s"]
                stat.workers = max(stat.workers, d["workers"])
                stat.capacity_s += d["capacity_s"]
            for name, diff in delta.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + diff
            for name, d in delta.get("hists", {}).items():
                hist = self._hists.setdefault(name, HistogramStat())
                hist.count += d["count"]
                hist.total += d["total"]
                if d["min"] < hist.min:
                    hist.min = d["min"]
                if d["max"] > hist.max:
                    hist.max = d["max"]
        return True

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Machine-readable copy of every instrument."""
        with self._lock:
            return {
                "stages": {
                    name: {
                        "calls": s.calls,
                        "wall_s": s.wall_s,
                        "busy_s": s.busy_s,
                        "workers": s.workers,
                        "capacity_s": s.capacity_s,
                        "utilization": s.utilization,
                    }
                    for name, s in sorted(self._stages.items())
                },
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: {
                        "count": h.count,
                        "total": h.total,
                        "min": h.min,
                        "max": h.max,
                        "mean": h.mean,
                    }
                    for name, h in sorted(self._hists.items())
                },
            }

    #: Counters summarised under ``resilience:`` in :meth:`report` —
    #: every rung of the degradation ladder plus integrity detections
    #: and injected faults, so a chaos run's recovery story is legible
    #: at a glance.
    RESILIENCE_COUNTERS = (
        "parallel.retries",
        "parallel.timeouts",
        "parallel.pool_rebuild",
        "parallel.degrade_thread",
        "parallel.fallback_serial",
        "simcache.quarantine",
        "arena.attach_fallback",
    )

    def resilience(self) -> dict[str, int]:
        """Non-zero resilience counters (degradations, recoveries,
        integrity detections, injected faults)."""
        with self._lock:
            out = {name: self._counters[name]
                   for name in self.RESILIENCE_COUNTERS
                   if self._counters.get(name)}
            out.update({name: value
                        for name, value in sorted(self._counters.items())
                        if name.startswith("faults.injected.") and value})
        return out

    def hit_rate(self, prefix: str) -> float | None:
        """Hit rate for a ``<prefix>.hit``/``<prefix>.miss`` counter pair."""
        hits = self.count(f"{prefix}.hit")
        misses = self.count(f"{prefix}.miss")
        total = hits + misses
        if total == 0:
            return None
        return hits / total

    def report(self) -> str:
        """Human-readable execution report (the ``--exec-report`` text)."""
        snap = self.snapshot()
        lines = ["=== execution report ==="]
        if snap["stages"]:
            lines.append(f"{'stage':<24s} {'calls':>6s} {'wall s':>9s} "
                         f"{'busy s':>9s} {'util':>6s}")
            for name, s in snap["stages"].items():
                lines.append(
                    f"{name:<24s} {s['calls']:>6d} {s['wall_s']:>9.3f} "
                    f"{s['busy_s']:>9.3f} {s['utilization'] * 100:>5.0f}%"
                )
        if snap["counters"]:
            lines.append("counters:")
            for name, value in snap["counters"].items():
                lines.append(f"  {name:<30s} {value}")
        if snap["gauges"]:
            lines.append("gauges:")
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:<30s} {value:g}")
        if snap["histograms"]:
            lines.append("histograms:")
            for name, h in snap["histograms"].items():
                lines.append(
                    f"  {name:<30s} n={h['count']} mean={h['mean']:.1f} "
                    f"min={h['min']:g} max={h['max']:g}"
                )
        resilience = self.resilience()
        if resilience:
            lines.append("resilience:")
            for name, value in resilience.items():
                lines.append(f"  {name:<30s} {value}")
        for prefix in ("interval_lru", "simcache"):
            rate = self.hit_rate(prefix)
            if rate is not None:
                lines.append(f"{prefix} hit rate: {rate * 100:.1f}%")
        if len(lines) == 1:
            lines.append("(no stages recorded)")
        return "\n".join(lines)


#: The process-wide registry every execution path reports into.
METRICS = Metrics()
