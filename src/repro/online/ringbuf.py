"""Bounded telemetry ring buffer for the continual-adaptation loop.

The serving daemon samples what it serves — which corpus traces
``adapt`` requests address, how accurate the deployed predictor's
gating decisions turned out against the interval tier's oracle labels,
what residency/PPW it realized, and how aggressively ``decide``
answers gate — into one preallocated, fixed-dtype numpy ring. The
learner and drift detector read windows off this ring; nothing else in
the daemon ever blocks on it.

Hot-path discipline: the record is one structured-array row write into
storage allocated at construction. Sampling is the deterministic
counter-based 1-in-N scheme the span tracer uses (``seed`` fixes the
phase), so two daemons fed the same request stream sample identical
entries — no RNG draw, no clock read, no allocation per request.

Thread-safety: appends come from the daemon's connection threads and
reads from the learner thread; a single lock around the (tiny) row
write and the window copies keeps the ring consistent without
measurable hot-path cost.
"""

from __future__ import annotations

import threading

import numpy as np

#: ``op`` field codes.
OP_ADAPT = 0
OP_DECIDE = 1

#: One sampled observation. ``trace_index`` is -1 for decide entries
#: (they address telemetry windows, not corpus traces); ``accuracy``
#: is the realized agreement between the deployed predictor's gating
#: decisions and the oracle labels (adapt entries only); ``low_rate``
#: is the fraction of low-power decisions in a decide window.
RING_DTYPE = np.dtype([
    ("seq", np.uint64),
    ("op", np.uint8),
    ("generation", np.int32),
    ("trace_index", np.int32),
    ("accuracy", np.float32),
    ("ppw_gain", np.float32),
    ("residency", np.float32),
    ("low_rate", np.float32),
])


class TelemetryRing:
    """Fixed-capacity sampled ring of served-request observations."""

    def __init__(self, capacity: int, sample: int = 1,
                 seed: int = 0) -> None:
        if capacity < 8:
            raise ValueError(f"capacity must be >= 8, got {capacity}")
        if sample < 1:
            raise ValueError(f"sample must be >= 1, got {sample}")
        self.capacity = capacity
        self.sample = sample
        self._rows = np.zeros(capacity, dtype=RING_DTYPE)
        self._lock = threading.Lock()
        self._write = 0  # next slot to write
        self._size = 0  # valid rows (<= capacity)
        self._seen = seed % sample  # sampling phase: deterministic
        self._sampled = 0

    # ------------------------------------------------------------------
    # Producers (the daemon's connection threads).
    # ------------------------------------------------------------------
    def _append(self, op: int, trace_index: int, generation: int,
                accuracy: float, ppw_gain: float, residency: float,
                low_rate: float) -> bool:
        """Record one observation; False when sampled out."""
        with self._lock:
            self._seen += 1
            if self._seen % self.sample:
                return False
            row = self._rows[self._write]
            row["seq"] = self._sampled
            row["op"] = op
            row["generation"] = generation
            row["trace_index"] = trace_index
            row["accuracy"] = accuracy
            row["ppw_gain"] = ppw_gain
            row["residency"] = residency
            row["low_rate"] = low_rate
            self._write = (self._write + 1) % self.capacity
            self._size = min(self._size + 1, self.capacity)
            self._sampled += 1
            return True

    def record_adapt(self, trace_index: int, generation: int,
                     accuracy: float, ppw_gain: float,
                     residency: float) -> bool:
        """Sample one served ``adapt`` outcome."""
        return self._append(OP_ADAPT, trace_index, generation,
                            accuracy, ppw_gain, residency, 0.0)

    def record_decide(self, generation: int, low_rate: float) -> bool:
        """Sample one served ``decide`` window."""
        return self._append(OP_DECIDE, -1, generation,
                            0.0, 0.0, 0.0, low_rate)

    # ------------------------------------------------------------------
    # Consumers (the learner thread, health probes).
    # ------------------------------------------------------------------
    def window(self, n: int, op: int | None = None) -> np.ndarray:
        """Copy of the most recent ``n`` sampled entries, oldest first.

        With ``op`` set, the most recent ``n`` entries *of that op*
        (scanned over the whole ring). Returns fewer rows when the ring
        holds fewer.
        """
        with self._lock:
            size = self._size
            start = (self._write - size) % self.capacity
            idx = (start + np.arange(size)) % self.capacity
            rows = self._rows[idx].copy()
        if op is not None:
            rows = rows[rows["op"] == op]
        return rows[-n:] if n < rows.shape[0] else rows

    @property
    def seen(self) -> int:
        """Observations offered (before sampling), minus the seed phase."""
        with self._lock:
            return self._seen

    @property
    def sampled(self) -> int:
        """Observations actually written (including overwritten ones)."""
        with self._lock:
            return self._sampled

    def occupancy(self) -> int:
        """Valid rows currently held (saturates at ``capacity``)."""
        with self._lock:
            return self._size

    def snapshot(self) -> dict:
        """Health-op projection of the ring's state."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "sample": self.sample,
                "occupancy": self._size,
                "sampled": self._sampled,
                "wrapped": self._sampled > self.capacity,
            }


__all__ = ["OP_ADAPT", "OP_DECIDE", "RING_DTYPE", "TelemetryRing"]
