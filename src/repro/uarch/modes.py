"""Operating modes of the clustered CPU (Section 3).

The core either steers instructions to both clusters (high-performance
mode, 8-wide) or runs on cluster 1 alone with cluster 2 clock-gated
(low-power mode, 4-wide, ~35% less power).
"""

from __future__ import annotations

import enum


class Mode(enum.Enum):
    """Cluster configuration of the CPU."""

    HIGH_PERF = "high_perf"
    LOW_POWER = "low_power"

    @property
    def gated(self) -> bool:
        """True when cluster 2 is clock-gated."""
        return self is Mode.LOW_POWER

    @property
    def active_clusters(self) -> int:
        """Number of enabled execution clusters."""
        return 1 if self is Mode.LOW_POWER else 2


#: Both modes, in a stable order (high-performance first).
ALL_MODES = (Mode.HIGH_PERF, Mode.LOW_POWER)
