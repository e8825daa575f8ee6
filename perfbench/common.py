"""Paths, child-process environment and small statistics helpers."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np

#: Root of the checkout: the benchmark reads and writes only below it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for sockets, daemon logs and span files; removed at
#: the end of every run.
TMP_ROOT = ROOT / ".bench_tmp"
#: Results that depend only on the program's source (see offline.py).
CACHE = ROOT / ".bench_cache"


def child_env() -> dict[str, str]:
    """Environment for the program's processes: ``src`` importable, the
    benchmark package importable, and no ``REPRO_*`` knob inherited from
    the caller, so every run sees the program's defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def percentile_ms(latencies_s: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(latencies_s), q) * 1e3)


def cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of the host-visible CPUs, from /proc/stat.

    Steal is time the hypervisor gave this machine's CPUs to someone
    else: the benchmark records its share so a slow run can be told
    apart from a slow program."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__}
