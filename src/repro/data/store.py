"""On-disk dataset caching.

Experiment harnesses rebuild the same scaled HDTR/SPEC datasets in
every process; this cache persists built
:class:`~repro.data.dataset.GatingDataset` objects as ``.npz`` files
keyed by a content string (builder parameters + seed), so repeated
benchmark runs skip simulation.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from repro.config import active_exec_config
from repro.data.dataset import GatingDataset, RowNames
from repro.errors import DatasetError
from repro.uarch.modes import Mode

def cache_dir() -> str:
    """The dataset cache directory (``REPRO_CACHE_DIR``, created on
    demand)."""
    path = active_exec_config().cache_dir
    if path is None:
        path = os.path.join(os.path.expanduser("~"), ".cache",
                            "repro-datasets")
    os.makedirs(path, exist_ok=True)
    return path


def _path_for(key: str) -> str:
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    return os.path.join(cache_dir(), f"{digest}.npz")


def save_dataset(key: str, dataset: GatingDataset) -> str:
    """Persist a dataset under a content key; returns the file path."""
    path = _path_for(key)
    np.savez_compressed(
        path,
        x=dataset.x,
        y=dataset.y,
        codes=dataset.names.codes,
        trace_names=dataset.names.traces,
        workload_names=dataset.names.workloads,
        group_names=dataset.names.groups,
        counter_ids=dataset.counter_ids,
        mode=np.array([dataset.mode.value]),
        granularity=np.array([dataset.granularity]),
        sla_floor=np.array([dataset.sla_floor]),
        key=np.array([key]),
    )
    return path


def load_dataset(key: str) -> GatingDataset | None:
    """Load a cached dataset, or None on miss/corruption (a file of an
    older layout, without the integer-coded names, reads as a miss)."""
    path = _path_for(key)
    if not os.path.exists(path):
        return None
    try:
        with np.load(path, allow_pickle=False) as data:
            if str(data["key"][0]) != key:
                return None
            return GatingDataset(
                x=data["x"],
                y=data["y"],
                names=RowNames(codes=data["codes"],
                               traces=data["trace_names"],
                               workloads=data["workload_names"],
                               groups=data["group_names"]),
                mode=Mode(str(data["mode"][0])),
                counter_ids=data["counter_ids"],
                granularity=int(data["granularity"][0]),
                sla_floor=float(data["sla_floor"][0]),
            )
    except (OSError, KeyError, ValueError, DatasetError):
        return None


def cached_build(key: str, builder) -> GatingDataset:
    """Load a dataset by key, building and persisting on miss."""
    cached = load_dataset(key)
    if cached is not None:
        return cached
    dataset = builder()
    save_dataset(key, dataset)
    return dataset
