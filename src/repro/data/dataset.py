"""Dataset containers."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import DatasetError
from repro.uarch.modes import Mode


@dataclasses.dataclass(frozen=True)
class RowNames:
    """Integer-coded per-row names: one ``int32`` trace code per row.

    The tables hold one entry per trace, sorted by trace name, with
    the trace's workload and application alongside; ``codes`` index
    them. A trace name fixes its workload and application
    (``app/inputN/traceM``), so a row needs only its trace code, while
    fixed-width unicode columns would cost tens of bytes per row.
    """

    codes: np.ndarray  # (N,) int32 index into the tables
    traces: np.ndarray  # (K,) unique trace names, sorted
    workloads: np.ndarray  # (K,) each trace's workload
    groups: np.ndarray  # (K,) each trace's application

    @classmethod
    def of_trace(cls, n_rows: int, trace: str, workload: str,
                 group: str) -> "RowNames":
        """``n_rows`` rows that all belong to one trace."""
        return cls(codes=np.zeros(n_rows, dtype=np.int32),
                   traces=np.array([trace]),
                   workloads=np.array([workload]),
                   groups=np.array([group]))

    @classmethod
    def from_rows(cls, groups, workloads, traces) -> "RowNames":
        """Encode per-row name columns."""
        workloads, groups = np.asarray(workloads), np.asarray(groups)
        table, first, codes = np.unique(np.asarray(traces),
                                        return_index=True,
                                        return_inverse=True)
        names = cls(codes=codes.reshape(-1).astype(np.int32), traces=table,
                    workloads=workloads[first], groups=groups[first])
        if not (np.array_equal(names.workloads[names.codes], workloads)
                and np.array_equal(names.groups[names.codes], groups)):
            raise DatasetError(
                "a trace name maps to more than one workload or "
                "application")
        return names

    @staticmethod
    def concat(parts: list["RowNames"]) -> "RowNames":
        """Row-wise concatenation, merging the name tables."""
        if len(parts) == 1:
            return parts[0]
        # Encode the stacked tables (one row per entry), then point
        # each part's rows at their entry's merged code.
        merged = RowNames.from_rows(
            *(np.concatenate([getattr(p, table) for p in parts])
              for table in ("groups", "workloads", "traces")))
        offsets = np.cumsum([0] + [len(p.traces) for p in parts[:-1]])
        return merged.take(np.concatenate([p.codes.astype(np.int64) + off
                                           for p, off in zip(parts,
                                                             offsets)]))

    def take(self, rows: np.ndarray) -> "RowNames":
        """Row subset (a mask or indices); the tables are shared."""
        return dataclasses.replace(self, codes=self.codes[rows])

    def expand(self, table: np.ndarray) -> np.ndarray:
        """One name per row, read-only."""
        out = table[self.codes]
        out.setflags(write=False)
        return out


@dataclasses.dataclass(frozen=True)
class GatingDataset:
    """Supervised gating data for one telemetry mode.

    Each row is one prediction opportunity: features are the normalised
    counter vector :math:`x_t` observed in ``mode``, the label is the
    ground-truth configuration :math:`y_{t+2}` for the interval two
    steps ahead (1 = gate cluster 2 / low-power meets the SLA).
    ``groups``, ``workloads`` and ``traces`` are the per-row
    application, workload and trace names, expanded read-only from the
    integer-coded ``names``.
    """

    x: np.ndarray  # (N, C)
    y: np.ndarray  # (N,)
    names: RowNames
    mode: Mode
    counter_ids: np.ndarray  # (C,)
    granularity: int  # instructions per prediction interval
    sla_floor: float

    def __post_init__(self) -> None:
        n = self.x.shape[0]
        for name, arr in (("y", self.y), ("names", self.names.codes)):
            if arr.shape[0] != n:
                raise DatasetError(
                    f"{name} has {arr.shape[0]} rows, expected {n}"
                )

    @property
    def groups(self) -> np.ndarray:
        return self.names.expand(self.names.groups)

    @property
    def workloads(self) -> np.ndarray:
        return self.names.expand(self.names.workloads)

    @property
    def traces(self) -> np.ndarray:
        return self.names.expand(self.names.traces)

    @property
    def n_samples(self) -> int:
        return int(self.x.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.x.shape[1])

    @property
    def positive_rate(self) -> float:
        """Fraction of gateable intervals (the gating opportunity rate)."""
        if self.n_samples == 0:
            raise DatasetError("empty dataset")
        return float(self.y.mean())

    @property
    def n_applications(self) -> int:
        return int(np.unique(self.groups).size)

    def subset(self, mask: np.ndarray) -> "GatingDataset":
        """Row subset sharing all metadata."""
        return dataclasses.replace(
            self,
            x=self.x[mask],
            y=self.y[mask],
            names=self.names.take(mask),
        )

    def for_applications(self, apps: list[str]) -> "GatingDataset":
        """Rows belonging to the named applications."""
        mask = np.isin(self.groups, apps)
        return self.subset(mask)


def _check_compatible(first: GatingDataset, ds: GatingDataset) -> None:
    """Metadata agreement required for row-wise combination."""
    if ds.mode is not first.mode:
        raise DatasetError("mode mismatch in concat")
    if ds.granularity != first.granularity:
        raise DatasetError("granularity mismatch in concat")
    if not np.array_equal(ds.counter_ids, first.counter_ids):
        raise DatasetError("counter set mismatch in concat")
    if ds.sla_floor != first.sla_floor:
        raise DatasetError("SLA mismatch in concat")


def concat_datasets(datasets: list[GatingDataset]) -> GatingDataset:
    """Concatenate row-wise; metadata must agree."""
    if not datasets:
        raise DatasetError("nothing to concatenate")
    first = datasets[0]
    for ds in datasets[1:]:
        _check_compatible(first, ds)
    return dataclasses.replace(
        first,
        x=np.concatenate([ds.x for ds in datasets]),
        y=np.concatenate([ds.y for ds in datasets]),
        names=RowNames.concat([ds.names for ds in datasets]),
    )


class DatasetAssembler:
    """Streamed, bounded-RSS alternative to :func:`concat_datasets`.

    Sharded builds feed shards (or per-trace parts) in as they finish;
    numeric matrices land by slice-copy into geometrically grown
    buffers, so peak parent memory is roughly *final matrix + one
    shard* instead of *all parts + their concatenation* — and shm
    result views can be released shard by shard. The integer-coded row
    names (four bytes per row) are merged at :meth:`finish`. The
    assembled dataset is bit-identical to ``concat_datasets`` over the
    same parts (the tier-1 suite asserts this).
    """

    def __init__(self) -> None:
        self._first: GatingDataset | None = None
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._n = 0
        self._names: list[RowNames] = []

    def _reserve(self, rows: int) -> None:
        need = self._n + rows
        if need <= self._x.shape[0]:
            return
        cap = max(need, self._x.shape[0] + (self._x.shape[0] >> 1))
        x = np.empty((cap, self._x.shape[1]), dtype=self._x.dtype)
        y = np.empty(cap, dtype=self._y.dtype)
        x[:self._n] = self._x[:self._n]
        y[:self._n] = self._y[:self._n]
        self._x, self._y = x, y

    def append(self, ds: GatingDataset) -> None:
        """Fold one part in; metadata must agree with the first part."""
        if self._first is None:
            self._first = ds
            self._x = np.empty((ds.x.shape[0], ds.x.shape[1]),
                               dtype=ds.x.dtype)
            self._y = np.empty(ds.y.shape[0], dtype=ds.y.dtype)
        else:
            _check_compatible(self._first, ds)
            if ds.x.dtype != self._x.dtype or ds.y.dtype != self._y.dtype:
                # concat_datasets would silently upcast here; refusing
                # keeps sharded and unsharded assembly bit-identical.
                raise DatasetError(
                    f"dtype mismatch in assembly: x {ds.x.dtype} vs "
                    f"{self._x.dtype}, y {ds.y.dtype} vs {self._y.dtype}"
                )
            if ds.x.shape[1] != self._x.shape[1]:
                raise DatasetError(
                    f"feature count mismatch in assembly: "
                    f"{ds.x.shape[1]} vs {self._x.shape[1]}"
                )
            self._reserve(ds.x.shape[0])
        n, rows = self._n, ds.x.shape[0]
        self._x[n:n + rows] = ds.x
        self._y[n:n + rows] = ds.y
        self._n = n + rows
        self._names.append(ds.names)

    @property
    def n_rows(self) -> int:
        return self._n

    def finish(self) -> GatingDataset:
        """The assembled dataset (buffers trimmed to the rows seen)."""
        if self._first is None:
            raise DatasetError("nothing to assemble")
        return dataclasses.replace(
            self._first,
            x=self._x[:self._n],
            y=self._y[:self._n],
            names=RowNames.concat(self._names),
        )
