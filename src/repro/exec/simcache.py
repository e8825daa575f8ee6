"""Content-addressed on-disk cache for telemetry and dataset artefacts.

Benchmarks, dataset builders and repeated evaluations revisit the
same traces over and over, across processes and runs. This cache
persists the two artefacts that cost more to recompute than to load:

* **telemetry snapshots**: the counter matrix one
  ``TelemetryCollector.snapshot`` materialises for one (trace, mode,
  counter set);
* **built datasets**: the per-mode feature matrices produced by
  :mod:`repro.data.builders`.

Simulation results and gating labels are not cached: one stacked
interval simulation, and the label arithmetic on its cycles, are
cheaper than reading an entry back.

Entries are *content addressed*: the key is a SHA-256 over everything
the output is a pure function of — the trace specification (seed,
phase sequence, per-phase physics), the mode, the full machine
configuration, and a schema version bumped whenever the simulator's
numerics change. Anything that would alter the output therefore
changes the key, which is how invalidation works; stale entries are
simply never looked up again.

The cache is off by default. Point ``REPRO_SIMCACHE_DIR`` at a
directory (or pass a :class:`SimCache` explicitly) to enable it.
Writes are atomic (temp file + rename) so concurrent workers of a
process pool can share one cache directory safely.

Integrity: every entry stores a ``__digest__`` — a SHA-256 over its
metadata and the exact bytes of every array — which is re-verified on
load (``REPRO_SIMCACHE_VERIFY=0`` skips the check for overhead
benchmarking). An entry that fails to parse *or* fails its digest is
moved into ``<root>/quarantine/`` (counted under
``simcache.quarantine``) and reported as a miss, so bit-rot or a
torn write on a filesystem without atomic replace can never feed a
silently-wrong artefact back into an experiment — the entry is simply
recomputed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.config import active_exec_config
from repro.errors import CacheCorruptionError
from repro.exec import faults
from repro.obs.metrics import METRICS

#: Bump when simulator numerics or storage layout change: old entries
#: stop being addressable and are naturally evicted by disuse.
#: (2: per-entry ``__digest__`` checksum became mandatory.)
SCHEMA_VERSION = 2


def _flip_byte(path: Path) -> None:
    """XOR one mid-file byte in place (``corrupt_cache`` injection).

    The flip lands in real entry bytes, so detection exercises the same
    digest verification that catches organic bit-rot — the injector
    does not get to fake the corruption *or* the detection.
    """
    try:
        size = path.stat().st_size
        if size == 0:
            return
        with open(path, "r+b") as fh:
            fh.seek(size // 2)
            byte = fh.read(1)
            fh.seek(size // 2)
            fh.write(bytes([byte[0] ^ 0xFF]) if byte else b"\xff")
    except OSError:
        pass  # a vanished/unwritable entry is itself a fault; move on


def _machine_token(machine) -> str:
    """Canonical string for a MachineConfig (nested dataclasses)."""
    return json.dumps(dataclasses.asdict(machine), sort_keys=True,
                      default=str)


def trace_fingerprint(trace) -> bytes:
    """Stable digest of everything a simulation reads from a trace."""
    h = hashlib.sha256()
    h.update(trace.name.encode())
    h.update(str(trace.seed).encode())
    h.update(str(trace.interval_instructions).encode())
    h.update(np.ascontiguousarray(trace.phase_seq, dtype=np.int64).tobytes())
    # The phase physics table fully determines what the phase indices
    # mean; two apps with identical names but different phase draws
    # must not collide.
    h.update(np.ascontiguousarray(trace.physics(), dtype=np.float64)
             .tobytes())
    return h.digest()


class SimCache:
    """Content-addressed store for snapshot and dataset artefacts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Keys.
    # ------------------------------------------------------------------
    @staticmethod
    def _digest(*tokens: bytes | str) -> str:
        h = hashlib.sha256()
        h.update(f"schema={SCHEMA_VERSION}".encode())
        for token in tokens:
            h.update(b"\x00")
            h.update(token if isinstance(token, bytes) else token.encode())
        return h.hexdigest()

    def snapshot_key(self, trace, mode, machine, counter_ids,
                     catalog_token: str) -> str:
        """Key for one materialised telemetry snapshot.

        The snapshot is a pure function of the simulation inputs plus
        the counter catalog and the requested counter subset, so all of
        them participate in the digest.
        """
        ids = np.asarray(counter_ids, dtype=np.int64)
        return self._digest(b"snapshot", trace_fingerprint(trace),
                            mode.value, _machine_token(machine),
                            ids.tobytes(), catalog_token)

    def dataset_key(self, traces, mode, counter_ids, sla,
                    granularity_factor: int, horizon: int, machine,
                    catalog_token: str = "") -> str:
        """Key for one built per-mode gating dataset.

        The tag names the entry layout: datasets store integer-coded
        row names, so entries of the older per-row string layout are
        never addressed.
        """
        ids = np.asarray(counter_ids, dtype=np.int64)
        return self._digest(
            b"dataset/coded-names",
            b"".join(trace_fingerprint(t) for t in traces),
            mode.value,
            ids.tobytes(),
            f"{sla.performance_floor}/{sla.window_ms}/{sla.guarantee}",
            f"g={granularity_factor}/h={horizon}",
            _machine_token(machine),
            catalog_token,
        )

    # ------------------------------------------------------------------
    # Storage.
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npz"

    @staticmethod
    def _entry_digest(payload: dict[str, np.ndarray], meta: dict) -> str:
        """SHA-256 over an entry's metadata and exact array bytes."""
        h = hashlib.sha256()
        h.update(json.dumps(meta, sort_keys=True).encode())
        for name in sorted(payload):
            arr = np.ascontiguousarray(payload[name])
            h.update(name.encode())
            h.update(arr.dtype.str.encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    def _write(self, key: str, payload: dict[str, np.ndarray],
               meta: dict) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        digest = self._entry_digest(payload, meta)
        try:
            with open(tmp, "wb") as fh:
                # Uncompressed: entries are small (T x ~50 floats) and
                # load latency is the whole point of the cache.
                np.savez(fh, __meta__=np.array(json.dumps(meta)),
                         __digest__=np.array(digest), **payload)
            os.replace(tmp, path)
            METRICS.incr("simcache.bytes_written",
                            path.stat().st_size)
        finally:
            tmp.unlink(missing_ok=True)
        METRICS.incr("simcache.store")

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside so it is recomputed, not trusted.

        Quarantined files are kept (under ``<root>/quarantine/``) rather
        than deleted: they are the forensic evidence for what corrupted
        them, and keeping them costs one rename.
        """
        qdir = self.root / "quarantine"
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            # A concurrent reader may have quarantined it first; as
            # long as the entry is gone from the live tree we are done.
            path.unlink(missing_ok=True)
        METRICS.incr("simcache.quarantine")

    def _read(self, key: str) -> tuple[dict, dict] | None:
        path = self._path(key)
        if faults.should_inject("corrupt_cache", key) and path.exists():
            _flip_byte(path)
        if not path.exists():
            METRICS.incr("simcache.miss")
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["__meta__"]))
                payload = {name: data[name] for name in data.files
                           if name not in ("__meta__", "__digest__")}
                if active_exec_config().simcache_verify:
                    stored = (str(data["__digest__"])
                              if "__digest__" in data.files else None)
                    expected = self._entry_digest(payload, meta)
                    if stored != expected:
                        raise CacheCorruptionError(
                            f"cache entry {key} failed its integrity "
                            f"check (stored digest {stored!r})"
                        )
        except (CacheCorruptionError, OSError, EOFError, KeyError,
                ValueError, zipfile.BadZipFile) as exc:
            # OSError/EOFError/BadZipFile: truncated or unreadable
            # container (e.g. a torn write on a filesystem without
            # atomic replace). KeyError/ValueError: parseable container
            # with missing or malformed members (json decode errors are
            # ValueErrors). CacheCorruptionError: digest mismatch.
            # All route through quarantine and read as a miss; anything
            # else (a genuine bug) propagates.
            del exc
            self._quarantine(path)
            METRICS.incr("simcache.miss")
            return None
        METRICS.incr("simcache.hit")
        return payload, meta

    def has(self, key: str) -> bool:
        """Whether an entry exists, without reading it."""
        return self._path(key).exists()

    # ------------------------------------------------------------------
    # Telemetry snapshots.
    # ------------------------------------------------------------------
    def store_snapshot(self, key: str, snapshot) -> None:
        """Persist one ``TelemetrySnapshot``.

        ``normalized`` is not stored: it is ``counts / cycles[:, None]``
        and the load path recomputes it with the exact same division.
        """
        self._write(key, {
            "counter_ids": snapshot.counter_ids,
            "counts": snapshot.counts,
            "cycles": snapshot.cycles,
            "ipc": snapshot.ipc,
        }, {
            "trace_name": snapshot.trace_name,
            "mode": snapshot.mode.value,
            "interval_instructions": snapshot.interval_instructions,
        })

    def load_snapshot(self, key: str):
        """Load one ``TelemetrySnapshot`` or ``None`` on miss."""
        entry = self._read(key)
        if entry is None:
            return None
        payload, meta = entry
        from repro.telemetry.collector import TelemetrySnapshot
        from repro.uarch.modes import Mode
        return TelemetrySnapshot(
            trace_name=meta["trace_name"],
            mode=Mode(meta["mode"]),
            counter_ids=payload["counter_ids"],
            counts=payload["counts"],
            normalized=payload["counts"] / payload["cycles"][:, None],
            cycles=payload["cycles"],
            ipc=payload["ipc"],
            interval_instructions=int(meta["interval_instructions"]),
        )

    # ------------------------------------------------------------------
    # Built datasets.
    # ------------------------------------------------------------------
    def store_dataset(self, key: str, dataset) -> None:
        """Persist one built ``GatingDataset``."""
        self._write(key, {
            "x": dataset.x,
            "y": dataset.y,
            "codes": dataset.names.codes,
            "trace_names": dataset.names.traces,
            "workload_names": dataset.names.workloads,
            "group_names": dataset.names.groups,
            "counter_ids": dataset.counter_ids,
        }, {
            "mode": dataset.mode.value,
            "granularity": dataset.granularity,
            "sla_floor": dataset.sla_floor,
        })

    def load_dataset(self, key: str):
        """Load one built ``GatingDataset`` or ``None`` on miss."""
        entry = self._read(key)
        if entry is None:
            return None
        payload, meta = entry
        from repro.data.dataset import GatingDataset, RowNames
        from repro.uarch.modes import Mode
        return GatingDataset(
            x=payload["x"],
            y=payload["y"],
            names=RowNames(codes=payload["codes"],
                           traces=payload["trace_names"],
                           workloads=payload["workload_names"],
                           groups=payload["group_names"]),
            mode=Mode(meta["mode"]),
            counter_ids=payload["counter_ids"],
            granularity=int(meta["granularity"]),
            sla_floor=float(meta["sla_floor"]),
        )


def default_simcache() -> SimCache | None:
    """Config-driven cache: ``REPRO_SIMCACHE_DIR`` names the directory.

    Reads the active config, so an installed
    :class:`~repro.config.ExecConfig` override wins over the raw
    environment variable.
    """
    root = active_exec_config().simcache_dir
    if not root:
        return None
    return SimCache(root)
