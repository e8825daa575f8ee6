"""The 936-entry event counter catalog.

Real PMU catalogs observe a modest set of underlying microarchitectural
events through hundreds of counter definitions: per-unit duplicates,
different unit masks and edge conditions (gain/offset), speculative vs
retired flavours (noisy copies), sums of events (combinations), rare-
event counters that read zero most of the time, and — on any given
stepping — dead or stuck counters. The paper records all 936 available
counters and then *screens* them (Section 6.2), so the catalog must
contain realistic junk for the screens to remove.

Every counter derives from the simulator's base signals
(:mod:`repro.uarch.signals`):

``count = round(gain * (w1 * S[b1] + w2 * S[b2]) + offset_bias
               + sqrt(.) * z * noise_mult)``

clipped at zero — integer event counts with Poisson-like measurement
noise. The catalog is a fixed property of the hardware, generated once
from a dedicated catalog seed, independent of experiment seeds.

Named members reproduce the paper's counter sets:

* :data:`TABLE4_COUNTERS` — the 12 counters of Table 4 (what PF
  Counter Selection identifies);
* :data:`CHARSTAR_COUNTERS` — the 8 expert-chosen counters used for
  the CHARSTAR baseline (Section 7), including the derived IPC
  counter. Note this set lacks Store Queue Occupancy — the blindspot.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from repro import rng as rng_mod
from repro.errors import ConfigurationError
from repro.uarch.signals import N_SIGNALS, signal_index, signal_names

#: The catalog is fixed hardware; its layout never depends on
#: experiment seeds.
CATALOG_SEED = 0xC0DE

#: Total number of counters the telemetry system exposes (Section 4.1).
CATALOG_SIZE = 936

#: Counter kinds, in the order used by the synthesis kernel.
KIND_ALIAS = 0  # clean view of one base signal
KIND_SCALED = 1  # gain/offset variant of one base signal
KIND_NOISY = 2  # high-measurement-noise variant
KIND_COMBO = 3  # weighted sum of two base signals
KIND_RARE = 4  # rare-event counter (tiny expected counts)
KIND_DEAD = 5  # unwired: always zero
KIND_STUCK = 6  # stuck-at: constant value, zero variance

_KIND_NAMES = {
    KIND_ALIAS: "alias",
    KIND_SCALED: "scaled",
    KIND_NOISY: "noisy",
    KIND_COMBO: "combo",
    KIND_RARE: "rare",
    KIND_DEAD: "dead",
    KIND_STUCK: "stuck",
}


@dataclasses.dataclass(frozen=True)
class CounterDef:
    """One catalog entry."""

    counter_id: int
    name: str
    kind: int
    base1: int
    base2: int
    gain: float
    w2: float
    offset: float
    noise_mult: float

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES[self.kind]


#: Table 4: the 12 counters PF Counter Selection identifies, mapped to
#: the base signals that carry the same meaning in our simulator.
TABLE4_COUNTERS: tuple[tuple[str, str], ...] = (
    ("Micro Op Cache Misses", "uopcache_misses"),
    ("L2 Silent Evictions", "l2_silent_evictions"),
    ("Wrong-Path uOps Flushed", "wrong_path_uops"),
    ("Store Queue Occupancy", "sq_occupancy"),
    ("L1 Data Cache Reads", "l1d_reads"),
    ("Stall Count", "stall_cycles"),
    ("Physical Register Ref. Count", "preg_refs"),
    ("Loads Retired", "loads_retired"),
    ("L1 Data Cache Hits", "l1d_hits"),
    ("Micro Op Cache Hits", "uopcache_hits"),
    ("Micro Ops Stalled on Dep.", "uops_stalled_dep"),
    ("Micro Ops Ready", "uops_ready"),
)

#: The CHARSTAR baseline's expert-chosen counters (Section 7): five
#: from Eyerman et al.'s CPI-stack analysis plus three replacements.
#: "IPC" is the retired-instruction count, which becomes IPC once the
#: collector normalises by cycles.
CHARSTAR_COUNTERS: tuple[tuple[str, str], ...] = (
    ("Branch Mispredictions", "branch_mispredicts"),
    ("Instruction Cache Misses", "icache_misses"),
    ("Data Cache Misses", "l1d_misses"),
    ("L2 Cache Misses", "l2_misses"),
    ("IPC", "instructions"),
    ("I-TLB Misses", "itlb_misses"),
    ("D-TLB Misses", "dtlb_misses"),
    ("Stall Count", "stall_cycles"),
)

#: Base signals with naturally tiny per-interval counts; rare-event
#: counters alias these (and read zero in most intervals).
_RARE_SIGNALS = (
    "machine_clears",
    "fp_divides",
    "store_buffer_drains",
    "itlb_misses",
    "mode_switches",
    "l3_misses",
    "icache_misses",
    "dtlb_misses",
)


class CounterCatalog:
    """The full telemetry counter catalog plus the synthesis kernel."""

    def __init__(self, counters: list[CounterDef]) -> None:
        if len({c.name for c in counters}) != len(counters):
            raise ConfigurationError("counter names must be unique")
        self.counters = tuple(counters)
        self._by_name = {c.name: c for c in counters}
        # Dense parameter arrays for vectorised synthesis.
        n = len(counters)
        self._kind = np.array([c.kind for c in counters], dtype=np.int64)
        self._base1 = np.array([c.base1 for c in counters], dtype=np.int64)
        self._base2 = np.array([c.base2 for c in counters], dtype=np.int64)
        self._gain = np.array([c.gain for c in counters])
        self._w2 = np.array([c.w2 for c in counters])
        self._offset = np.array([c.offset for c in counters])
        self._noise = np.array([c.noise_mult for c in counters])
        if n != len(set(c.counter_id for c in counters)):
            raise ConfigurationError("counter ids must be unique")

    def __len__(self) -> int:
        return len(self.counters)

    def token(self) -> str:
        """Stable content fingerprint of the catalog (cache keys)."""
        if not hasattr(self, "_token"):
            h = hashlib.sha256()
            for c in self.counters:
                h.update(repr((c.counter_id, c.name, c.kind, c.base1,
                               c.base2, c.gain, c.w2, c.offset,
                               c.noise_mult)).encode())
            self._token = h.hexdigest()
        return self._token

    def __getitem__(self, counter_id: int) -> CounterDef:
        return self.counters[counter_id]

    def by_name(self, name: str) -> CounterDef:
        """Look up a counter by display name."""
        return self._by_name[name]

    def ids_for_names(self, names: list[str]) -> list[int]:
        """Counter ids for a list of display names."""
        return [self._by_name[name].counter_id for name in names]

    def names(self) -> list[str]:
        """All counter display names, ordered by id."""
        return [c.name for c in self.counters]

    @property
    def table4_ids(self) -> list[int]:
        """Ids of the 12 Table-4 counters."""
        return self.ids_for_names([name for name, _ in TABLE4_COUNTERS])

    @property
    def charstar_ids(self) -> list[int]:
        """Ids of the 8 CHARSTAR expert counters."""
        return self.ids_for_names([name for name, _ in CHARSTAR_COUNTERS])

    # ------------------------------------------------------------------
    # Synthesis.
    # ------------------------------------------------------------------
    def materialize(self, signals: np.ndarray, noise_z: np.ndarray,
                    counter_ids: np.ndarray | list[int] | None = None,
                    ) -> np.ndarray:
        """Raw integer counter values for each interval.

        Parameters
        ----------
        signals:
            Base-signal matrix ``(T, N_SIGNALS)`` from the interval model.
        noise_z:
            Standard-normal noise field ``(T, len(self))``; the caller
            draws it once per (trace, mode) so counter values do not
            depend on which subset is read.
        counter_ids:
            Optional subset of counters to materialise (saves memory
            when models only need 8-32 counters).

        Returns
        -------
        ``(T, len(counter_ids))`` matrix of non-negative integer counts.
        """
        if counter_ids is None:
            ids = np.arange(len(self.counters))
        else:
            ids = np.asarray(counter_ids, dtype=np.int64)
        kind = self._kind[ids]
        raw = (signals[:, self._base1[ids]]
               + self._w2[ids][None, :] * signals[:, self._base2[ids]])
        raw = self._gain[ids][None, :] * raw + self._offset[ids][None, :]
        raw = np.maximum(raw, 0.0)
        # Dead counters read zero; stuck counters read their offset.
        dead = kind == KIND_DEAD
        raw[:, dead] = 0.0
        stuck = kind == KIND_STUCK
        raw[:, stuck] = self._offset[ids][stuck][None, :]
        # Poisson-like integer measurement noise.
        noisy = (raw + np.sqrt(raw) * noise_z[:, ids]
                 * self._noise[ids][None, :])
        counts = np.rint(np.maximum(noisy, 0.0))
        counts[:, stuck] = self._offset[ids][stuck][None, :]
        return counts


def _build_catalog(size: int = CATALOG_SIZE) -> CounterCatalog:
    """Construct the fixed hardware catalog."""
    rng = rng_mod.stream(CATALOG_SEED, "catalog")
    counters: list[CounterDef] = []

    def add(name: str, kind: int, base1: int, base2: int = 0,
            gain: float = 1.0, w2: float = 0.0, offset: float = 0.0,
            noise_mult: float = 1.0) -> None:
        counters.append(CounterDef(
            counter_id=len(counters), name=name, kind=kind, base1=base1,
            base2=base2, gain=gain, w2=w2, offset=offset,
            noise_mult=noise_mult,
        ))

    # Canonical named counters first (ids 0..18): Table 4, then the
    # CHARSTAR extras (Stall Count is shared).
    for name, sig in TABLE4_COUNTERS:
        add(name, KIND_ALIAS, signal_index(sig), noise_mult=0.6)
    table4_names = {name for name, _ in TABLE4_COUNTERS}
    for name, sig in CHARSTAR_COUNTERS:
        if name in table4_names:
            continue
        add(name, KIND_ALIAS, signal_index(sig), noise_mult=0.6)

    names = signal_names()

    # One clean alias for every base signal.
    for sig_idx, sig_name in enumerate(names):
        add(f"EVT.{sig_name.upper()}", KIND_ALIAS, sig_idx, noise_mult=0.8)

    # Scaled/unit-mask variants.
    n_scaled = 220
    for i in range(n_scaled):
        sig_idx = int(rng.integers(N_SIGNALS))
        gain = float(rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]))
        offset = float(rng.choice([0.0, 0.0, 0.0, 1.0, 5.0]))
        add(f"EVT.{names[sig_idx].upper()}.UMASK{i:03d}", KIND_SCALED,
            sig_idx, gain=gain, offset=offset,
            noise_mult=float(rng.uniform(0.6, 1.4)))

    # Speculative / edge-triggered flavours: noisy copies.
    n_noisy = 190
    for i in range(n_noisy):
        sig_idx = int(rng.integers(N_SIGNALS))
        add(f"EVT.{names[sig_idx].upper()}.SPEC{i:03d}", KIND_NOISY,
            sig_idx, gain=float(rng.uniform(0.8, 1.2)),
            noise_mult=float(rng.uniform(2.5, 7.0)))

    # Combination counters: weighted sums of two events.
    n_combo = 200
    for i in range(n_combo):
        b1 = int(rng.integers(N_SIGNALS))
        b2 = int(rng.integers(N_SIGNALS))
        add(f"EVT.COMBO{i:03d}.{names[b1].upper()}", KIND_COMBO, b1, b2,
            gain=float(rng.uniform(0.5, 1.5)),
            w2=float(rng.uniform(0.2, 1.0)),
            noise_mult=float(rng.uniform(0.8, 1.6)))

    # Rare-event counters: tiny expected counts, mostly zero.
    n_rare = 130
    for i in range(n_rare):
        sig_name = str(rng.choice(_RARE_SIGNALS))
        gain = float(rng.choice([1.0, 0.5, 0.1, 0.02]))
        add(f"EVT.RARE{i:03d}.{sig_name.upper()}", KIND_RARE,
            signal_index(sig_name), gain=gain,
            noise_mult=float(rng.uniform(0.8, 1.5)))

    # Dead (unwired on this stepping) and stuck-at counters.
    n_dead = 60
    for i in range(n_dead):
        add(f"EVT.RESERVED{i:03d}", KIND_DEAD, 0)
    n_stuck = 24
    for i in range(n_stuck):
        add(f"EVT.DEBUG{i:03d}", KIND_STUCK, 0,
            offset=float(rng.integers(1, 1000)))

    # Fill any remainder with more combos to reach the catalog size.
    extra = 0
    while len(counters) < size:
        b1 = int(rng.integers(N_SIGNALS))
        b2 = int(rng.integers(N_SIGNALS))
        add(f"EVT.COMBOX{extra:03d}.{names[b1].upper()}", KIND_COMBO, b1, b2,
            gain=float(rng.uniform(0.5, 1.5)),
            w2=float(rng.uniform(0.2, 1.0)),
            noise_mult=float(rng.uniform(0.8, 1.6)))
        extra += 1
    if len(counters) > size:
        counters = counters[:size]
    return CounterCatalog(counters)


_DEFAULT: CounterCatalog | None = None


def default_catalog() -> CounterCatalog:
    """The process-wide fixed hardware catalog (936 counters)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = _build_catalog()
    return _DEFAULT
