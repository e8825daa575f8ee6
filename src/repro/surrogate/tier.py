"""The surrogate tier: training, the agreement gate, and scoring.

Lifecycle (all deterministic, so every worker process independently
reaches the same tier state and the same per-pair decisions):

1. **Probe corpus** — a seeded, machine-independent set of traces
   drawn round-robin from the workload categories, so every phase
   family the generators produce is represented.
2. **Training** — the probes are simulated through the *interval tier*
   (its outputs are the ground truth being learned; warm `SimCache`
   entries make retraining cheap), and one
   :class:`~repro.surrogate.model.RidgeEnsemble` per mode is fitted on
   the earlier probes.
3. **Agreement gate** — on the held-out later probes, the surrogate
   must reach Spearman rank correlation >= :data:`MIN_SPEARMAN` and
   per-mode mean relative IPC error <= :data:`MAX_MRE` against the
   interval tier — the same rank-correlation discipline that validates
   the interval tier against the cycle model. Below threshold the tier
   *refuses to activate*: every pair falls back to interval simulation
   and ``surrogate.refused`` counts the refusal.
4. **Scoring** — each cache-missing (trace, mode) pair is accepted only
   if every feature lies within the training range (plus
   :data:`OOD_MARGIN` of slack) *and* the ensemble's relative CPI
   disagreement stays under the configured threshold at the 95th
   percentile. Accepted pairs become
   :class:`~repro.uarch.interval_model.IntervalResult` objects tagged
   ``tier="surrogate"``; everything else is simulated exactly as
   before, bit-identically.

The trained tier persists in the `SimCache` (content-addressed on the
machine config, the probe-corpus fingerprint, and the feature/model
versions), so warm runs skip probe simulation entirely.
"""

from __future__ import annotations

import time

import numpy as np

from repro import rng as rng_mod
from repro.eval.metrics import mean_relative_error, spearman
from repro.obs.metrics import METRICS
from repro.obs import tracer
from repro.surrogate.features import FEATURE_VERSION, feature_matrix
from repro.surrogate.model import N_MEMBERS, RIDGE_LAMBDA, RidgeEnsemble
from repro.uarch.modes import Mode
from repro.uarch.signals import signal_index
from repro.workloads.categories import CATEGORIES
from repro.workloads.generator import TraceSpec, generate_application

#: Bump when the tier's training recipe or stored layout changes.
SURROGATE_VERSION = 1

#: Seed root of the probe corpus (machine-independent).
PROBE_SEED = 0x50BE

#: Intervals per probe trace.
PROBE_INTERVALS = 64

#: Fraction of probe traces held out for the agreement gate.
HOLDOUT_FRACTION = 0.25

#: Agreement gate: minimum Spearman rho of held-out per-interval IPC.
MIN_SPEARMAN = 0.95

#: Agreement gate: maximum per-mode mean relative IPC error.
MAX_MRE = 0.05

#: Out-of-distribution slack, as a fraction of each feature's training
#: span, added on both sides of the [min, max] range check.
OOD_MARGIN = 0.35


def probe_corpus(n_probes: int, intervals: int = PROBE_INTERVALS,
                 ) -> list[TraceSpec]:
    """Seeded probe traces covering every workload category.

    Machine-independent by construction: only :data:`PROBE_SEED`, the
    category definitions and ``n_probes`` shape the corpus, so one
    trained surrogate is addressable from every process simulating the
    same machine.
    """
    probes = []
    for i in range(n_probes):
        cat = CATEGORIES[i % len(CATEGORIES)]
        app = generate_application(
            name=f"surrogate_probe_{i:03d}",
            category=cat.name,
            families_weights=cat.family_weights,
            seed=rng_mod.derive_seed(PROBE_SEED, "surrogate-probe", i),
        )
        probes.append(app.workload(0).trace(intervals, 0))
    return probes


class SurrogateTier:
    """Confidence-gated learned fast path over one ``IntervalModel``."""

    def __init__(self, model, threshold: float, n_probes: int) -> None:
        self.model = model
        self.threshold = float(threshold)
        self.n_probes = int(n_probes)
        #: Whether the agreement gate passed; False serves 100% fallback.
        self.active = False
        #: Per-mode held-out agreement: {mode.value: {"rho", "mre"}}.
        self.agreement: dict[str, dict[str, float]] = {}
        self._ensembles: dict[Mode, RidgeEnsemble] = {}
        #: Per-mode (lo, hi, margin) feature-range arrays for OOD checks.
        self._ranges: dict[Mode, tuple[np.ndarray, np.ndarray,
                                       np.ndarray]] = {}
        self._exact_cols = (signal_index("cycles"),
                            signal_index("instructions"))

    # ------------------------------------------------------------------
    # Training.
    # ------------------------------------------------------------------
    def train(self) -> None:
        """Fit (or load) the surrogate and run the agreement gate."""
        start = time.perf_counter()
        with tracer.span("surrogate.train", probes=self.n_probes):
            # The probe pass below runs through the interval tier; the
            # guard keeps it from consulting the surrogate recursively
            # or serving stale surrogate LRU entries as ground truth.
            self.model._training = True
            try:
                if not self._load():
                    self._fit()
                    self._store()
            finally:
                self.model._training = False
        METRICS.observe("surrogate.train_s",
                           time.perf_counter() - start)
        if not self.active:
            METRICS.incr("surrogate.refused")

    def _probe_rows(self, probes: list[TraceSpec],
                    ) -> dict[Mode, dict[str, np.ndarray]]:
        """Features and interval-tier targets for every probe pair."""
        results = self.model.simulate_batch(probes)
        per_mode: dict[Mode, dict[str, list]] = {
            mode: {"x": [], "cpi": [], "sig": [], "ipc": []}
            for mode in Mode
        }
        for trace in probes:
            jittered = self.model._jittered_physics(trace)
            inst = float(trace.interval_instructions)
            for mode in Mode:
                result = results[(trace.name, trace.seed,
                                  trace.n_intervals, mode)]
                physics = self.model.mode_adjusted_physics(jittered, mode)
                rows = per_mode[mode]
                rows["x"].append(feature_matrix(self.model, physics, mode))
                rows["cpi"].append(result.cycles / inst)
                rows["sig"].append(result.signals / inst)
                rows["ipc"].append(result.ipc)
        return {
            mode: {name: np.concatenate(chunks)
                   for name, chunks in rows.items()}
            for mode, rows in per_mode.items()
        }

    def _fit(self) -> None:
        probes = probe_corpus(self.n_probes)
        n_hold = max(2, int(round(self.n_probes * HOLDOUT_FRACTION)))
        train_rows = self._probe_rows(probes[:-n_hold])
        held_rows = self._probe_rows(probes[-n_hold:])
        self.agreement = {}
        passed = True
        for mode in Mode:
            rows = train_rows[mode]
            x = rows["x"]
            y = np.hstack([rows["cpi"][:, None], rows["sig"]])
            ens = RidgeEnsemble(seed=PROBE_SEED).fit(x, y)
            self._ensembles[mode] = ens
            lo = x.min(axis=0)
            hi = x.max(axis=0)
            self._ranges[mode] = (lo, hi, OOD_MARGIN * (hi - lo))
            # Agreement on held-out probes: predicted IPC (through the
            # same width clip the interval tier applies) vs the truth.
            held = held_rows[mode]
            cpi_pred = ens.member_cpi(ens.scale(held["x"])).mean(axis=-1)
            width = self.model.effective_width(mode)
            ipc_pred = np.minimum(1.0 / cpi_pred, width)
            rho = spearman(held["ipc"], ipc_pred)
            mre = mean_relative_error(held["ipc"], ipc_pred)
            self.agreement[mode.value] = {"rho": rho, "mre": mre}
            if rho < MIN_SPEARMAN or mre > MAX_MRE:
                passed = False
        self.active = passed

    # ------------------------------------------------------------------
    # SimCache persistence.
    # ------------------------------------------------------------------
    def _cache_key(self) -> str | None:
        simcache = self.model.simcache
        if simcache is None or not hasattr(simcache, "surrogate_key"):
            return None
        return simcache.surrogate_key(
            self.model.machine, probe_corpus(self.n_probes),
            f"v={SURROGATE_VERSION}/f={FEATURE_VERSION}"
            f"/k={N_MEMBERS}/lam={RIDGE_LAMBDA!r}",
        )

    def _store(self) -> None:
        key = self._cache_key()
        if key is None:
            return
        payload: dict[str, np.ndarray] = {}
        for mode in Mode:
            prefix = mode.value
            payload.update(self._ensembles[mode].to_payload(prefix))
            lo, hi, margin = self._ranges[mode]
            payload[f"{prefix}_range_lo"] = lo
            payload[f"{prefix}_range_hi"] = hi
            payload[f"{prefix}_range_margin"] = margin
        self.model.simcache.store_surrogate(key, payload, {
            "active": bool(self.active),
            "agreement": self.agreement,
            "n_probes": self.n_probes,
        })

    def _load(self) -> bool:
        key = self._cache_key()
        if key is None:
            return False
        entry = self.model.simcache.load_surrogate(key)
        if entry is None:
            return False
        payload, meta = entry
        try:
            for mode in Mode:
                prefix = mode.value
                self._ensembles[mode] = RidgeEnsemble.from_payload(
                    payload, prefix, seed=PROBE_SEED)
                self._ranges[mode] = (
                    np.asarray(payload[f"{prefix}_range_lo"],
                               dtype=np.float64),
                    np.asarray(payload[f"{prefix}_range_hi"],
                               dtype=np.float64),
                    np.asarray(payload[f"{prefix}_range_margin"],
                               dtype=np.float64),
                )
            self.active = bool(meta["active"])
            self.agreement = dict(meta["agreement"])
        except KeyError:
            # A structurally incomplete entry (digest-valid but from a
            # buggy writer): drop it and retrain.
            self.model.simcache.evict(key)
            self._ensembles.clear()
            self._ranges.clear()
            return False
        METRICS.incr("surrogate.cache_hit")
        return True

    # ------------------------------------------------------------------
    # Scoring.
    # ------------------------------------------------------------------
    def score(self, misses: list) -> tuple[dict, list]:
        """Partition cache misses into accepted results and fallbacks.

        ``misses`` holds ``(key, trace, mode, disk_key)`` items exactly
        as ``simulate_batch`` builds them. Returns ``(accepted,
        fallback)`` where ``accepted`` maps keys to surrogate-tagged
        :class:`~repro.uarch.interval_model.IntervalResult` objects and
        ``fallback`` keeps the untouched miss items for the interval
        pass.
        """
        if not self.active:
            METRICS.incr("surrogate.fallback", len(misses))
            return {}, list(misses)
        with tracer.span("surrogate.predict", pairs=len(misses)):
            accepted, fallback = self._score_items(misses)
        METRICS.incr("surrogate.accepted", len(accepted))
        METRICS.incr("surrogate.fallback", len(fallback))
        return accepted, fallback

    def score_one(self, trace: TraceSpec, mode: Mode):
        """Gate-and-predict a single pair (the scalar ``simulate`` path).

        Routes through the same :meth:`_score_group` math as the
        batched entry point, so both reach the same decision — and the
        same accepted bits — for every pair. Returns ``None`` on
        fallback.
        """
        if not self.active:
            METRICS.incr("surrogate.fallback")
            return None
        key = (trace.name, trace.seed, trace.n_intervals, mode)
        accepted, _ = self._score_items([(key, trace, mode, None)])
        result = accepted.get(key)
        METRICS.incr("surrogate.accepted" if result is not None
                        else "surrogate.fallback")
        return result

    def _score_items(self, items: list) -> tuple[dict, list]:
        """Gate every miss item, grouped ``(n_intervals, mode)``-wise."""
        accepted: dict = {}
        fallback: list = []
        jittered: dict[tuple, np.ndarray] = {}
        groups: dict[tuple, list] = {}
        for item in items:
            groups.setdefault((item[1].n_intervals, item[2]), []).append(item)
        for _, group in sorted(groups.items(),
                               key=lambda kv: (kv[0][0], kv[0][1].value)):
            self._score_group(group, accepted, fallback, jittered)
        return accepted, fallback

    def _score_group(self, group: list, accepted: dict, fallback: list,
                     jittered: dict) -> None:
        """Vectorised gate over same-length, same-mode pairs.

        Every gate quantity (features, OOD bounds, member CPI spread)
        is computed with elementwise fixed-order operations, and the
        per-pair signal products have shapes fixed by the trace alone —
        see :meth:`~repro.surrogate.model.RidgeEnsemble.member_cpi` —
        so each pair's decision and accepted bits are identical no
        matter how pairs were batched. Serial, threaded and process
        builds chunk differently but must agree bit-for-bit.
        """
        mode = group[0][2]
        rows = []
        for _, trace, _, _ in group:
            tkey = (trace.name, trace.seed, trace.n_intervals)
            physics = jittered.get(tkey)
            if physics is None:
                physics = self.model._jittered_physics(trace)
                jittered[tkey] = physics
            rows.append(physics)
        physics = self.model.mode_adjusted_physics(np.stack(rows), mode)
        x = feature_matrix(self.model, physics, mode)  # (P, T, D)
        lo, hi, margin = self._ranges[mode]
        ok = ~((x < lo - margin) | (x > hi + margin)).any(axis=(-2, -1))
        ens = self._ensembles[mode]
        z = ens.scale(x)
        cpi_members = ens.member_cpi(z)  # (P, T, K)
        cpi_mean = cpi_members.mean(axis=-1)
        ok &= (cpi_mean > 0.0).all(axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            disagreement = cpi_members.std(axis=-1) / cpi_mean
        # Nearest-rank 95th percentile via a single partition — cheaper
        # than an interpolating quantile and just as deterministic.
        t_count = disagreement.shape[-1]
        rank = min(t_count - 1, int(np.ceil(0.95 * t_count)) - 1)
        p95 = np.partition(disagreement, rank, axis=-1)[..., rank]
        width = self.model.effective_width(mode)
        # The IPC/cycles arithmetic is elementwise, so computing it for
        # the whole group at once gives each row the same bits as a
        # per-pair computation would.
        inst_col = np.array([[float(t.interval_instructions)]
                             for _, t, _, _ in group])
        ipc_all = np.minimum(1.0 / cpi_mean, width)
        cpi_all = 1.0 / ipc_all
        cycles_all = inst_col * cpi_all
        from repro.uarch.interval_model import IntervalResult
        for i, item in enumerate(group):
            if not (ok[i] and p95[i] <= self.threshold):
                fallback.append(item)
                continue
            key, trace = item[0], item[1]
            inst = inst_col[i, 0]
            cycles = cycles_all[i]
            signals = ens.signals_scaled(z[i]) * inst
            np.maximum(signals, 0.0, out=signals)
            # Cycles and instructions are counted exactly by the
            # hardware; keep them consistent with the predicted CPI.
            signals[:, self._exact_cols[0]] = cycles
            signals[:, self._exact_cols[1]] = inst
            accepted[key] = IntervalResult(
                trace_name=trace.name,
                mode=mode,
                ipc=ipc_all[i],
                cycles=cycles,
                signals=signals,
                interval_instructions=trace.interval_instructions,
                tier="surrogate",
            )
