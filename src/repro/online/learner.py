"""Background learner: drift-triggered retrain, shadow-gated promote.

The continual-adaptation control loop, run off the serving path on its
own daemon thread:

1. **Poll** the :class:`~repro.online.drift.DriftDetector` each tick.
   No signal → go back to sleep; serving never notices.
2. **Retrain** on drift: fit a candidate dual-mode forest on the
   *recently served* traces (the drift window's distinct trace
   indices), reusing the daemon's warm
   :class:`~repro.sim.collector` interval LRU and its
   :class:`~repro.exec.parallel.ParallelMap` pools — a retrain costs
   tree fitting, not re-simulation.
3. **Shadow-evaluate**: run both the incumbent and the candidate (via
   :meth:`ModelRegistry.shadow_cpu`, which shares all warm state) over
   the evaluation traces, off the serving path.
4. **Gate**: the candidate is promoted only if it is at least as good
   on *both* axes — mean PPW gain no worse, pooled RSV (the paper's
   SLA-violation rate, Eq. 3) no worse. A candidate that trades SLA
   safety for throughput is rejected and the incumbent keeps serving.
5. **Promote**: :meth:`ModelRegistry.swap` installs generation N+1 at
   the next request, the promotion is persisted through the
   serve checkpoint (supervised restarts resume warm on the new
   model), and the drift detector re-baselines so the new incumbent is
   judged against its own steady state.

Every decision is recorded as a frozen :class:`ShadowVerdict` and
surfaced through the ``health`` op; promotions/rejections/errors also
count into the metrics registry for the run report.

Determinism: candidate training seeds derive from
``derive_seed(seed, "online", generation, mode)``, so a given drift
event retrains the identical candidate across runs; ``step()`` is
callable synchronously (benchmarks and tests drive it without the
thread).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable, Sequence

import numpy as np

from repro import rng as rng_mod
from repro.core.adaptive_cpu import AdaptiveCPU
from repro.core.predictor import DualModePredictor
from repro.data.builders import dataset_from_traces
from repro.errors import SwapGateError
from repro.eval.metrics import pooled_rsv
from repro.ml.base import Estimator
from repro.ml.forest import RandomForestClassifier
from repro.obs.metrics import METRICS
from repro.online.drift import DriftDetector, DriftSignal
from repro.online.registry import ModelRegistry
from repro.online.ringbuf import OP_ADAPT, TelemetryRing
from repro.uarch.modes import Mode

#: Cap on the RSV pooling window so short prediction streams (coarse
#: granularity, short traces) still fill at least one window each.
_RSV_WINDOW_CAP = 16


@dataclasses.dataclass(frozen=True)
class ShadowVerdict:
    """Outcome of one drift-triggered retrain attempt.

    ``promoted`` says whether the candidate passed the shadow gate and
    was swapped in; ``generation`` is the generation that resulted
    (N+1 on promotion, the unchanged N on rejection). The four metric
    fields are the gate's inputs; ``traces`` is how many evaluation
    traces they were pooled over.
    """

    promoted: bool
    candidate_tag: str
    generation: int
    candidate_ppw: float
    incumbent_ppw: float
    candidate_rsv: float
    incumbent_rsv: float
    traces: int
    reason: str

    def snapshot(self) -> dict:
        """Health-op projection of the verdict."""
        return {
            "promoted": self.promoted,
            "candidate_tag": self.candidate_tag,
            "generation": self.generation,
            "candidate_ppw": round(self.candidate_ppw, 6),
            "incumbent_ppw": round(self.incumbent_ppw, 6),
            "candidate_rsv": round(self.candidate_rsv, 6),
            "incumbent_rsv": round(self.incumbent_rsv, 6),
            "traces": self.traces,
            "reason": self.reason,
        }


class OnlineLearner:
    """Drift-triggered background retraining with a shadow gate."""

    def __init__(self, registry: ModelRegistry, ring: TelemetryRing,
                 detector: DriftDetector, traces: Sequence,
                 pmap=None, interval_s: float = 2.0, seed: int = 0,
                 n_train: int = 6, n_trees: int = 12,
                 max_depth: int = 6, eval_traces: int = 6,
                 candidate_fn: Callable[..., DualModePredictor] | None = None,
                 on_promote: Callable[[int], None] | None = None) -> None:
        self.registry = registry
        self.ring = ring
        self.detector = detector
        self.traces = list(traces)
        self.pmap = pmap
        self.interval_s = interval_s
        self.seed = seed
        self.n_train = n_train
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.eval_traces = eval_traces
        # Test/benchmark hook: replaces candidate training wholesale
        # (e.g. to hand the gate a deliberately degraded predictor).
        self.candidate_fn = candidate_fn
        # Promotion side-effect (the server persists the generation
        # into its checkpoint here); failures count, never crash.
        self.on_promote = on_promote
        self.ticks = 0
        self.retrains = 0
        self.last_verdict: ShadowVerdict | None = None
        self.last_error: str | None = None
        self.last_drift_to_promote_s: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Thread lifecycle.
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop,
                                        name="online-learner",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=timeout_s)
        self._thread = None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.step()
            except Exception as exc:  # keep the loop alive
                self.last_error = f"{type(exc).__name__}: {exc}"
                METRICS.incr("online.learner_errors")

    # ------------------------------------------------------------------
    # One control-loop iteration (synchronously callable).
    # ------------------------------------------------------------------
    def step(self) -> ShadowVerdict | None:
        """Poll for drift; on a signal, retrain / gate / maybe swap."""
        self.ticks += 1
        METRICS.incr("online.drift_checks")
        generation = self.registry.generation
        signal = self.detector.check(self.ring, generation)
        if signal is None:
            return None
        METRICS.incr("online.drift_signals")
        started = time.perf_counter()
        verdict = self._retrain_and_gate(signal, generation)
        self.last_verdict = verdict
        if verdict.promoted:
            self.last_drift_to_promote_s = time.perf_counter() - started
            METRICS.observe("online.drift_to_promote_s",
                            self.last_drift_to_promote_s)
        return verdict

    def _retrain_and_gate(self, signal: DriftSignal,
                          generation: int) -> ShadowVerdict:
        train, evaluate = self._recent_traces()
        tag = f"gen{generation + 1}-{signal.kind}"
        self.retrains += 1
        METRICS.incr("online.retrains")
        if self.candidate_fn is not None:
            candidate = self.candidate_fn(self, signal, generation)
        else:
            candidate = self._train_candidate(train, generation)
        incumbent_cpu = self.registry.current().cpu
        try:
            shadow = self.registry.shadow_cpu(candidate)
        except SwapGateError as exc:
            METRICS.incr("online.rejections")
            return ShadowVerdict(
                promoted=False, candidate_tag=tag,
                generation=generation, candidate_ppw=float("nan"),
                incumbent_ppw=float("nan"),
                candidate_rsv=float("nan"),
                incumbent_rsv=float("nan"), traces=0,
                reason=f"swap gate: {exc}")
        cand_ppw, cand_rsv = self._score(shadow, evaluate)
        inc_ppw, inc_rsv = self._score(incumbent_cpu, evaluate)
        promoted = cand_ppw >= inc_ppw and cand_rsv <= inc_rsv
        if promoted:
            entry = self.registry.swap(candidate, tag=tag)
            METRICS.incr("online.promotions")
            if self.on_promote is not None:
                try:
                    self.on_promote(entry.generation)
                except Exception:  # persistence is best-effort
                    METRICS.incr("online.persist_failed")
            # Judge the new incumbent against its own steady state.
            self.detector.rebaseline(self.ring)
            reason = (f"candidate >= incumbent on ppw "
                      f"({cand_ppw:.4f} vs {inc_ppw:.4f}) and rsv "
                      f"({cand_rsv:.4f} vs {inc_rsv:.4f})")
            return ShadowVerdict(
                promoted=True, candidate_tag=tag,
                generation=entry.generation, candidate_ppw=cand_ppw,
                incumbent_ppw=inc_ppw, candidate_rsv=cand_rsv,
                incumbent_rsv=inc_rsv, traces=len(evaluate),
                reason=reason)
        METRICS.incr("online.rejections")
        if cand_ppw < inc_ppw:
            reason = (f"candidate ppw {cand_ppw:.4f} < incumbent "
                      f"{inc_ppw:.4f}")
        else:
            reason = (f"candidate rsv {cand_rsv:.4f} > incumbent "
                      f"{inc_rsv:.4f}")
        return ShadowVerdict(
            promoted=False, candidate_tag=tag, generation=generation,
            candidate_ppw=cand_ppw, incumbent_ppw=inc_ppw,
            candidate_rsv=cand_rsv, incumbent_rsv=inc_rsv,
            traces=len(evaluate), reason=reason)

    # ------------------------------------------------------------------
    # Pieces.
    # ------------------------------------------------------------------
    def _recent_traces(self) -> tuple[list, list]:
        """(train, evaluate) trace lists from the ring's drift window.

        Distinct served trace indices, most recent first — the traces
        the drifted mix actually consists of. Falls back to a corpus
        prefix when the ring holds nothing usable (cannot happen after
        a drift signal, but keeps the method total).
        """
        rows = self.ring.window(self.detector.window, op=OP_ADAPT)
        seen: list[int] = []
        for idx in rows["trace_index"][::-1]:
            i = int(idx)
            if 0 <= i < len(self.traces) and i not in seen:
                seen.append(i)
        if not seen:
            seen = list(range(min(len(self.traces), self.n_train)))
        train = [self.traces[i] for i in seen[:max(2, self.n_train)]]
        evaluate = [self.traces[i] for i in seen[:max(2, self.eval_traces)]]
        return train, evaluate

    def _train_candidate(self, train: list,
                         generation: int) -> DualModePredictor:
        """Fit a candidate dual forest on the recently served traces.

        Mirrors the serve-time ``quick_forest_predictor`` recipe but
        trains on the drift window's traces, shares the incumbent's
        collector (so datasets build from the warm interval LRU) and
        seeds deterministically per generation.
        """
        incumbent = self.registry.current().cpu
        predictor = incumbent.predictor
        counter_ids = np.asarray(predictor.counter_ids)
        datasets = dataset_from_traces(
            train, counter_ids, sla=incumbent.sla,
            collector=incumbent.collector,
            granularity_factor=predictor.granularity_factor,
            pmap=self.pmap)
        models: dict[Mode, Estimator] = {}
        for mode, dataset in datasets.items():
            forest = RandomForestClassifier(
                n_trees=self.n_trees, max_depth=self.max_depth,
                seed=rng_mod.derive_seed(self.seed, "online",
                                         generation, mode.value))
            forest.fit(dataset.x, dataset.y)
            models[mode] = forest
        return DualModePredictor(
            name=f"online_gen{generation + 1}", models=models,
            counter_ids=counter_ids,
            granularity_factor=predictor.granularity_factor)

    def _score(self, cpu: AdaptiveCPU,
               evaluate: list) -> tuple[float, float]:
        """(mean PPW gain, pooled RSV) of ``cpu`` over ``evaluate``."""
        results = cpu.run_many(evaluate, pmap=self.pmap)
        ppw = float(np.mean([r.ppw_gain for r in results]))
        streams = [(r.labels, r.predictions) for r in results]
        window = min(_RSV_WINDOW_CAP,
                     min(r.labels.shape[0] for r in results))
        rsv = pooled_rsv(streams, max(1, window))
        return ppw, rsv

    def snapshot(self) -> dict:
        """Health-op projection of the learner's state."""
        last = self.last_verdict
        return {
            "ticks": self.ticks,
            "retrains": self.retrains,
            "running": self._thread is not None,
            "interval_s": self.interval_s,
            "last_error": self.last_error,
            "last_verdict": None if last is None else last.snapshot(),
        }


__all__ = ["OnlineLearner", "ShadowVerdict"]
