"""End-to-end train/deploy recipes for the paper's models (Section 7).

Builds the four evaluated adaptation models plus utilities shared by
the benchmark harness:

* **Best RF** — 8 trees, depth 8, 12 PF counters, 40k-instruction
  gating interval (538 inference ops fit the 40k budget of 625).
* **Best MLP** — 3 layers of 8/8/4 filters, 12 PF counters, 50k
  interval (678 ops fit the 50k budget of 781).
* **CHARSTAR** — Ravi et al.'s 1-layer 10-filter MLP on 8 expert
  counters, ReLU, 20k interval (292 ops fit 312); no sensitivity
  tuning, as in the original work.
* **SRCH** — Dubach et al.'s softmax-on-histograms (logistic for two
  configurations) on the top PF counters, evaluated at both the 40k
  interval the microcontroller supports and a coarse interval standing
  in for its original 10M-instruction window.

All of the paper's own models are sensitivity-tuned after training to
keep tuning-set false-positive rates (the driver of SLA violations)
below a budget (Section 6.3).
"""

from __future__ import annotations

import dataclasses
import functools
import pickle
from collections.abc import Callable, Iterable

import numpy as np

from repro import rng as rng_mod
from repro.config import DEFAULT_SLA, SLAConfig, active_exec_config
from repro.core.predictor import DualModePredictor
from repro.data.builders import dataset_from_traces
from repro.data.dataset import GatingDataset, RowNames
from repro.errors import (
    ArenaIntegrityError,
    ConfigurationError,
    DatasetError,
)
from repro.eval.metrics import effective_sla_window
from repro.exec.arena import TraceArena
from repro.exec.parallel import ParallelMap, default_parallel_map
from repro.obs.metrics import METRICS
from repro.obs import tracer
from repro.eval.metrics import pgos as pgos_metric
from repro.ml.base import Estimator
from repro.ml.forest import RandomForestClassifier
from repro.ml.histogram import CounterHistogramEncoder
from repro.ml.linear import LogisticRegression
from repro.ml.mlp import MLPClassifier
from repro.telemetry.collector import TelemetryCollector
from repro.telemetry.counters import default_catalog
from repro.telemetry.selection import (
    gather_selection_stats,
    pf_counter_selection,
)
from repro.uarch.modes import Mode
from repro.workloads.generator import TraceSpec

#: Gating granularity factors (multiples of the 10k base interval) per
#: model, fixed by the microcontroller budget analysis of Table 3.
GRANULARITY_FACTORS = {
    "best_rf": 4,  # 40k: 538 ops <= 625 budget
    "best_mlp": 5,  # 50k: 678 ops <= 781 budget
    "charstar": 2,  # 20k: 292 ops <= 312 budget
    "srch": 4,  # 40k: 572 ops <= 625 budget
    "srch_coarse": 20,  # scaled stand-in for the original 10M interval
}

#: Default tuning-set RSV budget for sensitivity tuning (the paper
#: keeps SLA violations below 1.0% on the tuning set, Section 6.3).
DEFAULT_RSV_BUDGET = 0.01


def tune_threshold_for_rsv(model: Estimator, dataset: GatingDataset,
                           max_rsv: float = DEFAULT_RSV_BUDGET,
                           window: int | None = None) -> float:
    """Adjust sensitivity to bound tuning-set SLA violations.

    Section 6.3: "we adjust its sensitivity — the prediction threshold
    required to choose low-power mode — to keep SLA violations below
    1.0% on the tuning set." The search picks the *lowest* threshold
    (highest recall, hence highest PPW) whose windowed RSV over the
    tuning traces stays within budget.
    """
    if window is None:
        window = effective_sla_window(dataset.granularity)
    scores = model.predict_proba(dataset.x)
    candidates = np.unique(np.concatenate([
        np.linspace(0.3, 0.99, 24),
        np.quantile(scores, np.linspace(0.05, 0.95, 19)),
    ]))
    rsv = _sweep_rsv(dataset.names.codes, dataset.y, scores, candidates,
                     window)
    within = np.flatnonzero(rsv <= max_rsv)
    chosen = float(candidates[within[0]]) if within.size else 0.999
    model.decision_threshold = chosen
    return chosen


def _sweep_rsv(codes: np.ndarray, y: np.ndarray, scores: np.ndarray,
               thresholds: np.ndarray, window: int) -> np.ndarray:
    """Pooled RSV at every threshold, in one array pass.

    Equals ``pooled_rsv`` over the per-trace segments (rows grouped by
    ``codes``, in row order) of the predictions ``scores >= t``, for
    each ``t``: windows never straddle traces, a trace's partial tail
    is dropped, and a window violates when more than half of its rows
    are false positives. The per-window means and the pooled rate are
    the same exact 0/1 means, so each rate is the same float.
    """
    if window <= 0:
        raise DatasetError(f"window must be positive, got {window}")
    order = np.argsort(codes, kind="stable")
    grouped = codes.take(order)
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    lengths = np.diff(starts, append=order.size)
    within = np.arange(order.size) - np.repeat(starts, lengths)
    rows = order[within < np.repeat(lengths // window * window, lengths)]
    if rows.size == 0:
        raise DatasetError("no trace fills a single window")
    negative = (y.take(rows) == 0).reshape(-1, window)
    windows = scores.take(rows).reshape(-1, window)
    false_pos = ((windows >= thresholds[:, None, None]) & negative)
    violations = (false_pos.mean(axis=2) > 0.5).sum(axis=1)
    return violations / negative.shape[0]


class SRCHEstimator(Estimator):
    """SRCH: logistic regression on bucketized counter features.

    Dubach et al. encode each counter as a 10-bucket histogram over the
    prediction window; at one sample per window this reduces to a
    per-counter one-hot bucketization, preserving SRCH's defining
    property — piecewise-constant features — while fitting the shared
    dataset layout.
    """

    def __init__(self, n_buckets: int = 10, l2: float = 1e-4) -> None:
        self.encoder = CounterHistogramEncoder(n_buckets=n_buckets, window=1)
        # Plain (unweighted) fit, as in the original SRCH framework.
        self.logreg = LogisticRegression(l2=l2, class_weight=None)
        self.decision_threshold = 0.5

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SRCHEstimator":
        features = self.encoder.fit_transform(x)
        self.logreg.fit(features, y)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        return self.logreg.predict_proba(self.encoder.transform(x))


def select_counters(traces: list[TraceSpec],
                    collector: TelemetryCollector | None = None,
                    r: int = 12, tau: float = 0.7) -> list[int]:
    """Run PF Counter Selection over a trace corpus (Section 6.2)."""
    collector = collector or TelemetryCollector()
    stats = gather_selection_stats(collector, traces)
    return pf_counter_selection(stats, r=r, tau=tau).selected_ids


def _calibration_split(dataset: GatingDataset, fraction: float,
                       seed: int) -> tuple[GatingDataset, GatingDataset]:
    """Hold out a fraction of *applications* for sensitivity tuning.

    Thresholds tuned on the same rows a model was fit to inherit the
    model's training optimism; holding out whole applications makes the
    calibration scores look like deployment scores.
    """
    apps = np.unique(dataset.groups)
    rng = rng_mod.stream(seed, "calibration", dataset.mode.value)
    n_cal = max(1, int(round(len(apps) * fraction)))
    cal_apps = set(rng.choice(apps, size=n_cal, replace=False).tolist())
    cal_mask = np.isin(dataset.groups, list(cal_apps))
    return dataset.subset(~cal_mask), dataset.subset(cal_mask)


def _fit_candidate(unit: tuple[Mode, int], *,
                   factory: Callable[[Mode], Estimator],
                   datasets: dict[Mode, GatingDataset],
                   rsv_budget: float, calibration_fraction: float,
                   seed: int) -> tuple[float, int, Estimator]:
    """Fit/tune/score one (mode, candidate) restart (parallel unit).

    The calibration split is a pure function of ``(seed, mode)`` and
    candidate seeds derive from the candidate index alone, so every
    cell of the (mode, candidate) grid is independent and the fan-out
    is bit-identical to the nested serial loops on any backend.
    """
    mode, candidate = unit
    fit_ds, cal_ds = _calibration_split(datasets[mode],
                                        calibration_fraction, seed)
    model = factory(mode)
    if candidate > 0 and hasattr(model, "seed"):
        model.seed = rng_mod.derive_seed(  # type: ignore
            seed, "candidate", mode.value, candidate)
    model.fit(fit_ds.x, fit_ds.y)
    tune_threshold_for_rsv(model, cal_ds, rsv_budget)
    preds = model.predict(cal_ds.x)
    return (pgos_metric(cal_ds.y, preds), candidate, model)


def _build_train_arena(factory: Callable[[Mode], Estimator],
                       datasets: dict[Mode, GatingDataset]) -> TraceArena:
    """Pack the per-mode training datasets (and factory) into an arena.

    Feature/label matrices, the row codes and the name tables ship as
    named bulk arrays (``np.frombuffer`` round-trips unicode dtypes, so
    the tables ride the data region too); only the scalar metadata and
    the factory go through the pickled header. Workers then attach once
    per process instead of unpickling the full training set per chunk.
    """
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, dict] = {}
    for mode, ds in datasets.items():
        tag = mode.value
        arrays[f"x_{tag}"] = ds.x
        arrays[f"y_{tag}"] = ds.y
        arrays[f"codes_{tag}"] = ds.names.codes
        arrays[f"trace_names_{tag}"] = ds.names.traces
        arrays[f"workload_names_{tag}"] = ds.names.workloads
        arrays[f"group_names_{tag}"] = ds.names.groups
        arrays[f"counter_ids_{tag}"] = ds.counter_ids
        meta[tag] = {"granularity": ds.granularity,
                     "sla_floor": ds.sla_floor}
    return TraceArena.build(
        arrays=arrays,
        objects={"factory": factory, "train_meta": meta})


def _datasets_from_arena(arena: TraceArena) -> dict[Mode, GatingDataset]:
    """Rebuild the per-mode datasets as views of the shared mapping.

    The views are read-only; every consumer (``subset``'s fancy
    indexing, estimator ``fit``) copies the rows it selects, so the
    reconstructed datasets behave exactly like their pickled twins.
    """
    meta = arena.object("train_meta")
    datasets: dict[Mode, GatingDataset] = {}
    for mode in Mode:
        tag = mode.value
        if tag not in meta:
            continue
        datasets[mode] = GatingDataset(
            x=arena.array(f"x_{tag}"),
            y=arena.array(f"y_{tag}"),
            names=RowNames(
                codes=arena.array(f"codes_{tag}"),
                traces=arena.array(f"trace_names_{tag}"),
                workloads=arena.array(f"workload_names_{tag}"),
                groups=arena.array(f"group_names_{tag}")),
            mode=mode,
            counter_ids=arena.array(f"counter_ids_{tag}"),
            granularity=int(meta[tag]["granularity"]),
            sla_floor=float(meta[tag]["sla_floor"]),
        )
    return datasets


def _arena_fit_candidate(handle: str, unit: tuple[Mode, int], *,
                         rsv_budget: float, calibration_fraction: float,
                         seed: int) -> tuple[float, int, Estimator]:
    """Worker-side candidate fit: datasets and factory ride the arena."""
    arena = TraceArena.attach(handle)
    return _fit_candidate(
        unit,
        factory=arena.object("factory"),
        datasets=_datasets_from_arena(arena),
        rsv_budget=rsv_budget,
        calibration_fraction=calibration_fraction,
        seed=seed,
    )


def _fit_candidate_grid(factory: Callable[[Mode], Estimator],
                        datasets: dict[Mode, GatingDataset],
                        grid: list[tuple[Mode, int]],
                        pmap: ParallelMap, *, rsv_budget: float,
                        calibration_fraction: float, seed: int) -> list:
    """Fan the (mode, candidate) grid out, via the arena when it pays.

    Mirrors the hyperscreen/dataset-builder arena protocol: the shared
    training matrices are packaged once when dispatch will actually
    cross a process boundary; an unpicklable factory (a closure or
    lambda) falls back to plain dispatch at build time, and a corrupt
    segment falls back at attach time — results are bit-identical on
    every path.
    """
    arena = None
    if (active_exec_config().arena and len(grid) > 1
            and pmap.uses_processes(len(grid), "train_candidates")):
        try:
            arena = _build_train_arena(factory, datasets)
        except (pickle.PicklingError, AttributeError, TypeError):
            METRICS.incr("arena.build_fallback")
    if arena is not None:
        try:
            return pmap.map(
                functools.partial(
                    _arena_fit_candidate, arena.handle,
                    rsv_budget=rsv_budget,
                    calibration_fraction=calibration_fraction,
                    seed=seed),
                grid, stage="train_candidates")
        except ArenaIntegrityError:
            # Corrupt/injected-corrupt segment: fall back to pickled
            # dispatch below — bit-identical, just slower.
            METRICS.incr("arena.attach_fallback")
        finally:
            arena.close()
    return pmap.map(
        functools.partial(_fit_candidate, factory=factory,
                          datasets=datasets, rsv_budget=rsv_budget,
                          calibration_fraction=calibration_fraction,
                          seed=seed),
        grid, stage="train_candidates")


def train_dual_predictor(name: str,
                         factory: Callable[[Mode], Estimator],
                         datasets: dict[Mode, GatingDataset],
                         granularity_factor: int,
                         rsv_budget: float | None = DEFAULT_RSV_BUDGET,
                         calibration_fraction: float = 0.15,
                         n_candidates: int = 1,
                         seed: int = 0,
                         pmap: ParallelMap | None = None,
                         ) -> DualModePredictor:
    """Train one model per telemetry mode and package them.

    ``rsv_budget`` enables post-training sensitivity tuning on a
    held-out calibration split of applications; pass ``None`` to keep
    the raw 0.5 threshold (the baselines). ``n_candidates > 1`` trains
    several random restarts and keeps the one with the highest
    calibration-set PGOS at its tuned threshold — the deployment-time
    face of the paper's "screen models for those that perform most
    consistently" principle. Candidate fits across both modes fan out
    through ``pmap`` (serial by default) as one (mode, candidate) grid.
    """
    models: dict[Mode, Estimator] = {}
    counter_ids = None
    for mode in Mode:
        ds = datasets[mode]
        if counter_ids is None:
            counter_ids = ds.counter_ids
        elif not np.array_equal(counter_ids, ds.counter_ids):
            raise ConfigurationError("per-mode counter sets must match")
    assert counter_ids is not None
    if rsv_budget is not None and calibration_fraction > 0.0:
        pmap = pmap if pmap is not None else default_parallel_map()
        n_cand = max(1, n_candidates)
        grid = [(mode, candidate) for mode in Mode
                for candidate in range(n_cand)]
        with tracer.span("train.candidates", predictor=name,
                         candidates=n_cand):
            cells = _fit_candidate_grid(
                factory, datasets, grid, pmap,
                rsv_budget=rsv_budget,
                calibration_fraction=calibration_fraction, seed=seed)
        for i, mode in enumerate(Mode):
            scored = cells[i * n_cand:(i + 1) * n_cand]
            # The median candidate by calibration PGOS: random restarts
            # at the tails are either unlucky fits or lucky-aggressive
            # ones that generalise worse.
            scored.sort(key=lambda item: item[:2])
            models[mode] = scored[len(scored) // 2][2]
    else:
        for mode in Mode:
            ds = datasets[mode]
            model = factory(mode)
            model.fit(ds.x, ds.y)
            if rsv_budget is not None:
                tune_threshold_for_rsv(model, ds, rsv_budget)
            models[mode] = model
    return DualModePredictor(
        name=name,
        models=models,
        counter_ids=np.asarray(counter_ids),
        granularity_factor=granularity_factor,
    )


# The tuned standard models' factories are module-level functions
# (bound with functools.partial), so they pickle by reference: the
# (mode, candidate) grid ships them through the training arena to pool
# workers instead of falling back to serial fits in the parent.
def _best_rf_model(mode: Mode, *, seed: int) -> Estimator:
    return RandomForestClassifier(
        n_trees=8, max_depth=8,
        seed=rng_mod.derive_seed(seed, "best-rf", mode.value),
    )


def _mlp_model(mode: Mode, *, hidden: tuple[int, ...], tag: str,
               seed: int) -> Estimator:
    return MLPClassifier(
        hidden_layers=hidden,
        epochs=60,
        seed=rng_mod.derive_seed(seed, tag, mode.value),
    )


@dataclasses.dataclass
class StandardModels:
    """The trained model zoo of Section 7 plus shared context."""

    predictors: dict[str, DualModePredictor]
    pf_counter_ids: list[int]
    charstar_counter_ids: list[int]
    collector: TelemetryCollector
    sla: SLAConfig

    def __getitem__(self, name: str) -> DualModePredictor:
        return self.predictors[name]

    def names(self) -> list[str]:
        return list(self.predictors)


def build_standard_models(train_traces: list[TraceSpec], seed: int,
                          sla: SLAConfig = DEFAULT_SLA,
                          collector: TelemetryCollector | None = None,
                          pf_counter_ids: list[int] | None = None,
                          include: Iterable[str] | None = None,
                          rsv_budget: float = DEFAULT_RSV_BUDGET,
                          selection_traces: int = 60,
                          ) -> StandardModels:
    """Train the Section-7 model zoo on a training corpus.

    Parameters
    ----------
    pf_counter_ids:
        Pre-selected PF counters; when omitted, PF Counter Selection
        runs on a subsample of the training traces (``selection_traces``
        of them — covariance statistics saturate quickly).
    include:
        Restrict which predictors to train (names of
        ``GRANULARITY_FACTORS``); all five by default.
    """
    collector = collector or TelemetryCollector()
    catalog = default_catalog()
    wanted = set(include) if include is not None else set(GRANULARITY_FACTORS)
    unknown = wanted - set(GRANULARITY_FACTORS)
    if unknown:
        raise ConfigurationError(f"unknown model names: {sorted(unknown)}")

    if pf_counter_ids is None:
        stride = max(1, len(train_traces) // selection_traces)
        sample = train_traces[::stride]
        # PF selection is greedy-sequential, so the top 12 of an r=15
        # run equal the r=12 run; SRCH uses the full top 15 (Section 7).
        pf_counter_ids = select_counters(sample, collector, r=15)
    srch_ids = list(pf_counter_ids[:15])
    pf_counter_ids = list(pf_counter_ids[:12])
    charstar_ids = catalog.charstar_ids

    # Datasets per (counter set, granularity factor, label floor).
    # SRCH follows Dubach et al.'s framework literally: it is trained
    # to predict the *highest performing* configuration, i.e. gate only
    # when low-power mode performs at least as well — not the SLA-
    # relaxed target the paper's own models train to. This is what
    # makes SRCH conservative (low PGOS, low PPW) in Section 7.
    srch_sla = dataclasses.replace(sla, performance_floor=1.0)
    counter_sets = {"pf": pf_counter_ids, "charstar": charstar_ids,
                    "srch": srch_ids}
    model_counters = {
        "best_rf": "pf", "best_mlp": "pf", "srch": "srch",
        "srch_coarse": "srch", "charstar": "charstar",
    }
    model_slas = {name: (srch_sla if name.startswith("srch") else sla)
                  for name in GRANULARITY_FACTORS}
    needs: set[tuple[str, int, float]] = set()
    for model_name in wanted:
        needs.add((model_counters[model_name],
                   GRANULARITY_FACTORS[model_name],
                   model_slas[model_name].performance_floor))

    datasets: dict[tuple[str, int, float], dict[Mode, GatingDataset]] = {}
    for (set_name, factor, floor) in needs:
        ds_sla = dataclasses.replace(sla, performance_floor=floor)
        datasets[(set_name, factor, floor)] = dataset_from_traces(
            train_traces, counter_sets[set_name], ds_sla, collector,
            factor)

    recipes: dict[str, tuple[Callable[[Mode], Estimator], str,
                             float | None]] = {
        "best_rf": (functools.partial(_best_rf_model, seed=seed), "pf",
                    rsv_budget),
        "best_mlp": (functools.partial(_mlp_model, hidden=(8, 8, 4),
                                       tag="best-mlp", seed=seed),
                     "pf", rsv_budget),
        "charstar": (functools.partial(_mlp_model, hidden=(10,),
                                       tag="charstar", seed=seed),
                     "charstar", None),
        "srch": (lambda mode: SRCHEstimator(), "srch", None),
        "srch_coarse": (lambda mode: SRCHEstimator(), "srch", None),
    }

    predictors: dict[str, DualModePredictor] = {}
    for model_name in sorted(wanted):
        factory, set_name, budget = recipes[model_name]
        factor = GRANULARITY_FACTORS[model_name]
        key = (set_name, factor, model_slas[model_name].performance_floor)
        predictors[model_name] = train_dual_predictor(
            model_name, factory, datasets[key], factor,
            rsv_budget=budget, seed=rng_mod.derive_seed(seed, model_name),
            n_candidates=3 if model_name == "best_mlp" else 1,
        )
    return StandardModels(
        predictors=predictors,
        pf_counter_ids=list(pf_counter_ids),
        charstar_counter_ids=list(charstar_ids),
        collector=collector,
        sla=sla,
    )
