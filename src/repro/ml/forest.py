"""Random forest classifier.

Bootstrap-aggregated CART trees with per-split feature subsampling.
The paper's Best RF is 8 trees of max depth 8 over the 12 PF counters
(Section 6.3 / Table 3). Section 7.3's application-specific models are
built by *merging* two half-forests — one trained on the high-diversity
corpus, one on the target application — which :func:`merge_forests`
implements.
"""

from __future__ import annotations

import functools
import pickle

import numpy as np

from repro import rng as rng_mod
from repro.config import active_exec_config
from repro.errors import (
    ArenaIntegrityError,
    ConfigurationError,
    NotFittedError,
)
from repro.exec.arena import TraceArena
from repro.exec.parallel import default_parallel_map
from repro.obs.metrics import METRICS
from repro.ml.base import Estimator, check_xy
from repro.ml.tree import (
    DecisionTreeClassifier,
    cached_node_table,
    rank_keys,
)


def _fit_tree_task(task: tuple[np.ndarray, int], *, xt: np.ndarray,
                   keys: np.ndarray, wide: np.ndarray, y: np.ndarray,
                   params: dict) -> DecisionTreeClassifier:
    """Grow one tree from pre-drawn bootstrap indices (parallel unit).

    The tree gathers its bootstrap columns and their rank keys from
    the forest's once-ranked matrix, so no tree re-sorts values.
    """
    idx, tree_seed = task
    tree = DecisionTreeClassifier(seed=tree_seed, **params)
    return tree._fit_columns(xt.take(idx, axis=1), keys.take(idx, axis=1),
                             wide, y.take(idx))


def _arena_fit_tree(handle: str, t: int) -> DecisionTreeClassifier:
    """Worker-side tree fit: the matrix, keys and indices ride the
    arena, tasks are tree numbers."""
    arena = TraceArena.attach(handle)
    return _fit_tree_task(
        (arena.array("idx")[t], int(arena.array("seeds")[t])),
        xt=arena.array("xt"), keys=arena.array("keys"),
        wide=arena.array("wide"), y=arena.array("y"),
        params=arena.object("params"))


class RandomForestClassifier(Estimator):
    """Ensemble of CART trees; probability is the mean tree vote."""

    def __init__(self, n_trees: int = 8, max_depth: int = 8,
                 min_samples_leaf: int = 8,
                 max_features: int | str | None = "sqrt",
                 bootstrap: bool = True, seed: int = 0) -> None:
        if n_trees < 1:
            raise ConfigurationError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self.decision_threshold = 0.5
        self.trees_: list[DecisionTreeClassifier] | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        """Grow the ensemble; tree fits fan out through the exec engine.

        Bootstrap indices are pre-drawn *sequentially* from the same
        ``forest-bootstrap`` stream as the original loop and each tree
        keeps its ``derive_seed(seed, "tree", t)`` seed, so the fitted
        forest is bit-identical regardless of backend, worker count or
        chunking. The training matrix is ranked once per feature
        (:func:`~repro.ml.tree.rank_keys`) and stored column-major;
        each tree gathers its bootstrap columns and keys from it. Under
        a process/auto backend the matrix, keys, index block and
        per-tree seeds ship once via a
        :class:`~repro.exec.arena.TraceArena`; task payloads are tree
        numbers.
        """
        x, y = check_xy(x, y)
        rng = rng_mod.stream(self.seed, "forest-bootstrap")
        n = x.shape[0]
        if self.bootstrap:
            idx_all = [rng.integers(0, n, size=n)
                       for _ in range(self.n_trees)]
        else:
            idx_all = [np.arange(n) for _ in range(self.n_trees)]
        seeds = [rng_mod.derive_seed(self.seed, "tree", t)
                 for t in range(self.n_trees)]
        xt = np.ascontiguousarray(x.T)
        keys, wide = rank_keys(xt)
        params = {"max_depth": self.max_depth,
                  "min_samples_leaf": self.min_samples_leaf,
                  "max_features": self.max_features}
        pmap = default_parallel_map()
        arena = None
        if (active_exec_config().arena and self.n_trees > 1
                and pmap.uses_processes(self.n_trees, "forest_fit")):
            try:
                arena = TraceArena.build(
                    arrays={"xt": xt, "keys": keys, "wide": wide, "y": y,
                            "idx": np.stack(idx_all),
                            "seeds": np.asarray(seeds, dtype=np.int64)},
                    objects={"params": params})
            except (pickle.PicklingError, AttributeError, TypeError):
                METRICS.incr("arena.build_fallback")
        self.trees_ = None
        if arena is not None:
            try:
                self.trees_ = pmap.map(
                    functools.partial(_arena_fit_tree, arena.handle),
                    range(self.n_trees), stage="forest_fit")
            except ArenaIntegrityError:
                # Corrupt/injected-corrupt segment: fall back to
                # pickled dispatch below — bit-identical, just slower.
                METRICS.incr("arena.attach_fallback")
            finally:
                arena.close()
        if self.trees_ is None:
            self.trees_ = pmap.map(
                functools.partial(_fit_tree_task, xt=xt, keys=keys,
                                  wide=wide, y=y, params=params),
                list(zip(idx_all, seeds)), stage="forest_fit")
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Mean tree vote, from one walk through every tree at once.

        The trees' node arrays are stacked once per fitted forest
        (:class:`~repro.ml.tree.NodeTable`); votes are summed in tree
        order, so the result is bit-identical to summing per-tree
        ``predict_proba`` calls.
        """
        self._require_fitted("trees_")
        assert self.trees_ is not None
        x, _ = check_xy(x)
        table = cached_node_table(self, self.trees_, self.trees_)
        votes = np.zeros(x.shape[0])
        for tree_votes in table.leaf_values(x):
            votes += tree_votes
        return votes / len(self.trees_)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_node_table", None)
        return state

    # ------------------------------------------------------------------
    @property
    def total_nodes(self) -> int:
        """Total node count across all trees."""
        self._require_fitted("trees_")
        assert self.trees_ is not None
        return sum(tree.n_nodes for tree in self.trees_)


def merge_forests(first: RandomForestClassifier,
                  second: RandomForestClassifier,
                  ) -> RandomForestClassifier:
    """Combine two fitted forests into one (Section 7.3).

    The paper builds application-specific models by joining a 4-tree
    forest trained on HDTR with a 4-tree forest trained on the target
    application, forming a single 8-tree forest whose vote blends
    high-diversity and application-specific knowledge.
    """
    if first.trees_ is None or second.trees_ is None:
        raise NotFittedError("both forests must be fitted before merging")
    merged = RandomForestClassifier(
        n_trees=first.n_trees + second.n_trees,
        max_depth=max(first.max_depth, second.max_depth),
        min_samples_leaf=min(first.min_samples_leaf,
                             second.min_samples_leaf),
        max_features=first.max_features,
        bootstrap=first.bootstrap,
        seed=first.seed,
    )
    merged.trees_ = [*first.trees_, *second.trees_]
    merged.decision_threshold = 0.5 * (first.decision_threshold
                                       + second.decision_threshold)
    return merged
