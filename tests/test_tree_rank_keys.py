"""Rank-keyed CART split search and the one-pass threshold sweep.

The tree's split search sorts dense per-feature rank keys instead of
float values, and the forest ranks its training matrix once for all
trees. Both must reproduce the float-sort fit (``_fit_reference``, the
original recursive per-node argsort) bit for bit: same node arrays,
hence the same firmware image and predictions. The RSV threshold sweep
scores every candidate in one pass and must pick the threshold the
per-threshold ``pooled_rsv`` loop picks.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import subprocess
import sys

import numpy as np
import pytest

from repro import rng as rng_mod
from repro.core.pipeline import tune_threshold_for_rsv
from repro.data.dataset import GatingDataset, RowNames
from repro.errors import DatasetError
from repro.eval.metrics import pooled_rsv
from repro.exec import close_pools
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import KEY_LEVELS, DecisionTreeClassifier, rank_keys
from repro.uarch.modes import Mode

NODE_ARRAYS = ("feature_", "threshold_", "left_", "right_", "value_")


def assert_same_nodes(fitted, reference) -> None:
    for name in NODE_ARRAYS:
        assert (getattr(fitted, name).tobytes()
                == getattr(reference, name).tobytes()), name


def _data(rows: int, cols: int, seed: int, decimals: int | None = None,
          constant: tuple[int, ...] = ()):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    if decimals is not None:
        x = np.round(x, decimals)
    for c in constant:
        x[:, c] = 2.5
    y = (x[:, -1] + 0.6 * rng.normal(size=rows) > 0.1).astype(np.int64)
    return x, y


class TestRankKeys:
    def test_equal_values_share_a_dense_rank(self):
        xt = np.array([[3.0, -1.0, 3.0, 0.0, -0.0]])
        keys, wide = rank_keys(xt)
        assert keys.dtype == np.uint16
        assert keys.tolist() == [[2, 0, 2, 1, 1]]
        assert not wide.any()

    def test_stable_key_order_is_stable_value_order(self):
        x, _ = _data(500, 3, seed=1, decimals=1)
        xt = np.ascontiguousarray(x.T)
        keys, _ = rank_keys(xt)
        for f in range(3):
            assert np.array_equal(np.argsort(keys[f], kind="stable"),
                                  np.argsort(xt[f], kind="stable"))

    def test_feature_past_key_levels_is_wide(self):
        xt = np.vstack([np.arange(KEY_LEVELS + 1, dtype=np.float64),
                        np.zeros(KEY_LEVELS + 1)])
        keys, wide = rank_keys(xt)
        assert wide.tolist() == [True, False]
        assert not keys[1].any()


class TestTreeMatchesReference:
    @pytest.mark.parametrize("max_features", [None, 2, "sqrt"])
    @pytest.mark.parametrize("max_depth", [1, 8, 16])
    @pytest.mark.parametrize("min_samples_leaf", [1, 8, 30])
    def test_grid(self, max_features, max_depth, min_samples_leaf):
        for seed, decimals in ((0, None), (1, 1), (2, 0)):
            x, y = _data(900, 6, seed, decimals, constant=(2,))
            params = dict(max_depth=max_depth, max_features=max_features,
                          min_samples_leaf=min_samples_leaf, seed=seed)
            assert_same_nodes(
                DecisionTreeClassifier(**params).fit(x, y),
                DecisionTreeClassifier(**params)._fit_reference(x, y))

    def test_all_columns_constant_is_one_leaf(self):
        x = np.ones((50, 3))
        y = np.arange(50) % 2
        tree = DecisionTreeClassifier().fit(x, y)
        assert tree.n_nodes == 1
        assert_same_nodes(tree,
                          DecisionTreeClassifier()._fit_reference(x, y))

    def test_wide_feature_keeps_the_float_sort(self):
        rng = np.random.default_rng(4)
        rows = KEY_LEVELS + 4000
        x = np.column_stack([rng.normal(size=rows),
                             np.round(rng.normal(size=rows), 1)])
        y = (x[:, 0] + x[:, 1] > 0.2).astype(np.int64)
        _, wide = rank_keys(np.ascontiguousarray(x.T))
        assert wide.tolist() == [True, False]
        params = dict(max_depth=5, min_samples_leaf=8)
        assert_same_nodes(
            DecisionTreeClassifier(**params).fit(x, y),
            DecisionTreeClassifier(**params)._fit_reference(x, y))

    def test_fit_leaves_no_reference_cycle(self):
        x, y = _data(400, 4, seed=3)
        gc.collect()
        gc.disable()
        try:
            DecisionTreeClassifier(max_features="sqrt").fit(x, y)
            RandomForestClassifier(n_trees=3).fit(x, y)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestForestPaths:
    def _reference_forest(self, forest, x, y):
        """Each tree refitted by the float-sort oracle on its sample."""
        boot = rng_mod.stream(forest.seed, "forest-bootstrap")
        for t, tree in enumerate(forest.trees_):
            idx = boot.integers(0, x.shape[0], size=x.shape[0])
            twin = DecisionTreeClassifier(
                max_depth=forest.max_depth,
                min_samples_leaf=forest.min_samples_leaf,
                max_features=forest.max_features,
                seed=rng_mod.derive_seed(forest.seed, "tree", t))
            assert_same_nodes(tree, twin._fit_reference(x[idx], y[idx]))

    def test_serial_forest_equals_per_tree_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "serial")
        x, y = _data(1200, 8, seed=5, decimals=2)
        forest = RandomForestClassifier(n_trees=4, max_depth=8,
                                        seed=9).fit(x, y)
        self._reference_forest(forest, x, y)

    @pytest.mark.parametrize("arena", ["1", "0"])
    def test_process_paths_equal_serial(self, monkeypatch, arena):
        from repro.obs.metrics import METRICS
        x, y = _data(1500, 8, seed=6, decimals=2)
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "serial")
        serial = RandomForestClassifier(n_trees=4, seed=2).fit(x, y)
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
        monkeypatch.setenv("REPRO_EXEC_ARENA", arena)
        builds = METRICS.count("arena.builds")
        try:
            pooled = RandomForestClassifier(n_trees=4, seed=2).fit(x, y)
        finally:
            close_pools()
        assert (METRICS.count("arena.builds") - builds
                == (1 if arena == "1" else 0))
        for a, b in zip(serial.trees_, pooled.trees_):
            assert_same_nodes(a, b)


def test_quick_forest_predictor_equals_reference(monkeypatch):
    """The serving forest, refitted with every tree through the oracle."""
    from repro.serve import quick_forest_predictor, serving_corpus
    traces = serving_corpus(seed=7)
    fitted = quick_forest_predictor(traces)
    monkeypatch.setattr(
        DecisionTreeClassifier, "_fit_columns",
        lambda tree, xt, keys, wide, y: tree._fit_reference(xt.T, y))
    reference = quick_forest_predictor(traces)
    for mode in Mode:
        trees = fitted.models[mode].trees_
        twins = reference.models[mode].trees_
        assert len(trees) == len(twins)
        for tree, twin in zip(trees, twins):
            assert_same_nodes(tree, twin)


def _loop_threshold(scores, dataset, window, max_rsv):
    """The per-threshold search the one-pass sweep replaced."""
    segments = []
    codes = dataset.names.codes
    for code in np.unique(codes):
        mask = codes == code
        segments.append((dataset.y[mask], scores[mask]))
    candidates = np.unique(np.concatenate([
        np.linspace(0.3, 0.99, 24),
        np.quantile(scores, np.linspace(0.05, 0.95, 19)),
    ]))
    for threshold in candidates:
        pairs = [(y_seg, (s_seg >= threshold).astype(np.int64))
                 for y_seg, s_seg in segments]
        if pooled_rsv(pairs, window) <= max_rsv:
            return float(threshold)
    return 0.999


class _FixedScores:
    decision_threshold = 0.5

    def __init__(self, scores):
        self.scores = scores

    def predict_proba(self, x):
        return self.scores


def _tuning_set(seed: int, lengths: list[int]) -> GatingDataset:
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    # Interleave the traces' rows so segments are not contiguous.
    codes = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    codes = codes[rng.permutation(n)]
    names = [f"t{i:02d}" for i in range(len(lengths))]
    table = np.array(names)
    return GatingDataset(
        x=rng.random((n, 2)), y=(rng.random(n) < 0.45).astype(np.int64),
        names=RowNames(codes=codes, traces=table, workloads=table,
                       groups=table),
        mode=Mode.LOW_POWER, counter_ids=np.arange(2), granularity=1,
        sla_floor=0.9)


class TestThresholdSweep:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_rsv", [0.0, 0.01, 0.2, 0.6])
    def test_sweep_equals_per_threshold_loop(self, seed, max_rsv):
        # Lengths below, at and past the window, and a ragged tail.
        ds = _tuning_set(seed, [3, 8, 8, 21, 40, 5, 17])
        scores = np.random.default_rng(seed + 100).random(len(ds.y))
        scores[::7] = 0.5  # ties at a candidate threshold
        window = 8
        expect = _loop_threshold(scores, ds, window, max_rsv)
        model = _FixedScores(scores)
        got = tune_threshold_for_rsv(model, ds, max_rsv, window=window)
        assert got == expect
        assert model.decision_threshold == expect

    def test_no_threshold_within_budget_keeps_0999(self):
        ds = dataclasses.replace(_tuning_set(1, [16, 24]),
                                 y=np.zeros(40, dtype=np.int64))
        scores = np.full(40, 0.999999)
        assert _loop_threshold(scores, ds, 4, 0.0) == 0.999
        assert tune_threshold_for_rsv(_FixedScores(scores), ds, 0.0,
                                      window=4) == 0.999

    def test_no_trace_fills_a_window(self):
        ds = _tuning_set(2, [3, 5])
        with pytest.raises(DatasetError, match="no trace fills"):
            tune_threshold_for_rsv(_FixedScores(np.zeros(8)), ds,
                                   window=6)


def test_evaluate_is_byte_identical_across_backends():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    outputs = {}
    for backend in ("serial", "thread", "process"):
        done = subprocess.run(
            [sys.executable, "-m", "repro", "evaluate", "--exec-backend",
             backend, "--exec-workers", "2"],
            env=env, capture_output=True, timeout=300, check=True)
        outputs[backend] = done.stdout
    assert outputs["serial"]
    assert outputs["thread"] == outputs["serial"]
    assert outputs["process"] == outputs["serial"]
