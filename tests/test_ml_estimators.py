"""Tests for the from-scratch ML estimators."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import rng as rng_mod
from repro.errors import ConfigurationError, DatasetError, NotFittedError
from repro.ml import (
    DecisionTreeClassifier,
    KernelSVM,
    LinearSVM,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    SoftmaxRegression,
    StandardScaler,
    merge_forests,
)
from repro.ml.base import tune_threshold_for_fp_rate
from repro.ml.metrics_ml import accuracy


@pytest.fixture(scope="module")
def linear_data():
    rng = rng_mod.stream(1, "lin")
    x = rng.normal(size=(1500, 6))
    y = (x @ np.array([1.0, -2.0, 0.5, 0.0, 0.0, 1.5]) > 0).astype(int)
    return x, y


@pytest.fixture(scope="module")
def xor_data():
    rng = rng_mod.stream(2, "xor")
    x = rng.normal(size=(2500, 4))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
    return x, y


class TestStandardScaler:
    def test_zero_mean_unit_std(self, linear_data):
        x, _ = linear_data
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_safe(self):
        x = np.ones((10, 2))
        z = StandardScaler().fit_transform(x)
        assert np.all(np.isfinite(z))

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.zeros((2, 2)))


class TestLogisticRegression:
    def test_learns_linear_boundary(self, linear_data):
        x, y = linear_data
        model = LogisticRegression().fit(x[:1000], y[:1000])
        assert accuracy(y[1000:], model.predict(x[1000:])) > 0.95

    def test_fails_on_xor(self, xor_data):
        x, y = xor_data
        model = LogisticRegression().fit(x[:2000], y[:2000])
        assert accuracy(y[2000:], model.predict(x[2000:])) < 0.65

    def test_probabilities_in_unit_interval(self, linear_data):
        x, y = linear_data
        probs = LogisticRegression().fit(x, y).predict_proba(x)
        assert np.all((probs >= 0.0) & (probs <= 1.0))

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict_proba(np.zeros((2, 3)))

    def test_nan_features_rejected(self):
        x = np.full((4, 2), np.nan)
        with pytest.raises(DatasetError):
            LogisticRegression().fit(x, np.zeros(4))


class TestSoftmaxRegression:
    def test_binary_matches_logistic(self, linear_data):
        x, y = linear_data
        soft = SoftmaxRegression().fit(x[:1000], y[:1000])
        logi = LogisticRegression(class_weight=None).fit(x[:1000], y[:1000])
        p_soft = soft.predict_proba(x[1000:])[:, 1]
        p_logi = logi.predict_proba(x[1000:])
        agree = ((p_soft > 0.5) == (p_logi > 0.5)).mean()
        assert agree > 0.98

    def test_multiclass(self):
        rng = rng_mod.stream(3, "multi")
        x = rng.normal(size=(900, 2))
        y = (x[:, 0] > 0).astype(int) + 2 * (x[:, 1] > 0).astype(int)
        model = SoftmaxRegression().fit(x[:700], y[:700])
        preds = model.predict(x[700:])
        assert (preds == y[700:]).mean() > 0.9
        assert np.allclose(model.predict_proba(x[:5]).sum(axis=1), 1.0)


class TestMLP:
    def test_learns_xor(self, xor_data):
        x, y = xor_data
        model = MLPClassifier(hidden_layers=(16, 16), epochs=40,
                              seed=4).fit(x[:2000], y[:2000])
        assert accuracy(y[2000:], model.predict(x[2000:])) > 0.9

    def test_loss_decreases(self, xor_data):
        x, y = xor_data
        model = MLPClassifier(hidden_layers=(8,), epochs=20, seed=4)
        model.fit(x, y)
        assert model.loss_curve_[-1] < model.loss_curve_[0]

    def test_deterministic_given_seed(self, linear_data):
        x, y = linear_data
        a = MLPClassifier(epochs=5, seed=9).fit(x, y).predict_proba(x[:20])
        b = MLPClassifier(epochs=5, seed=9).fit(x, y).predict_proba(x[:20])
        assert np.allclose(a, b)

    def test_n_parameters(self, linear_data):
        x, y = linear_data
        model = MLPClassifier(hidden_layers=(8, 4), epochs=1).fit(x, y)
        expected = 6 * 8 + 8 + 8 * 4 + 4 + 4 * 1 + 1
        assert model.n_parameters == expected

    def test_invalid_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier(hidden_layers=(0,))

    def test_threshold_changes_predictions(self, linear_data):
        x, y = linear_data
        model = MLPClassifier(epochs=8, seed=4).fit(x, y)
        model.decision_threshold = 0.99
        conservative = model.predict(x).sum()
        model.decision_threshold = 0.01
        aggressive = model.predict(x).sum()
        assert aggressive > conservative


class TestTree:
    def test_learns_axis_aligned_rule(self):
        rng = rng_mod.stream(5, "tree")
        x = rng.normal(size=(800, 3))
        y = ((x[:, 1] > 0.3) & (x[:, 2] < 0.0)).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(x[:600], y[:600])
        assert accuracy(y[600:], tree.predict(x[600:])) > 0.95

    def test_depth_cap(self, xor_data):
        x, y = xor_data
        tree = DecisionTreeClassifier(max_depth=3).fit(x, y)
        assert tree.depth <= 3

    def test_min_samples_leaf(self):
        rng = rng_mod.stream(6, "leaf")
        x = rng.normal(size=(100, 2))
        y = (rng.random(100) < 0.5).astype(int)
        tree = DecisionTreeClassifier(max_depth=10,
                                      min_samples_leaf=20).fit(x, y)
        # No leaf probability should come from fewer than ~20 samples;
        # proxy: the tree stays small.
        assert tree.n_nodes < 15

    def test_pure_node_stops(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(max_depth=5, min_samples_leaf=1,
                                      min_samples_split=2).fit(x, y)
        assert tree.depth == 1
        assert np.array_equal(tree.predict(x), y)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((2, 2)))


class TestForest:
    def test_learns_xor(self, xor_data):
        x, y = xor_data
        rf = RandomForestClassifier(n_trees=8, max_depth=8,
                                    seed=3).fit(x[:2000], y[:2000])
        assert accuracy(y[2000:], rf.predict(x[2000:])) > 0.85

    def test_probability_is_mean_vote(self, xor_data):
        x, y = xor_data
        rf = RandomForestClassifier(n_trees=4, max_depth=4,
                                    seed=3).fit(x[:500], y[:500])
        votes = np.mean([t.predict_proba(x[:50]) for t in rf.trees_],
                        axis=0)
        assert np.allclose(rf.predict_proba(x[:50]), votes)

    def test_merge_forests(self, xor_data):
        x, y = xor_data
        a = RandomForestClassifier(n_trees=4, seed=1).fit(x[:800], y[:800])
        b = RandomForestClassifier(n_trees=4, seed=2).fit(x[:800], y[:800])
        merged = merge_forests(a, b)
        assert merged.n_trees == 8
        assert len(merged.trees_) == 8
        expected = 0.5 * (a.predict_proba(x[:50])
                          + b.predict_proba(x[:50]))
        assert np.allclose(merged.predict_proba(x[:50]), expected)

    def test_merge_unfitted_rejected(self):
        with pytest.raises(NotFittedError):
            merge_forests(RandomForestClassifier(),
                          RandomForestClassifier())

    def test_invalid_tree_count_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomForestClassifier(n_trees=0)


def _walk_one_row(tree, row):
    """Reference: follow one row down one tree, node by node."""
    node = 0
    while tree.feature_[node] >= 0:
        if row[tree.feature_[node]] <= tree.threshold_[node]:
            node = tree.left_[node]
        else:
            node = tree.right_[node]
    return tree.value_[node]


def _per_tree_sum(forest, x):
    """Reference forest vote: per-tree leaf values summed in tree
    order, then divided by the tree count."""
    votes = np.zeros(x.shape[0])
    for tree in forest.trees_:
        votes += np.array([_walk_one_row(tree, row) for row in x])
    return votes / len(forest.trees_)


class TestForestWalk:
    """The stacked one-walk inference against a per-tree reference."""

    @pytest.fixture(scope="class")
    def mixed_forest(self, xor_data):
        """A merged forest whose trees differ in size and depth, one
        half of them single-leaf trees."""
        x, y = xor_data
        shallow = RandomForestClassifier(n_trees=3, max_depth=2,
                                         seed=4).fit(x[:600], y[:600])
        deep = RandomForestClassifier(n_trees=4, max_depth=9,
                                      seed=5).fit(x[:1500], y[:1500])
        leaves = RandomForestClassifier(n_trees=2, seed=6).fit(
            x[:200], np.zeros(200, dtype=int))
        return merge_forests(merge_forests(shallow, leaves), deep)

    def test_unequal_trees_and_single_leaves(self, mixed_forest, xor_data):
        x, _ = xor_data
        assert len({t.n_nodes for t in mixed_forest.trees_}) > 2
        assert min(t.n_nodes for t in mixed_forest.trees_) == 1
        assert np.array_equal(mixed_forest.predict_proba(x[2000:]),
                              _per_tree_sum(mixed_forest, x[2000:]))

    def test_single_leaf_tree(self):
        x = np.random.default_rng(0).random((40, 3))
        tree = DecisionTreeClassifier().fit(x, np.ones(40, dtype=int))
        assert tree.n_nodes == 1
        assert np.array_equal(tree.predict_proba(x), np.ones(40))

    def test_tree_matches_reference(self, xor_data):
        x, y = xor_data
        tree = DecisionTreeClassifier(max_depth=7).fit(x[:1000], y[:1000])
        expected = np.array([_walk_one_row(tree, row) for row in x[2000:]])
        assert np.array_equal(tree.predict_proba(x[2000:]), expected)

    def test_merge_result(self, xor_data):
        x, y = xor_data
        a = RandomForestClassifier(n_trees=4, max_depth=3,
                                   seed=1).fit(x[:800], y[:800])
        b = RandomForestClassifier(n_trees=4, max_depth=8,
                                   seed=2).fit(x[:800], y[:800])
        a.predict_proba(x[:5])
        b.predict_proba(x[:5])  # both halves hold a stacked table
        merged = merge_forests(a, b)
        assert np.array_equal(merged.predict_proba(x[2000:]),
                              _per_tree_sum(merged, x[2000:]))

    def test_pickle_round_trip(self, mixed_forest, xor_data):
        import pickle
        x, _ = xor_data
        expected = mixed_forest.predict_proba(x[2000:])
        assert "_node_table" in mixed_forest.__dict__
        clone = pickle.loads(pickle.dumps(mixed_forest))
        # The stacked table is derived state: it is not pickled.
        assert "_node_table" not in clone.__dict__
        assert np.array_equal(clone.predict_proba(x[2000:]), expected)
        assert np.array_equal(clone.predict_proba(x[2000:]),
                              _per_tree_sum(clone, x[2000:]))

    def test_one_row(self, mixed_forest, xor_data):
        x, _ = xor_data
        for i in range(2000, 2020):
            row = x[i:i + 1]
            assert np.array_equal(mixed_forest.predict_proba(row),
                                  _per_tree_sum(mixed_forest, row))

    def test_concurrent_first_predictions_agree(self, xor_data):
        import sys
        import threading
        x, y = xor_data
        rf = RandomForestClassifier(n_trees=6, max_depth=6, seed=8)
        rf.fit(x[:1000], y[:1000])
        expected = _per_tree_sum(rf, x[2000:2100])
        wrong = []

        def worker():
            for _ in range(20):
                if not np.array_equal(rf.predict_proba(x[2000:2100]),
                                      expected):
                    wrong.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_refit_rebuilds_the_table(self, xor_data):
        x, y = xor_data
        rf = RandomForestClassifier(n_trees=3, max_depth=4, seed=7)
        rf.fit(x[:400], y[:400])
        rf.predict_proba(x[:5])
        rf.fit(x[400:1200], y[400:1200])
        assert np.array_equal(rf.predict_proba(x[2000:]),
                              _per_tree_sum(rf, x[2000:]))


class TestSVMs:
    def test_linear_svm_separates(self, linear_data):
        x, y = linear_data
        svm = LinearSVM().fit(x[:1000], y[:1000])
        assert accuracy(y[1000:], svm.predict(x[1000:])) > 0.93

    def test_linear_svm_ensemble(self, linear_data):
        x, y = linear_data
        svm = LinearSVM(n_members=5, seed=3).fit(x[:1000], y[:1000])
        assert svm.coefs_.shape[0] == 5
        assert accuracy(y[1000:], svm.predict(x[1000:])) > 0.9

    def test_kernel_svm_beats_linear_on_ring(self):
        rng = rng_mod.stream(7, "ring")
        x = np.abs(rng.normal(size=(1200, 2)))
        radius = np.linalg.norm(x, axis=1)
        y = ((radius > 0.8) & (radius < 1.8)).astype(int)
        lin = LinearSVM().fit(x[:900], y[:900])
        ker = KernelSVM(kernel="rbf", gamma=4.0, max_support_vectors=300,
                        max_passes=4, seed=1).fit(x[:900], y[:900])
        acc_lin = accuracy(y[900:], lin.predict(x[900:]))
        acc_ker = accuracy(y[900:], ker.predict(x[900:]))
        assert acc_ker > acc_lin

    def test_support_vector_budget(self, linear_data):
        x, y = linear_data
        svm = KernelSVM(kernel="linear", max_support_vectors=100,
                        max_passes=2).fit(x, y)
        assert svm.n_support <= 100

    def test_chi2_kernel_requires_non_negative(self):
        from repro.ml.kernels import chi2_kernel
        with pytest.raises(ConfigurationError):
            chi2_kernel(np.array([[-1.0]]), np.array([[1.0]]))

    def test_unknown_kernel_rejected(self):
        from repro.ml.kernels import get_kernel
        with pytest.raises(ConfigurationError):
            get_kernel("sinc")


class TestThresholdTuning:
    def test_fp_rate_bounded_after_tuning(self, linear_data):
        x, y = linear_data
        model = LogisticRegression().fit(x, y)
        tune_threshold_for_fp_rate(model, x, y, max_fp_rate=0.01)
        preds = model.predict(x)
        fp_rate = ((preds == 1) & (y == 0)).sum() / max((y == 0).sum(), 1)
        assert fp_rate <= 0.015

    def test_tuning_never_lowers_below_half(self, linear_data):
        x, y = linear_data
        model = LogisticRegression().fit(x, y)
        threshold = tune_threshold_for_fp_rate(model, x, y, 0.5)
        assert threshold >= 0.5


def test_pipeline_import_defers_scipy_optimize():
    # scipy.optimize is most of the package's import time; only the
    # L-BFGS fits load it.
    code = ("import sys\n"
            "import repro.core.pipeline, repro.serve.server\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "from repro.ml import LogisticRegression\n"
            "import numpy as np\n"
            "LogisticRegression().fit(np.eye(4), np.array([0, 1, 0, 1]))\n"
            "assert 'scipy.optimize' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(repro.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
