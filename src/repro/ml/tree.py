"""CART decision-tree classifier.

The paper trains random-forest adaptation models with "an open source
implementation of the CART algorithm that greedily grows trees by
partitioning tuning samples into groups to minimize label entropy"
(Section 7). This is that algorithm: exhaustive threshold search per
feature using sorted prefix sums (vectorised in numpy), entropy
criterion, depth-first growth to a depth cap. Rows are ordered by
dense per-feature rank keys (:func:`rank_keys`), which sort in the
order of the float values but faster.

The fitted tree is stored as flat arrays (feature, threshold, children,
leaf probability), which map directly onto the firmware compiler's
node layout (:mod:`repro.firmware.codegen`). Inference stacks those
arrays into a :class:`NodeTable`, which walks every row through one
tree or a whole forest at once.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import rng as rng_mod
from repro.errors import ConfigurationError
from repro.ml.base import Estimator, check_xy


def entropy(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Binary entropy of ``pos`` positives out of ``total`` samples."""
    total = np.maximum(total, 1e-12)
    p = np.clip(pos / total, 1e-12, 1.0 - 1e-12)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def _entropy_arrays(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    """:func:`entropy` of 1-D arrays, the same operations in place."""
    p = pos / np.maximum(total, 1e-12)
    np.clip(p, 1e-12, 1.0 - 1e-12, out=p)
    q = 1.0 - p
    h = np.log2(p)
    h *= p
    hq = np.log2(q)
    hq *= q
    h += hq
    return np.negative(h, out=h)


class NodeTable:
    """The node arrays of one or more fitted trees, stacked for one walk.

    Node ids are global across the stacked trees. A leaf points both
    children at itself, so every row takes exactly ``depth`` steps
    (the deepest tree's depth) and ends on its leaf in every tree at
    once: no per-tree loop and no active-row masking. The comparison
    at each split is the fitted one, ``x[feature] <= threshold``, so
    the leaf reached, and its value, are those of a per-tree walk.
    """

    def __init__(self, trees: list["DecisionTreeClassifier"]) -> None:
        sizes = [tree.n_nodes for tree in trees]
        offsets = np.cumsum([0, *sizes[:-1]]).astype(np.int64)
        feature = np.concatenate([tree.feature_ for tree in trees])
        left = np.concatenate([tree.left_ + off
                               for tree, off in zip(trees, offsets)])
        right = np.concatenate([tree.right_ + off
                                for tree, off in zip(trees, offsets)])
        leaf = feature < 0
        ids = np.arange(feature.shape[0], dtype=np.int64)
        left[leaf] = ids[leaf]
        right[leaf] = ids[leaf]
        feature[leaf] = 0
        self.feature = feature
        self.threshold = np.concatenate([tree.threshold_
                                         for tree in trees])
        self.left = left
        self.right = right
        self.value = np.concatenate([tree.value_ for tree in trees])
        self.roots = offsets
        self.depth = max(tree.depth for tree in trees)

    def leaf_values(self, x: np.ndarray) -> np.ndarray:
        """``(n_trees, n_rows)`` leaf value of every row in every tree.

        ``x`` must already be a validated float matrix (``check_xy``).
        """
        n_rows, n_cols = x.shape
        flat = x.ravel()
        row_base = np.arange(n_rows, dtype=np.int64) * n_cols
        nodes = np.repeat(self.roots[:, None], n_rows, axis=1)
        for _ in range(self.depth):
            go_left = (flat.take(row_base + self.feature.take(nodes))
                       <= self.threshold.take(nodes))
            nodes = np.where(go_left, self.left.take(nodes),
                             self.right.take(nodes))
        return self.value.take(nodes)


def cached_node_table(owner: object, source: object,
                      trees: list["DecisionTreeClassifier"]) -> NodeTable:
    """``owner``'s node table over ``trees``, stacked once.

    The table is cached on ``owner`` next to the object it was built
    from (``source``, which every fit or merge replaces), so it is
    rebuilt exactly when the fitted trees change. Owners drop it from
    pickles, and a copy rebuilds it on first use.
    """
    cached = owner.__dict__.get("_node_table")
    if cached is None or cached[0] is not source:
        cached = (source, NodeTable(trees))
        owner._node_table = cached
    return cached[1]


#: Rank keys are ``uint16``; a feature with more distinct values than
#: this keeps the float sort.
KEY_LEVELS = 1 << 16


def rank_keys(xt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense per-feature ranks of a ``(n_features, n_rows)`` matrix.

    Returns ``(keys, wide)``: ``keys[f, r]`` is the rank of
    ``xt[f, r]`` among the distinct values of feature ``f`` (equal
    values share a rank), as ``uint16``; ``wide[f]`` marks a feature
    with more than :data:`KEY_LEVELS` distinct values, whose key row is
    unused and whose split search sorts the float values instead.
    """
    n_features, n_rows = xt.shape
    keys = np.zeros((n_features, n_rows), dtype=np.uint16)
    wide = np.zeros(n_features, dtype=bool)
    for f in range(n_features):
        values, ranks = np.unique(xt[f], return_inverse=True)
        if values.size > KEY_LEVELS:
            wide[f] = True
        else:
            keys[f] = ranks
    return keys, wide


@dataclasses.dataclass
class _Split:
    feature: int
    threshold: float
    gain: float


class DecisionTreeClassifier(Estimator):
    """Binary CART tree with entropy criterion.

    Parameters
    ----------
    max_depth:
        Depth cap (paper's RF uses depth-8 trees; Table 3 also lists a
        single depth-16 tree).
    min_samples_leaf / min_samples_split:
        Pre-pruning controls.
    max_features:
        Features considered per split: ``None`` (all), ``"sqrt"``, or
        an int — the random-forest decorrelation knob.
    """

    def __init__(self, max_depth: int = 8, min_samples_leaf: int = 8,
                 min_samples_split: int = 16,
                 max_features: int | str | None = None,
                 seed: int = 0) -> None:
        if max_depth < 1:
            raise ConfigurationError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed
        self.decision_threshold = 0.5
        # Flat node arrays (filled by fit).
        self.feature_: np.ndarray | None = None
        self.threshold_: np.ndarray | None = None
        self.left_: np.ndarray | None = None
        self.right_: np.ndarray | None = None
        self.value_: np.ndarray | None = None
        self.n_features_: int | None = None

    # ------------------------------------------------------------------
    def _n_split_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return min(int(self.max_features), n_features)

    def _best_split(self, xt: np.ndarray, keys: np.ndarray,
                    wide: np.ndarray, idx: np.ndarray, ys: np.ndarray,
                    features: np.ndarray) -> _Split | None:
        """Best entropy split of the rows ``idx`` over ``features``.

        Each candidate column is ordered by a stable sort of its rank
        keys (a radix sort for ``uint16``; the float values themselves
        for ``wide`` features). Dense ranks are a monotone relabelling,
        so that order is the stable order of the values, ties included,
        and every prefix sum and gain is the bits a float sort gives.
        Entropy is evaluated only where a split is allowed: the value
        changes and both sides keep ``min_samples_leaf`` rows.
        """
        n = ys.shape[0]
        min_leaf = self.min_samples_leaf
        # Split after sorted position i leaves i + 1 rows on the left.
        lo = max(min_leaf - 1, 0)
        hi = min(n - 1 - min_leaf, n - 2)
        if hi < lo:
            return None
        found: list[tuple[int, np.ndarray, np.ndarray]] = []
        prefixes: list[np.ndarray] = []
        for f in features:
            col = xt[f].take(idx) if wide[f] else keys[f].take(idx)
            order = np.argsort(col, kind="stable")
            ordered = col.take(order)
            pos = np.flatnonzero(ordered[lo:hi + 1]
                                 < ordered[lo + 1:hi + 2]) + lo
            if pos.size:
                found.append((int(f), order, pos))
                prefixes.append(np.cumsum(ys.take(order)).take(pos))
        if not found:
            return None
        # One entropy pass over every candidate's valid positions, laid
        # out in candidate order: the first maximum is the feature the
        # per-feature loop keeps (a later equal gain never replaces it)
        # at its first best position.
        total_pos = ys.sum()
        parent = float(entropy(np.array(total_pos), np.array(n)))
        left_n = np.concatenate([pos for _, _, pos in found]) + 1
        right_n = n - left_n
        left_pos = np.concatenate(prefixes)
        right_pos = total_pos - left_pos
        # (left_n * H_left + right_n * H_right) / n, in place.
        child = _entropy_arrays(left_pos, left_n)
        child *= left_n
        right = _entropy_arrays(right_pos, right_n)
        right *= right_n
        child += right
        child /= n
        gain = np.subtract(parent, child, out=child)
        best = int(gain.argmax())
        if gain[best] <= 1e-12:
            return None
        j = best
        for f, order, pos in found:
            if j < pos.size:
                break
            j -= pos.size
        rows = idx.take(order[pos[j]:pos[j] + 2])
        xf = xt[f].take(rows)
        return _Split(feature=f, threshold=float(0.5 * (xf[0] + xf[1])),
                      gain=float(gain[best]))

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x, y = check_xy(x, y)
        xt = np.ascontiguousarray(x.T)
        keys, wide = rank_keys(xt)
        return self._fit_columns(xt, keys, wide, y)

    def _fit_columns(self, xt: np.ndarray, keys: np.ndarray,
                     wide: np.ndarray, y: np.ndarray,
                     ) -> "DecisionTreeClassifier":
        """Grow on a ``(n_features, n_rows)`` matrix and its rank keys.

        Nodes are grown from an explicit stack in depth-first preorder,
        the node numbering and feature-draw order of recursive growth.
        Nothing refers back to the growth state, so the training
        columns are freed as soon as the fit returns rather than when
        the cyclic collector next runs.
        """
        y = y.astype(np.float64)
        n_features, n_rows = xt.shape
        self.n_features_ = n_features
        rng = rng_mod.stream(self.seed, "tree-features")
        features_all = np.arange(n_features)
        n_split = self._n_split_features(n_features)

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        # (rows, depth, parent node, child list the node id goes into)
        stack: list[tuple[np.ndarray, int, int, list[int]]] = [
            (np.arange(n_rows), 0, -1, left)]
        while stack:
            idx, depth, parent, side = stack.pop()
            node = len(feature)
            if parent >= 0:
                side[parent] = node
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            ys = y.take(idx)
            prob = float(ys.mean()) if ys.size else 0.0
            value.append(prob)
            if (depth >= self.max_depth
                    or idx.size < self.min_samples_split
                    or prob <= 0.0 or prob >= 1.0):
                continue
            if n_split < n_features:
                candidates = rng.choice(features_all, size=n_split,
                                        replace=False)
            else:
                candidates = features_all
            split = self._best_split(xt, keys, wide, idx, ys, candidates)
            if split is None:
                continue
            mask = xt[split.feature].take(idx) <= split.threshold
            feature[node] = split.feature
            threshold[node] = split.threshold
            # Right is pushed first so the left subtree is grown first.
            stack.append((idx[~mask], depth + 1, node, right))
            stack.append((idx[mask], depth + 1, node, left))
        self._set_nodes(feature, threshold, left, right, value)
        return self

    def _set_nodes(self, feature: list[int], threshold: list[float],
                   left: list[int], right: list[int],
                   value: list[float]) -> None:
        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = np.array(threshold)
        self.left_ = np.array(left, dtype=np.int64)
        self.right_ = np.array(right, dtype=np.int64)
        self.value_ = np.array(value)

    def _fit_reference(self, x: np.ndarray, y: np.ndarray,
                       ) -> "DecisionTreeClassifier":
        """The float-sort CART fit: the oracle for :meth:`fit`.

        Recursive growth with a per-node copy of the rows and a stable
        float argsort per candidate feature, entropy at every position.
        The rank-keyed fit must reproduce its node arrays bit for bit
        (``tests/test_tree_rank_keys.py``, the perf smoke's tree-fit
        gate).
        """
        x, y = check_xy(x, y)
        y = y.astype(np.float64)
        self.n_features_ = x.shape[1]
        rng = rng_mod.stream(self.seed, "tree-features")
        features_all = np.arange(x.shape[1])
        n_split = self._n_split_features(x.shape[1])
        min_leaf = self.min_samples_leaf

        def best_split(xs: np.ndarray, ys: np.ndarray,
                       features: np.ndarray) -> _Split | None:
            n = ys.shape[0]
            total_pos = ys.sum()
            parent = float(entropy(np.array(total_pos), np.array(n)))
            best: _Split | None = None
            for f in features:
                order = np.argsort(xs[:, f], kind="stable")
                xf = xs[order, f]
                pos_prefix = np.cumsum(ys[order])
                counts = np.arange(1, n + 1)
                valid = xf[:-1] < xf[1:]
                left_n = counts[:-1]
                right_n = n - left_n
                valid &= (left_n >= min_leaf) & (right_n >= min_leaf)
                if not valid.any():
                    continue
                left_pos = pos_prefix[:-1]
                right_pos = total_pos - left_pos
                child = (left_n * entropy(left_pos, left_n)
                         + right_n * entropy(right_pos, right_n)) / n
                gain = parent - child
                gain[~valid] = -np.inf
                i = int(gain.argmax())
                if gain[i] <= 1e-12:
                    continue
                threshold = 0.5 * (xf[i] + xf[i + 1])
                if best is None or gain[i] > best.gain:
                    best = _Split(feature=int(f),
                                  threshold=float(threshold),
                                  gain=float(gain[i]))
            return best

        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []

        def grow(idx: np.ndarray, depth: int) -> int:
            node = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            ys = y[idx]
            prob = float(ys.mean()) if ys.size else 0.0
            value.append(prob)
            if (depth >= self.max_depth
                    or idx.size < self.min_samples_split
                    or prob <= 0.0 or prob >= 1.0):
                return node
            if n_split < x.shape[1]:
                candidates = rng.choice(features_all, size=n_split,
                                        replace=False)
            else:
                candidates = features_all
            split = best_split(x[idx], ys, candidates)
            if split is None:
                return node
            mask = x[idx, split.feature] <= split.threshold
            feature[node] = split.feature
            threshold[node] = split.threshold
            left[node] = grow(idx[mask], depth + 1)
            right[node] = grow(idx[~mask], depth + 1)
            return node

        grow(np.arange(x.shape[0]), 0)
        self._set_nodes(feature, threshold, left, right, value)
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted("feature_")
        x, _ = check_xy(x)
        table = cached_node_table(self, self.feature_, [self])
        return table.leaf_values(x)[0]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_node_table", None)
        return state

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the fitted tree."""
        self._require_fitted("feature_")
        assert self.feature_ is not None
        return int(self.feature_.shape[0])

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        self._require_fitted("feature_")
        assert self.left_ is not None and self.right_ is not None
        depths = np.zeros(self.n_nodes, dtype=np.int64)
        for node in range(self.n_nodes):
            for child in (self.left_[node], self.right_[node]):
                if child >= 0:
                    depths[child] = depths[node] + 1
        return int(depths.max()) if self.n_nodes else 0
