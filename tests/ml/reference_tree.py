"""Per-node CART, kept as the reference oracle for the lockstep grower.

This is the straightforward implementation the lockstep grower in
``repro.ml.tree`` replaced: every node sorts each candidate feature and
scores its thresholds on its own.  The property tests demand that the
grower reproduces it bit for bit (node arrays, leaf values,
predictions), including the forest's bootstrap and seed sequence
(:func:`reference_forest`).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, check_matrix, check_X_y
from repro.ml.tree import _resolve_max_features

_LEAF = -1


class _BaseTree(BaseEstimator):
    """Shared growth/prediction machinery; subclasses define impurity."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        seed: int = 0,
    ) -> None:
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be at least 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        # Flat node arrays filled during fit.
        self._feature: list[int] = []
        self._threshold: list[float] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[np.ndarray] = []
        self.n_features_: int | None = None

    # -- subclass hooks -------------------------------------------------
    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _best_split_of_feature(
        self, column: np.ndarray, y: np.ndarray
    ) -> tuple[float, float]:
        """Return ``(gain, threshold)`` of the best split for one column."""
        raise NotImplementedError

    # -- growth ----------------------------------------------------------
    def _new_node(self) -> int:
        self._feature.append(_LEAF)
        self._threshold.append(0.0)
        self._left.append(_LEAF)
        self._right.append(_LEAF)
        self._value.append(np.empty(0))
        return len(self._feature) - 1

    def _fit_arrays(self, X: np.ndarray, y: np.ndarray) -> None:
        self._feature, self._threshold = [], []
        self._left, self._right, self._value = [], [], []
        self.n_features_ = X.shape[1]
        rng = np.random.default_rng(self.seed)
        n_candidates = _resolve_max_features(self.max_features, X.shape[1])
        root = self._new_node()
        # Depth-first explicit stack: (node_id, row_indices, depth).
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(len(y)), 0)]
        while stack:
            node, rows, depth = stack.pop()
            labels = y[rows]
            self._value[node] = self._leaf_value(labels)
            if (
                len(rows) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
                or self._is_pure(labels)
            ):
                continue
            candidates = rng.choice(X.shape[1], size=n_candidates, replace=False)
            best_gain, best_feature, best_threshold = 0.0, _LEAF, 0.0
            for feature in candidates:
                gain, threshold = self._best_split_of_feature(
                    X[rows, feature], labels
                )
                if gain > best_gain:
                    best_gain, best_feature, best_threshold = gain, feature, threshold
            if best_feature == _LEAF:
                continue
            goes_left = X[rows, best_feature] <= best_threshold
            left_rows, right_rows = rows[goes_left], rows[~goes_left]
            if (
                len(left_rows) < self.min_samples_leaf
                or len(right_rows) < self.min_samples_leaf
            ):
                continue
            self._feature[node] = int(best_feature)
            self._threshold[node] = float(best_threshold)
            left = self._new_node()
            right = self._new_node()
            self._left[node], self._right[node] = left, right
            stack.append((left, left_rows, depth + 1))
            stack.append((right, right_rows, depth + 1))

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool(np.all(y == y[0]))

    # -- prediction --------------------------------------------------------
    def _leaf_of_rows(self, X: np.ndarray) -> np.ndarray:
        """Leaf node index for every row, via masked level-order routing."""
        if self.n_features_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        matrix = check_matrix(X, allow_nonfinite=True)
        if matrix.shape[1] != self.n_features_:
            raise ValueError(
                f"fitted on {self.n_features_} features, got {matrix.shape[1]}"
            )
        feature = np.asarray(self._feature)
        threshold = np.asarray(self._threshold)
        left = np.asarray(self._left)
        right = np.asarray(self._right)
        position = np.zeros(matrix.shape[0], dtype=np.int64)
        active = feature[position] != _LEAF
        while active.any():
            rows = np.flatnonzero(active)
            nodes = position[rows]
            goes_left = (
                matrix[rows, feature[nodes]] <= threshold[nodes]
            )
            position[rows] = np.where(goes_left, left[nodes], right[nodes])
            active = feature[position] != _LEAF
        return position

    @property
    def n_nodes(self) -> int:
        return len(self._feature)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if not self._feature:
            return 0
        depths = {0: 0}
        maximum = 0
        for node in range(len(self._feature)):
            if self._feature[node] == _LEAF:
                continue
            for child in (self._left[node], self._right[node]):
                depths[child] = depths[node] + 1
                maximum = max(maximum, depths[child])
        return maximum


class ReferenceTreeClassifier(_BaseTree):
    """CART classifier with Gini impurity and exact sorted splits."""

    def fit(self, X, y) -> "ReferenceTreeClassifier":
        matrix, target = check_X_y(X, y)
        self.classes_ = np.unique(target)
        self._class_index = {c: i for i, c in enumerate(self.classes_)}
        encoded = np.searchsorted(self.classes_, target)
        self._n_classes = len(self.classes_)
        self._fit_arrays(matrix, encoded)
        return self

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        counts = np.bincount(y.astype(np.int64), minlength=self._n_classes)
        return counts / counts.sum()

    def _best_split_of_feature(
        self, column: np.ndarray, y: np.ndarray
    ) -> tuple[float, float]:
        order = np.argsort(column, kind="stable")
        values = column[order]
        labels = y[order].astype(np.int64)
        n = len(values)
        if values[0] == values[-1]:
            return 0.0, 0.0
        # Prefix class counts: counts[i, c] = #{labels[:i] == c}.
        one_hot = np.zeros((n, self._n_classes))
        one_hot[np.arange(n), labels] = 1.0
        prefix = np.cumsum(one_hot, axis=0)
        total = prefix[-1]
        # Split after position i (1..n-1): left = first i rows.
        left_counts = prefix[:-1]
        right_counts = total - left_counts
        left_n = np.arange(1, n, dtype=np.float64)
        right_n = n - left_n
        left_gini = 1.0 - np.sum(left_counts**2, axis=1) / left_n**2
        right_gini = 1.0 - np.sum(right_counts**2, axis=1) / right_n**2
        parent_gini = 1.0 - np.sum((total / n) ** 2)
        gain = parent_gini - (left_n * left_gini + right_n * right_gini) / n
        # A split between equal values is not realizable.
        valid = values[1:] > values[:-1]
        valid &= left_n >= self.min_samples_leaf
        valid &= right_n >= self.min_samples_leaf
        if not valid.any():
            return 0.0, 0.0
        gain = np.where(valid, gain, -np.inf)
        best = int(np.argmax(gain))
        threshold = (values[best] + values[best + 1]) / 2.0
        return float(gain[best]), float(threshold)

    def predict_proba(self, X) -> np.ndarray:
        leaves = self._leaf_of_rows(X)
        return np.vstack([self._value[node] for node in leaves])

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]


class ReferenceTreeRegressor(_BaseTree):
    """CART regressor minimizing within-node variance (MSE criterion)."""

    def fit(self, X, y) -> "ReferenceTreeRegressor":
        matrix, target = check_X_y(X, y)
        self._fit_arrays(matrix, target)
        return self

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool(np.ptp(y) < 1e-12)

    def _leaf_value(self, y: np.ndarray) -> np.ndarray:
        return np.array([y.mean()])

    def _best_split_of_feature(
        self, column: np.ndarray, y: np.ndarray
    ) -> tuple[float, float]:
        order = np.argsort(column, kind="stable")
        values = column[order]
        target = y[order]
        n = len(values)
        if values[0] == values[-1]:
            return 0.0, 0.0
        prefix_sum = np.cumsum(target)
        prefix_sq = np.cumsum(target**2)
        total_sum, total_sq = prefix_sum[-1], prefix_sq[-1]
        left_n = np.arange(1, n, dtype=np.float64)
        right_n = n - left_n
        left_sum = prefix_sum[:-1]
        right_sum = total_sum - left_sum
        left_sq = prefix_sq[:-1]
        right_sq = total_sq - left_sq
        # SSE of each side: sum(y^2) - (sum(y))^2 / n.
        left_sse = left_sq - left_sum**2 / left_n
        right_sse = right_sq - right_sum**2 / right_n
        parent_sse = total_sq - total_sum**2 / n
        gain = (parent_sse - left_sse - right_sse) / n
        valid = values[1:] > values[:-1]
        valid &= left_n >= self.min_samples_leaf
        valid &= right_n >= self.min_samples_leaf
        if not valid.any():
            return 0.0, 0.0
        gain = np.where(valid, gain, -np.inf)
        best = int(np.argmax(gain))
        threshold = (values[best] + values[best + 1]) / 2.0
        return float(max(gain[best], 0.0)), float(threshold)

    def predict(self, X) -> np.ndarray:
        leaves = self._leaf_of_rows(X)
        return np.array([self._value[node][0] for node in leaves])


def reference_forest(tree_class, X, y, n_estimators, seed, bootstrap=True, **params):
    """Trees of a forest fitted one at a time, as ``_BaseForest`` once did."""
    X, y = check_X_y(X, y)
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_estimators):
        tree = tree_class(seed=int(rng.integers(0, 2**31 - 1)), **params)
        if bootstrap:
            rows = rng.integers(0, X.shape[0], size=X.shape[0])
        else:
            rows = np.arange(X.shape[0])
        trees.append(tree.fit(X[rows], y[rows]))
    return trees


def reference_forest_proba(trees, classes, X):
    """Soft vote of reference classifier trees on the forest's class axis."""
    total = np.zeros((X.shape[0], len(classes)))
    for tree in trees:
        total[:, np.searchsorted(classes, tree.classes_)] += tree.predict_proba(X)
    return total / len(trees)


def reference_forest_predict(trees, X):
    """Mean prediction of reference regressor trees."""
    predictions = np.zeros(X.shape[0])
    for tree in trees:
        predictions += tree.predict(X)
    return predictions / len(trees)
