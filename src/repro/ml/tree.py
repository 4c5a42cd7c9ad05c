"""CART decision trees (classifier and regressor) in vectorized numpy.

These are the building blocks of the Random Forest downstream task
(Section II, Evaluation Task).  Feature evaluation is the cost the paper
sets out to cut, and almost all of it lands here, so trees are grown by
a *lockstep grower* that fits several trees at once:

* Every tree keeps its own depth-first order (right child popped first)
  and its own ``default_rng(seed)``, so each ``rng.choice`` of candidate
  features lands on the same node as in a tree grown alone.  Each step
  takes the next splittable node of every tree still growing and scores
  every (tree, candidate feature) segment with flat numpy passes.
* The trees share one table: tree ``b`` sees row ``i`` as
  ``X[samples[b, i]]`` (its bootstrap), and values, ranks and targets
  are gathered through those indices, so no per-tree copy of ``X`` is
  made.  A node is a ``[lo, hi)`` block of its tree's lane of row ids,
  kept in ascending row order; a split stable-partitions the block by
  the realized ``x <= threshold`` mask.
* Every column of the table is ranked once (equal values share a rank;
  the order and the ties hold for any sample of the rows), so one stable
  argsort of (segment, rank) keys sorts a run of segments, ties in row
  order, exactly as a per-node stable sort would.  The search runs over
  runs of segments of at most ``_SEARCH_SLOTS`` slots, which keeps its
  arrays in cache and its memory independent of the number of trees.
* Splits are exact: every threshold between two distinct sorted values
  is scored.  Gini uses class prefix counts, exact integers; the MSE
  prefix sums restart at each segment, so every float is the one a
  single node's search computes.
* Node arrays are numpy after fit; prediction routes all rows through
  the tree level by level with boolean masks instead of per-row Python
  recursion, and reads leaf values with one fancy index.

A forest grows all its trees in one lockstep run; a single tree (the
unit gradient boosting fits) is a run of one.  Both trees accept
``max_features`` for per-node feature subsampling, and an externally
supplied seed so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator, check_matrix, check_X_y

__all__ = ["DecisionTreeClassifier", "DecisionTreeRegressor"]

_LEAF = -1
# The split search runs over chunks of about this many slots (node rows x
# candidate features), so its arrays stay in cache and bounded whatever B is.
_SEARCH_SLOTS = 2**15


def _resolve_max_features(max_features: int | str | None, n_features: int) -> int:
    """Number of candidate features examined per node."""
    if max_features is None:
        return n_features
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features))) if n_features > 1 else 1
    count = int(max_features)
    if count < 1:
        raise ValueError("max_features must be positive")
    return min(count, n_features)


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Rank of every value within its column of ``X``; equal values share a rank."""
    ranks = np.empty(X.shape, dtype=np.int32)  # a rank is below the row count
    # Column blocks bound the sort temporaries on wide tables.
    width = max(1, 2**18 // max(1, X.shape[0]))
    for first in range(0, X.shape[1], width):
        block = X[:, first : first + width]
        order = np.argsort(block, axis=0)
        ordered = np.take_along_axis(block, order, axis=0)
        steps = np.zeros(block.shape, dtype=bool)
        steps[1:] = ordered[1:] > ordered[:-1]
        np.put_along_axis(
            ranks[:, first : first + width],
            order,
            np.cumsum(steps, axis=0, dtype=np.int32),
            axis=0,
        )
    return ranks


def _chunks(lengths: np.ndarray) -> list[int]:
    """Bounds of consecutive segment runs that hold at most ``_SEARCH_SLOTS``
    slots when padded to their longest segment (or are one segment)."""
    bounds = [0]
    while bounds[-1] < len(lengths):
        first = bounds[-1]
        rest = lengths[first:]
        padded = np.arange(1, len(rest) + 1) * np.maximum.accumulate(rest)
        count = int(np.searchsorted(padded, _SEARCH_SLOTS, side="right"))
        bounds.append(first + max(1, count))
    return bounds


def _segments(lengths: np.ndarray):
    """Flat layout of consecutive segments: starts, segment id and offset of each slot."""
    starts = np.cumsum(lengths) - lengths
    sid = np.repeat(np.arange(len(lengths)), lengths)
    offset = np.arange(len(sid)) - starts[sid]
    return starts, sid, offset


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
        self._feature = np.empty(0, dtype=np.int64)
        self._threshold = np.empty(0)
        self._left = np.empty(0, dtype=np.int64)
        self._right = np.empty(0, dtype=np.int64)
        self._value = np.empty((0, 1))
        self.n_features_: int | None = None

    # -- subclass hooks -------------------------------------------------
    def _encode(self, y: np.ndarray) -> tuple[np.ndarray, int]:
        """Per-tree targets for the grower and their class count (0: regression)."""
        raise NotImplementedError

    @staticmethod
    def _gain(labels, offset, sid, starts, lengths, n_classes, width):
        """Split gain after every slot of every segment (the last slot is junk).

        ``n_classes`` is the class count of each segment's tree and
        ``width`` the largest class count of the run.  Also returns the
        per-slot left class counts and per-segment class totals (``None``
        for regression) that children inherit.
        """
        raise NotImplementedError

    # -- growth ----------------------------------------------------------
    @classmethod
    def _fit_lockstep(
        cls, trees: list["_BaseTree"], X: np.ndarray, y: np.ndarray, samples: np.ndarray
    ) -> None:
        """Grow ``trees`` (same class and hyperparameters) on samples of ``X, y``.

        ``X`` is ``(N, d)``, ``y`` is ``(N,)`` and ``samples`` is
        ``(B, n)``: tree ``b`` sees row ``i`` as ``X[samples[b, i]]``.
        Each tree ends up exactly as if grown alone on ``X[samples[b]]``
        with its own seed.
        """
        template = trees[0]
        n_trees, n = samples.shape
        N, d = X.shape
        encoded = [tree._encode(y[sample]) for tree, sample in zip(trees, samples)]
        tree_classes = np.array([count for _, count in encoded])
        n_classes = int(tree_classes.max())
        Y = np.stack([values for values, _ in encoded])
        k = _resolve_max_features(template.max_features, d)
        max_depth = np.inf if template.max_depth is None else template.max_depth
        split_min, leaf_min = template.min_samples_split, template.min_samples_leaf

        # Ranks of the shared table keep value order and ties, so they
        # order every sample's rows too; no tree gets a copy of X.
        X = np.ascontiguousarray(X)
        x_flat, y_flat = X.reshape(-1), Y.reshape(-1)
        rank_flat = _dense_ranks(X).reshape(-1)
        # Flat index of sample row (b, i) in X's first column.
        table_row = (samples * d).reshape(-1)
        # Each node is a block [lo, hi) of its tree's lane of flat (tree, row)
        # ids, in ascending row order.
        r_flat = np.arange(n_trees * n)
        row_lane = r_flat.reshape(n_trees, n)

        rngs = [np.random.default_rng(tree.seed) for tree in trees]
        tables = [_NodeTable() for _ in trees]
        stacks: list[list[tuple[int, int, int, int]]] = [[] for _ in trees]
        for b, table in enumerate(tables):
            trees[b].n_features_ = d
            if n_classes:
                counts = np.bincount(Y[b], minlength=n_classes)
                pure = counts.max() == n
                table.add(counts)
            else:
                pure = np.ptp(Y[b]) < 1e-12
                table.add(Y[b].mean())
            if n >= split_min and max_depth > 0 and not pure:
                stacks[b].append((0, 0, n, 0))

        def search(seg_tree, seg_lo, seg_feature, lengths):
            """Best split of every segment: gain, split slot, threshold, class counts.

            Segment ``j`` is ``lengths[j]`` rows of the lane from
            ``seg_lo[j]``, split on feature ``seg_feature[j]``.
            """
            starts, sid, offset = _segments(lengths)
            rows = r_flat[seg_lo[sid] + offset]
            cells = table_row[rows] + seg_feature[sid]
            # Stable: tied values keep ascending row order within a segment.
            key = sid * N + rank_flat[cells]
            by_value = np.argsort(key, kind="stable")
            key = key[by_value]
            labels = y_flat[rows[by_value]]
            gain, left_counts, totals = cls._gain(
                labels, offset, sid, starts, lengths, tree_classes[seg_tree], n_classes
            )
            # A split between equal values (equal ranks) is not realizable;
            # the last slot of a segment has no right side.
            valid = np.empty(len(key), dtype=bool)
            np.greater(key[1:], key[:-1], out=valid[:-1])
            valid[starts + lengths - 1] = False
            if leaf_min > 1:
                valid &= offset + 1 >= leaf_min
                valid &= lengths[sid] - offset - 1 >= leaf_min
            gain[~valid] = -np.inf
            best_gain = np.maximum.reduceat(gain, starts)
            # First slot reaching the best gain of every segment that can
            # split (NaN never wins).
            good = np.flatnonzero(best_gain > 0.0)
            ties = np.flatnonzero(gain == best_gain[sid])
            at = ties[np.searchsorted(ties, starts[good])]
            split = np.zeros(len(starts), dtype=np.int64)
            threshold = np.zeros(len(starts))
            left_stat = np.zeros((len(starts), n_classes), dtype=np.int64)
            split[good] = at - starts[good]
            low, high = x_flat[cells[by_value[at]]], x_flat[cells[by_value[at + 1]]]
            threshold[good] = (low + high) / 2.0
            if not n_classes:  # regression carries no class counts
                return best_gain, split, threshold, left_stat, left_stat
            left_stat[good] = left_counts.T[at]
            return best_gain, split, threshold, left_stat, totals.T

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while True:
                active = [b for b in range(n_trees) if stacks[b]]
                if not active:
                    break
                node_of, lo, hi, depth = zip(*[stacks[b].pop() for b in active])
                features = np.array(
                    [rngs[b].choice(d, size=k, replace=False) for b in active]
                )
                tree_of, lo_a = np.array(active), np.array(lo)
                sizes = np.array(hi) - lo_a
                # -- split search over every (tree, candidate) segment ----------
                lengths = np.repeat(sizes, k)
                seg_tree = np.repeat(tree_of, k)
                seg_lo = np.repeat(tree_of * n + lo_a, k)
                seg_feature = features.reshape(-1)
                bounds = _chunks(lengths)
                parts = [
                    search(seg_tree[i:j], seg_lo[i:j], seg_feature[i:j], lengths[i:j])
                    for i, j in zip(bounds[:-1], bounds[1:])
                ]
                best_gain, split, threshold, left_stat, totals = (
                    np.concatenate(result) for result in zip(*parts)
                )
                # First candidate with the largest positive gain.
                per_node = np.fmax(best_gain, -np.inf).reshape(-1, k)
                pick = np.argmax(per_node, axis=1)
                chosen = np.flatnonzero(per_node[np.arange(len(pick)), pick] > 0.0)
                if not len(chosen):
                    continue
                segment = chosen * k + pick[chosen]
                threshold = threshold[segment]
                feature = seg_feature[segment]
                # -- stable partition of each chosen node's rows ----------------
                c_tree, c_lo, c_size = tree_of[chosen], lo_a[chosen], sizes[chosen]
                p_starts, p_sid, p_offset = _segments(c_size)
                block_start = c_tree * n + c_lo
                position = block_start[p_sid] + p_offset
                block = r_flat[position]
                cells = table_row[block] + feature[p_sid]
                goes_left = x_flat[cells] <= threshold[p_sid]
                lefts = np.cumsum(goes_left)
                before = lefts[p_starts] - goes_left[p_starts]
                n_left = lefts[p_starts + c_size - 1] - before
                r_flat[np.where(
                    goes_left,
                    (block_start - before - 1)[p_sid] + lefts,
                    position - lefts + (n_left + before)[p_sid],
                )] = block
                n_right = c_size - n_left
                # -- children statistics ----------------------------------------
                if n_classes:
                    left_stat = left_stat[segment]
                    # The midpoint can round onto the upper value, sending its
                    # ties left too: recount those children.
                    for i in np.flatnonzero(n_left != split[segment] + 1):
                        b, first = c_tree[i], c_lo[i]
                        kept = row_lane[b, first : first + n_left[i]]
                        left_stat[i] = np.bincount(y_flat[kept], minlength=n_classes)
                    right_stat = totals[segment] - left_stat
                    left_pure = left_stat.max(axis=1) == n_left
                    right_pure = right_stat.max(axis=1) == n_right
                else:
                    left_stat, right_stat, left_pure, right_pure = _mse_children(
                        y_flat, row_lane, c_tree, c_lo, n_left, c_size
                    )
                split_ok = (n_left >= leaf_min) & (n_right >= leaf_min)
                for i, a, f, t, nl, nr, lp, rp in zip(
                    np.flatnonzero(split_ok).tolist(),
                    chosen[split_ok].tolist(),
                    feature[split_ok].tolist(),
                    threshold[split_ok].tolist(),
                    n_left[split_ok].tolist(),
                    n_right[split_ok].tolist(),
                    left_pure[split_ok].tolist(),
                    right_pure[split_ok].tolist(),
                ):
                    b, child_depth = active[a], depth[a] + 1
                    table = tables[b]
                    left = table.add(left_stat[i])
                    right = table.add(right_stat[i])
                    table.split(node_of[a], f, t, left, right)
                    if child_depth < max_depth:
                        middle = lo[a] + nl
                        if nl >= split_min and not lp:
                            stacks[b].append((left, lo[a], middle, child_depth))
                        if nr >= split_min and not rp:
                            stacks[b].append((right, middle, hi[a], child_depth))

        for tree, table, classes in zip(trees, tables, tree_classes.tolist()):
            table.store(tree, classes)

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
        feature, threshold = self._feature, self._threshold
        left, right = self._left, self._right
        position = np.zeros(matrix.shape[0], dtype=np.int64)
        active = feature[position] != _LEAF
        while active.any():
            rows = np.flatnonzero(active)
            nodes = position[rows]
            goes_left = matrix[rows, feature[nodes]] <= threshold[nodes]
            position[rows] = np.where(goes_left, left[nodes], right[nodes])
            active = feature[position] != _LEAF
        return position

    @property
    def n_nodes(self) -> int:
        return len(self._feature)

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        # Children always get larger ids than their parent.
        depths = np.zeros(len(self._feature), dtype=np.int64)
        for node in np.flatnonzero(self._feature != _LEAF):
            depths[self._left[node]] = depths[self._right[node]] = depths[node] + 1
        return int(depths.max(initial=0))


def _mse_children(y_flat, row_lane, c_tree, c_lo, n_left, c_size):
    """Mean and purity of both children of every chosen regression node."""
    left_mean = np.empty(len(c_tree))
    right_mean = np.empty(len(c_tree))
    left_pure = np.empty(len(c_tree), dtype=bool)
    right_pure = np.empty(len(c_tree), dtype=bool)
    for i, b in enumerate(c_tree):
        lo, middle, hi = c_lo[i], c_lo[i] + n_left[i], c_lo[i] + c_size[i]
        left_y = y_flat[row_lane[b, lo:middle]]
        right_y = y_flat[row_lane[b, middle:hi]]
        left_mean[i] = left_y.mean() if len(left_y) else np.nan
        right_mean[i] = right_y.mean() if len(right_y) else np.nan
        left_pure[i] = len(left_y) == 0 or np.ptp(left_y) < 1e-12
        right_pure[i] = len(right_y) == 0 or np.ptp(right_y) < 1e-12
    return left_mean, right_mean, left_pure, right_pure


class _NodeTable:
    """Growing node arrays of one tree (ids in creation order)."""

    __slots__ = ("feature", "threshold", "left", "right", "stat")

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.stat: list = []

    def add(self, stat) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.stat.append(stat)
        return len(self.feature) - 1

    def split(self, node: int, feature: int, threshold: float, left: int, right: int) -> None:
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.left[node] = left
        self.right[node] = right

    def store(self, tree: _BaseTree, n_classes: int) -> None:
        tree._feature = np.array(self.feature, dtype=np.int64)
        tree._threshold = np.array(self.threshold, dtype=np.float64)
        tree._left = np.array(self.left, dtype=np.int64)
        tree._right = np.array(self.right, dtype=np.int64)
        if n_classes:
            counts = np.array(self.stat)[:, :n_classes]
            tree._value = counts / counts.sum(axis=1, keepdims=True)
        else:
            tree._value = np.array(self.stat, dtype=np.float64).reshape(-1, 1)


class DecisionTreeClassifier(_BaseTree):
    """CART classifier with Gini impurity and exact sorted splits."""

    def fit(self, X, y) -> "DecisionTreeClassifier":
        matrix, target = check_X_y(X, y)
        self._fit_lockstep([self], matrix, target, np.arange(len(target))[None])
        return self

    def _encode(self, y: np.ndarray) -> tuple[np.ndarray, int]:
        # A bootstrap may miss a class: every tree encodes its own classes.
        self.classes_ = np.unique(y)
        return np.searchsorted(self.classes_, y), len(self.classes_)

    @staticmethod
    def _gain(labels, offset, sid, starts, lengths, n_classes, width):
        # Class prefix counts, one row per class; exact integers, so sums
        # of squared counts do not depend on the summation order.
        prefix = np.zeros((width, len(labels) + 1), dtype=np.int64)
        np.cumsum(labels == np.arange(width)[:, None], axis=1, out=prefix[:, 1:])
        base = prefix[:, starts]
        totals = prefix[:, starts + lengths] - base
        # Split after slot i: left = the first offset + 1 rows of the segment.
        left_counts = prefix[:, 1:] - np.repeat(base, lengths, axis=1)
        right_counts = np.repeat(totals, lengths, axis=1) - left_counts
        n = lengths[sid]
        left_n = offset + 1.0
        right_n = n - left_n
        left_gini = 1.0 - np.einsum("cn,cn->n", left_counts, left_counts) / left_n**2
        right_gini = 1.0 - np.einsum("cn,cn->n", right_counts, right_counts) / right_n**2
        # The parent term is a float sum over each tree's own classes, in
        # the order a single node's 1-D sum adds them.
        shares = (np.ascontiguousarray(totals.T) / lengths[:, None]) ** 2
        if n_classes.min() == width:
            parent_gini = 1.0 - np.sum(shares, axis=1)
        else:
            parent_gini = np.empty(len(starts))
            for count in np.unique(n_classes).tolist():
                rows = n_classes == count
                parent_gini[rows] = 1.0 - np.sum(shares[rows, :count], axis=1)
        gain = parent_gini[sid] - (left_n * left_gini + right_n * right_gini) / n
        return gain, left_counts, totals

    def predict_proba(self, X) -> np.ndarray:
        return self._value[self._leaf_of_rows(X)]

    def predict(self, X) -> np.ndarray:
        probabilities = self.predict_proba(X)
        return self.classes_[np.argmax(probabilities, axis=1)]


class DecisionTreeRegressor(_BaseTree):
    """CART regressor minimizing within-node variance (MSE criterion)."""

    def fit(self, X, y) -> "DecisionTreeRegressor":
        matrix, target = check_X_y(X, y)
        self._fit_lockstep([self], matrix, target, np.arange(len(target))[None])
        return self

    def _encode(self, y: np.ndarray) -> tuple[np.ndarray, int]:
        return y, 0

    @staticmethod
    def _gain(labels, offset, sid, starts, lengths, n_classes, width):
        # Float prefix sums must restart at each segment: a padded 2-D
        # cumsum along the rows is exact because the padding trails.  The
        # gain is computed on the padded rows (trailing slots are junk).
        row = int(lengths.max())
        slot = sid * row + offset
        padded = np.zeros((2, len(starts) * row))
        padded[0, slot] = labels
        padded[1, slot] = labels**2
        left_sum, left_sq = np.cumsum(padded.reshape(2, len(starts), row), axis=2)
        last = np.arange(len(starts)), lengths - 1
        total_sum, total_sq = left_sum[last][:, None], left_sq[last][:, None]
        n = lengths[:, None]
        left_n = np.arange(1.0, row + 1.0)
        right_n = n - left_n
        # SSE of each side: sum(y^2) - (sum(y))^2 / n.
        left_sse = left_sq - left_sum**2 / left_n
        right_sse = (total_sq - left_sq) - (total_sum - left_sum) ** 2 / right_n
        parent_sse = total_sq - total_sum**2 / n
        gain = ((parent_sse - left_sse - right_sse) / n).reshape(-1)[slot]
        return gain, None, None

    def predict(self, X) -> np.ndarray:
        return self._value[self._leaf_of_rows(X), 0]
