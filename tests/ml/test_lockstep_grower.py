"""The lockstep tree grower against the per-node reference and brute force.

Trees and forests must equal the per-node reference implementation
(``reference_tree.py``) bit for bit: node arrays, leaf values and
predictions.  On tiny inputs the root split must also be a best split
found by scoring every threshold directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_tree import (
    ReferenceTreeClassifier,
    ReferenceTreeRegressor,
    reference_forest,
    reference_forest_predict,
    reference_forest_proba,
)
from repro.ml import tree as tree_module
from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)

# The reference's midpoints of huge values overflow to +-inf, with a warning.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

BIG = 1.7e308  # the midpoint of two such values overflows to +-inf
EPS = np.finfo(np.float64).eps
# Adjacent floats: the midpoint of (1 + eps, 1 + 2 eps) rounds onto the upper one.
POOL = [0.0, -0.0, 1.0, 1.0 + EPS, 1.0 + 2 * EPS, 2.5, -3.0, 7.0, BIG, -BIG, 1.5e308]


@st.composite
def tables(draw, max_rows=30, max_features=4):
    """Tie-heavy matrices: pooled values, constant columns, duplicate rows."""
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, max_features))
    pool = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=6))
    X = np.array(
        draw(st.lists(st.sampled_from(pool), min_size=n * d, max_size=n * d))
    ).reshape(n, d)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = pool[0]  # a constant column
    if n > 3 and draw(st.booleans()):
        X[n // 2 :] = X[: n - n // 2]  # duplicate rows
    return X


@st.composite
def tree_params(draw):
    return dict(
        max_depth=draw(st.sampled_from([None, 1, 2, 4])),
        min_samples_split=draw(st.integers(2, 5)),
        min_samples_leaf=draw(st.integers(1, 4)),
        max_features=draw(st.sampled_from([None, 1, 2, "sqrt"])),
        seed=draw(st.integers(0, 2**31 - 2)),
    )


def class_labels(n):
    # Up to 5 classes, often unbalanced, so bootstraps miss some.
    return st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, 3, 4]), min_size=n, max_size=n)


def targets(n):
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    return st.lists(values, min_size=n, max_size=n)


def assert_same_tree(tree, reference):
    assert tree.n_features_ == reference.n_features_
    np.testing.assert_array_equal(tree._feature, np.asarray(reference._feature))
    np.testing.assert_array_equal(tree._left, np.asarray(reference._left))
    np.testing.assert_array_equal(tree._right, np.asarray(reference._right))
    assert tree._threshold.tobytes() == np.array(reference._threshold).tobytes()
    assert tree._value.tobytes() == np.array(reference._value).tobytes()


def probe_of(X, seed=0):
    rng = np.random.default_rng(seed)
    finite = np.clip(X, -1e300, 1e300)
    return np.vstack([X, finite + rng.normal(size=X.shape)])


class TestSingleTreeMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), X=tables(), params=tree_params())
    def test_classifier(self, data, X, params):
        y = np.array(data.draw(class_labels(len(X))))
        tree = DecisionTreeClassifier(**params).fit(X, y)
        reference = ReferenceTreeClassifier(**params).fit(X, y)
        assert_same_tree(tree, reference)
        np.testing.assert_array_equal(tree.classes_, reference.classes_)
        probe = probe_of(X)
        assert tree.predict_proba(probe).tobytes() == reference.predict_proba(probe).tobytes()
        np.testing.assert_array_equal(tree.predict(probe), reference.predict(probe))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), X=tables(), params=tree_params())
    def test_regressor(self, data, X, params):
        y = np.array(data.draw(targets(len(X))))
        if data.draw(st.booleans()):
            y = np.round(y, -2)  # tied targets: pure nodes and equal gains
        tree = DecisionTreeRegressor(**params).fit(X, y)
        reference = ReferenceTreeRegressor(**params).fit(X, y)
        assert_same_tree(tree, reference)
        probe = probe_of(X)
        assert tree.predict(probe).tobytes() == reference.predict(probe).tobytes()


class TestForestMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        X=tables(max_rows=40),
        params=tree_params(),
        n_estimators=st.integers(1, 6),
        bootstrap=st.booleans(),
    )
    def test_classifier(self, data, X, params, n_estimators, bootstrap):
        y = np.array(data.draw(class_labels(len(X))))
        seed = params.pop("seed")
        forest = RandomForestClassifier(
            n_estimators=n_estimators, bootstrap=bootstrap, seed=seed, **params
        ).fit(X, y)
        trees = reference_forest(
            ReferenceTreeClassifier, X, y, n_estimators, seed, bootstrap, **params
        )
        for tree, reference in zip(forest._trees, trees, strict=True):
            assert_same_tree(tree, reference)
        probe = probe_of(X)
        expected = reference_forest_proba(trees, forest.classes_, probe)
        assert forest.predict_proba(probe).tobytes() == expected.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        X=tables(max_rows=40),
        params=tree_params(),
        n_estimators=st.integers(1, 6),
    )
    def test_regressor(self, data, X, params, n_estimators):
        y = np.array(data.draw(targets(len(X))))
        seed = params.pop("seed")
        forest = RandomForestRegressor(n_estimators=n_estimators, seed=seed, **params)
        forest.fit(X, y)
        trees = reference_forest(
            ReferenceTreeRegressor, X, y, n_estimators, seed, **params
        )
        for tree, reference in zip(forest._trees, trees, strict=True):
            assert_same_tree(tree, reference)
        probe = probe_of(X)
        expected = reference_forest_predict(trees, probe)
        assert forest.predict(probe).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_classes", [8, 10, 17])
@pytest.mark.parametrize("seed", range(3))
def test_forest_matches_reference_on_many_classes(seed, n_classes):
    """Trees that miss the rare last class have fewer classes than the
    forest: each must sum only its own Gini shares, since numpy's pairwise
    summation can round a zero-padded row differently (7 shares vs 8)."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(150, 6)), 1)
    y = rng.integers(0, n_classes - 1, size=150)
    y[0] = n_classes - 1  # one row: many bootstraps miss it
    forest = RandomForestClassifier(n_estimators=10, seed=seed).fit(X, y)
    trees = reference_forest(
        ReferenceTreeClassifier, X, y, 10, seed, max_depth=8, max_features="sqrt"
    )
    assert {len(t.classes_) for t in trees} == {n_classes - 1, n_classes}
    for tree, reference in zip(forest._trees, trees, strict=True):
        assert_same_tree(tree, reference)


@pytest.mark.parametrize("classifier", [True, False], ids=["gini", "mse"])
@pytest.mark.parametrize(
    "shape, n_trees, max_depth",
    [((1100, 300), 4, 8), ((33000, 3), 2, 3)],
    ids=["wide", "long"],
)
def test_forest_matches_reference_across_search_chunks(classifier, shape, n_trees, max_depth):
    """Tables large enough that a step's split search runs in several
    chunks of segments (wide: padded runs and several rank blocks; long:
    chunks of a single segment longer than the chunk budget)."""
    rng = np.random.default_rng(7)
    X = np.round(rng.normal(size=shape), 1)  # tie-heavy
    X[:, 1] = 0.5  # a constant column
    k = max(1, int(np.sqrt(shape[1])))
    assert n_trees * k * shape[0] > 2 * tree_module._SEARCH_SLOTS
    if classifier:
        y = rng.integers(0, 3, size=len(X))
        forest_class, reference = RandomForestClassifier, ReferenceTreeClassifier
    else:
        y = X[:, 0] + rng.normal(size=len(X))
        forest_class, reference = RandomForestRegressor, ReferenceTreeRegressor
    forest = forest_class(n_estimators=n_trees, max_depth=max_depth, seed=3).fit(X, y)
    trees = reference_forest(
        reference, X, y, n_trees, 3, max_depth=max_depth, max_features="sqrt"
    )
    for tree, expected in zip(forest._trees, trees, strict=True):
        assert_same_tree(tree, expected)


def test_dense_ranks_across_column_blocks():
    rng = np.random.default_rng(0)
    X = np.round(rng.normal(size=(700, 400)), 1)
    assert X.size > 2**18
    ranks = tree_module._dense_ranks(X)
    for j in range(X.shape[1]):
        np.testing.assert_array_equal(ranks[:, j], np.unique(X[:, j], return_inverse=True)[1])


def test_midpoint_rounding_onto_upper_value_recounts_children():
    a, b = 1.0 + EPS, 1.0 + 2 * EPS
    assert (a + b) / 2.0 == b  # the realized split sends b left too
    X = np.array([[a], [b], [3.0], [3.0]])
    y = np.array([0, 1, 1, 1])
    tree = DecisionTreeClassifier().fit(X, y)
    reference = ReferenceTreeClassifier().fit(X, y)
    assert_same_tree(tree, reference)
    assert tree._threshold[0] == b
    np.testing.assert_array_equal(tree._value[tree._left[0]], [0.5, 0.5])


# -- brute force -------------------------------------------------------------
def _impurity(y, classifier):
    if classifier:
        shares = np.unique(y, return_counts=True)[1] / len(y)
        return len(y) * (1.0 - np.sum(shares**2))
    return np.sum((y - y.mean()) ** 2)


def brute_force_gains(X, y, min_samples_leaf, classifier):
    """``{(feature, threshold): gain}`` of every realizable root split, O(n^2)."""
    parent = _impurity(y, classifier)
    gains = {}
    for feature in range(X.shape[1]):
        distinct = np.unique(X[:, feature])
        for low, high in zip(distinct[:-1], distinct[1:]):
            left = X[:, feature] <= low
            n_left = int(left.sum())
            if min(n_left, len(y) - n_left) < min_samples_leaf:
                continue
            children = _impurity(y[left], classifier) + _impurity(y[~left], classifier)
            gains[(feature, (low + high) / 2.0)] = (parent - children) / len(y)
    return gains


small_values = st.sampled_from([0.0, 1.0, 2.0, 2.5, -1.0, 4.0])


@st.composite
def small_tables(draw):
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 3))
    values = draw(st.lists(small_values, min_size=n * d, max_size=n * d))
    return np.array(values).reshape(n, d)


@pytest.mark.parametrize("classifier", [True, False], ids=["gini", "mse"])
@settings(max_examples=120, deadline=None)
@given(data=st.data(), X=small_tables(), leaf=st.integers(1, 3))
def test_root_split_is_a_brute_force_best(classifier, data, X, leaf):
    if classifier:
        y = np.array(data.draw(class_labels(len(X))))
        tree = DecisionTreeClassifier(max_depth=1, min_samples_leaf=leaf).fit(X, y)
    else:
        y = np.array(data.draw(st.lists(small_values, min_size=len(X), max_size=len(X))))
        tree = DecisionTreeRegressor(max_depth=1, min_samples_leaf=leaf).fit(X, y)
    gains = brute_force_gains(X, y, leaf, classifier)
    best = max(gains.values(), default=0.0)
    if tree.n_nodes == 1:
        assert best <= 1e-9
        return
    assert tree.n_nodes == 3
    chosen = (int(tree._feature[0]), float(tree._threshold[0]))
    assert chosen in gains
    assert gains[chosen] == pytest.approx(best, abs=1e-9)
    # The tree splits on a positive float gain; a gain that is exactly zero
    # in real arithmetic (e.g. Gini 2/3 on both sides) rounds either way.
    assert gains[chosen] > -1e-9
