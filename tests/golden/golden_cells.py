"""Fixed-seed golden cells: canonical digests of trees, ensembles and fits.

A digest holds only what must repeat exactly between equal runs: node
arrays, predictions, scores, accepted expressions and fit counts, never
a clock field.  ``models.json`` and ``engine.json`` beside this file
record the digests; the tests in this directory recompute them and
demand equality.  A change that moves a score is declared in
CHANGES.md with its old and new digests, and only then are the files
rewritten::

    PYTHONPATH=src python tests/golden/golden_cells.py models engine
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
MODELS_FILE = os.path.join(HERE, "models.json")
ENGINE_FILE = os.path.join(HERE, "engine.json")


# -- model cells -----------------------------------------------------------
def _datasets() -> dict:
    """``name -> (X, y_class or None, y_reg or None)``."""
    from repro.datasets import load, make_classification

    pima = load("PimaIndian")
    openml = load("Openml 586", max_samples=200, max_features=25)
    three = make_classification(
        name="three-class", n_samples=240, n_features=6, n_classes=3, seed=5
    )
    rng = np.random.default_rng(11)
    # Few distinct values per column: many tied thresholds and duplicate rows.
    tied = np.round(rng.normal(size=(160, 6)) * 1.5)
    tied_class = (tied[:, 0] + tied[:, 1] + rng.normal(size=160) > 0).astype(int)
    tied_reg = np.round(tied[:, 2] * tied[:, 3] + rng.normal(size=160), 1)
    pima_X = pima.X.to_array()
    return {
        "pima": (pima_X, pima.y, pima_X[:, 1] * 0.5 + pima.y),
        "openml586": (openml.X.to_array(), None, openml.y),
        "three_class": (three.X.to_array(), three.y, None),
        "tied": (tied, tied_class, tied_reg),
    }


def _classifiers() -> dict:
    from repro.ml import (
        DecisionTreeClassifier,
        GradientBoostingClassifier,
        RandomForestClassifier,
    )

    return {
        "tree": lambda: DecisionTreeClassifier(max_features="sqrt", seed=3),
        "tree_depth4": lambda: DecisionTreeClassifier(max_depth=4, seed=0),
        "forest": lambda: RandomForestClassifier(n_estimators=5, seed=0),
        "forest_leaf3_unbounded": lambda: RandomForestClassifier(
            n_estimators=4, max_depth=None, min_samples_leaf=3, seed=1
        ),
        "gbm": lambda: GradientBoostingClassifier(n_estimators=10, seed=0),
    }


def _regressors() -> dict:
    from repro.ml import (
        DecisionTreeRegressor,
        GradientBoostingRegressor,
        RandomForestRegressor,
    )

    return {
        "tree": lambda: DecisionTreeRegressor(max_depth=6, max_features="sqrt", seed=2),
        "forest": lambda: RandomForestRegressor(n_estimators=5, seed=0),
        "forest_leaf3_unbounded": lambda: RandomForestRegressor(
            n_estimators=4, max_depth=None, min_samples_leaf=3, seed=1
        ),
        "gbm": lambda: GradientBoostingRegressor(n_estimators=10, seed=0),
    }


def _trees_of(model) -> list:
    if hasattr(model, "_models"):  # one-vs-rest boosting
        return [tree for trees in model._models for tree in trees]
    if hasattr(model, "_trees"):
        return list(model._trees)
    return [model]


def _hash(hasher, array) -> None:
    array = np.ascontiguousarray(array)
    hasher.update(f"{array.dtype.str}{array.shape}".encode())
    hasher.update(array.tobytes())


def node_digest(model) -> str:
    """sha256 over every tree's node arrays, in fit order."""
    hasher = hashlib.sha256()
    for tree in _trees_of(model):
        _hash(hasher, np.asarray(tree._feature, dtype=np.int64))
        _hash(hasher, np.asarray(tree._threshold, dtype=np.float64))
        _hash(hasher, np.asarray(tree._left, dtype=np.int64))
        _hash(hasher, np.asarray(tree._right, dtype=np.int64))
        _hash(hasher, np.asarray(tree._value, dtype=np.float64))
    return hasher.hexdigest()


def _prediction_digest(model, matrices, classifier: bool) -> str:
    hasher = hashlib.sha256()
    for matrix in matrices:
        _hash(hasher, np.asarray(model.predict(matrix)))
        if classifier:
            _hash(hasher, np.asarray(model.predict_proba(matrix), dtype=np.float64))
    return hasher.hexdigest()


def model_digests() -> dict:
    """``"<dataset>/<clf|reg>/<model>" -> digest`` for every model cell."""
    out = {}
    for name, (X, y_class, y_reg) in _datasets().items():
        rng = np.random.default_rng(7)
        # Shifted rows reach leaves (and thresholds) the training rows do not.
        probe = X + rng.normal(size=X.shape) * (X.std(axis=0) * 0.25 + 1e-3)
        for kind, target, factories in (
            ("clf", y_class, _classifiers()),
            ("reg", y_reg, _regressors()),
        ):
            if target is None:
                continue
            for model_name, make in factories.items():
                model = make().fit(X, target)
                out[f"{name}/{kind}/{model_name}"] = {
                    "n_nodes": int(sum(len(t._feature) for t in _trees_of(model))),
                    "nodes": node_digest(model),
                    "predictions": _prediction_digest(
                        model, (X, probe), classifier=kind == "clf"
                    ),
                }
    return out


# -- engine cells ----------------------------------------------------------
#: Quick bench-profile hyperparameters shared by every engine cell.
QUICK = dict(
    n_epochs=3,
    stage1_epochs=2,
    transforms_per_agent=3,
    n_splits=3,
    n_estimators=5,
    max_agents=6,
)

#: ``name -> (dataset, load kwargs, EngineConfig overrides, SQLite store?)``.
#: The first two mirror the benchmark's ``fit-clf-cold`` and
#: ``fit-reg-wide-pool`` workloads at engine seed 0.
ENGINE_CELLS = {
    "fit-clf-cold": (
        "PimaIndian", {}, dict(QUICK, n_epochs=4, eval_backend="serial"), False,
    ),
    "fit-reg-wide-pool": (
        "Openml 586",
        {"max_samples": 200, "max_features": 25},
        dict(QUICK, n_epochs=2, max_agents=16, eval_backend="pool"),
        True,
    ),
    "gbm-clf": (
        "PimaIndian",
        {"max_samples": 300},
        dict(QUICK, n_epochs=2, model_kind="gbm", eval_backend="serial"),
        False,
    ),
}


def pretrained_fpe():
    from repro import pretrain_fpe

    return pretrain_fpe(n_train=6, n_validation=2, scale=0.25, seed=0)


def engine_digest(name: str, fpe) -> dict:
    """Fit one engine cell at engine seed 0 and digest its result."""
    from repro import EAFE, EngineConfig
    from repro.datasets import load

    dataset, load_kwargs, overrides, sqlite = ENGINE_CELLS[name]
    task = load(dataset, **load_kwargs)
    with tempfile.TemporaryDirectory() as workdir:
        config = EngineConfig(
            **overrides,
            seed=0,
            eval_workers=2,
            eval_cache=True,
            eval_speculation=True,
            eval_fidelity="off",
            eval_timeout=None,
            eval_store_path=os.path.join(workdir, "store.sqlite") if sqlite else None,
        )
        engine = EAFE(fpe, config)
        try:
            result = engine.fit(task)
        finally:
            engine.eval_cache.close()
    return {
        "base_score": result.base_score,
        "best_score": result.best_score,
        "epoch_scores": [record.best_score for record in result.history],
        "selected_features": list(result.selected_features),
        "n_downstream_evaluations": result.n_downstream_evaluations,
    }


def engine_digests() -> dict:
    fpe = pretrained_fpe()
    return {name: engine_digest(name, fpe) for name in ENGINE_CELLS}


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    targets = sys.argv[1:] or ["models", "engine"]
    if "models" in targets:
        _write(MODELS_FILE, model_digests())
    if "engine" in targets:
        _write(ENGINE_FILE, engine_digests())
