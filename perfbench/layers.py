"""Which public calls the traced run wraps, and the per-layer metrics.

Each entry of :func:`wrap_points` names a public method of one layer of
``repro`` and the span that records its calls.  Several methods may
feed one span name (both tree classes feed ``ml.tree.fit``); a call
nested inside a call of the same name counts once at the boundary
(see :func:`perfbench.tracing.outermost`).
"""

from __future__ import annotations

from .tracing import Tracer, outermost, self_times


def _tag(**fields):
    def hook(span, args, kwargs, result):
        span.args.update(fields)

    return hook


def _tree_nodes(span, args, kwargs, result):
    span.args["nodes"] = result.n_nodes


def _kept(span, args, kwargs, result):
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    span.args["candidates"] = len(columns)
    span.args["kept"] = int(sum(bool(keep) for keep in result))


def _submitted(span, args, kwargs, result):
    span.args["kind"] = "submit_batch"
    span.args["columns"] = len(result)


def wrap_points():
    """``(class, method, span name, on_return)`` for every wrapped call."""
    from repro.api.plan import FeaturePlan
    from repro.core.engine import AFEEngine
    from repro.core.evaluation import DownstreamEvaluator
    from repro.core.filters import CandidateFilter
    from repro.core.fpe import FPEModel
    from repro.eval.fingerprint import ColumnFingerprinter
    from repro.eval.service import EvaluationService, ScoreFuture
    from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
    from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
    from repro.rl.environment import FeatureSpace
    from repro.rl.policy import MultiAgentController
    from repro.serve.server import ServeApp
    from repro.serve.service import TransformService
    from repro.store.backends import (
        CacheBackend,
        MemoryBackend,
        SqliteBackend,
        WriteThroughBackend,
    )

    return [
        (AFEEngine, "fit", "core.engine.fit", None),
        (DownstreamEvaluator, "evaluate", "core.evaluation.evaluate", None),
        (DecisionTreeClassifier, "fit", "ml.tree.fit", _tree_nodes),
        (DecisionTreeRegressor, "fit", "ml.tree.fit", _tree_nodes),
        (RandomForestClassifier, "predict_proba", "ml.forest.predict", None),
        (RandomForestClassifier, "predict", "ml.forest.predict", None),
        (RandomForestRegressor, "predict", "ml.forest.predict", None),
        (FPEModel, "signature", "core.fpe.signature", None),
        (CandidateFilter, "keep_batch", "core.filters.keep_batch", _kept),
        (ColumnFingerprinter, "key", "eval.fingerprint", None),
        (ColumnFingerprinter, "fingerprint", "eval.fingerprint", None),
        (ColumnFingerprinter, "bucket", "eval.fingerprint", None),
        (EvaluationService, "token", "eval.fingerprint", None),
        (EvaluationService, "submit_batch", "eval.service.submit", _submitted),
        (EvaluationService, "evaluate", "eval.service.submit", _tag(kind="evaluate")),
        (EvaluationService, "iter_scores_async", "eval.service.submit", None),
        (ScoreFuture, "result", "eval.future.wait", None),
        (MemoryBackend, "get", "store.backends.get", None),
        (SqliteBackend, "get", "store.backends.get", None),
        (WriteThroughBackend, "get", "store.backends.get", None),
        (MemoryBackend, "put", "store.backends.put", None),
        (SqliteBackend, "put", "store.backends.put", None),
        (WriteThroughBackend, "put", "store.backends.put", None),
        (CacheBackend, "put_many", "store.backends.put", None),
        (SqliteBackend, "put_many", "store.backends.put", None),
        (WriteThroughBackend, "put_many", "store.backends.put", None),
        (FeatureSpace, "generate", "rl.environment.generate", None),
        (MultiAgentController, "act", "rl.policy", None),
        (MultiAgentController, "update_from_trajectories", "rl.policy", None),
        (ServeApp, "handle_raw", "serve.server.handle", None),
        (TransformService, "serve_rows", "serve.service.transform", None),
        (TransformService, "transform", "serve.service.transform", None),
        (FeaturePlan, "transform", "api.plan.transform", None),
    ]


def install(tracer: Tracer) -> None:
    for cls, attr, name, hook in wrap_points():
        tracer.install(cls, attr, name, hook)


def _self_total(spans, own, name: str) -> float:
    return sum(own[span.id] for span in spans if span.name == name)


def score_accounting(spans, backend: str) -> dict:
    """Scores the engine consumed and asked for, counted from spans.

    ``consumed`` is every score handed back to the engine: base-matrix
    ``evaluate`` calls, items yielded by ``iter_scores_async`` and
    ``ScoreFuture.result`` calls made by the engine itself.
    ``requested`` is what the service looked up: on ``serial`` a
    future is looked up only when consumed, on ``pool`` every column
    is looked up when it is submitted.
    """
    submit = "eval.service.submit"
    evaluates = [
        span for span in outermost(spans, submit) if span.args.get("kind") == "evaluate"
    ]
    yielded = [span for span in spans if span.name == submit and span.args.get("yielded")]
    results = outermost(spans, "eval.future.wait", within=(submit,))
    consumed = len(evaluates) + len(yielded) + len(results)
    if backend == "pool":
        requested = len(evaluates) + sum(
            span.args.get("columns", 0)
            for span in spans
            if span.name == submit and span.args.get("kind") == "submit_batch"
        )
    else:
        requested = consumed
    return {"consumed": consumed, "requested": requested}


def fit_layers(spans, results, n_fits: int, backend: str) -> dict:
    """Per-fit layer metrics from the traced fits' spans and results.

    Pool workers record no spans: downstream fit counts and fit time
    on ``pool`` come from ``AFEResult.n_downstream_evaluations`` and
    the worker-reported ``AFEResult.evaluation_time``.
    """
    own = self_times(spans)
    per_fit = 1.0 / max(n_fits, 1)
    trees = [span for span in spans if span.name == "ml.tree.fit"]
    keeps = [span for span in spans if span.name == "core.filters.keep_batch"]
    candidates = sum(span.args["candidates"] for span in keeps)
    # Calls into the store from outside it: the write-through ``get``
    # that refills its memory layer makes one call, not two.
    gets = outermost(spans, "store.backends.get", within=("store.backends.put",))
    puts = outermost(spans, "store.backends.put", within=("store.backends.get",))
    accounting = score_accounting(spans, backend)
    hits = sum(result.n_cache_hits for result in results)
    misses = sum(result.n_cache_misses for result in results)
    fits = sum(result.n_downstream_evaluations for result in results)
    busy = sum(result.evaluation_time for result in results)
    return {
        "ml.tree.fits": len(trees) * per_fit,
        "ml.tree.nodes": sum(span.args["nodes"] for span in trees) * per_fit,
        "ml.tree.fit.self_s": _self_total(spans, own, "ml.tree.fit") * per_fit,
        "ml.forest.predict.self_s": _self_total(spans, own, "ml.forest.predict") * per_fit,
        "core.evaluation.fits": fits * per_fit,
        "core.evaluation.busy_s": busy * per_fit,
        "core.evaluation.s_per_fit": busy / fits if fits else 0.0,
        "eval.fit_yield": (accounting["consumed"] - hits) / fits if fits else 0.0,
        "eval.executor.spec_submitted": sum(r.n_speculative_submitted for r in results) * per_fit,
        "eval.executor.spec_discarded": sum(r.n_speculative_discarded for r in results) * per_fit,
        "eval.executor.peak_inflight": max((r.pool_peak_inflight for r in results), default=0),
        "eval.future.wait_s": _self_total(spans, own, "eval.future.wait") * per_fit,
        "core.fpe.signature.calls": sum(s.name == "core.fpe.signature" for s in spans) * per_fit,
        "core.fpe.signature.self_s": _self_total(spans, own, "core.fpe.signature") * per_fit,
        "core.filters.keep_batch.self_s": _self_total(spans, own, "core.filters.keep_batch") * per_fit,
        "core.filters.kept_ratio": (
            sum(span.args["kept"] for span in keeps) / candidates if candidates else 0.0
        ),
        "eval.fingerprint.self_s": _self_total(spans, own, "eval.fingerprint") * per_fit,
        "eval.service.submit.self_s": _self_total(spans, own, "eval.service.submit") * per_fit,
        "eval.cache.hits": hits * per_fit,
        "eval.cache.misses": misses * per_fit,
        "eval.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "store.backends.get.calls": len(gets) * per_fit,
        "store.backends.get.self_s": _self_total(spans, own, "store.backends.get") * per_fit,
        "store.backends.put.calls": len(puts) * per_fit,
        "store.backends.put.self_s": _self_total(spans, own, "store.backends.put") * per_fit,
        "rl.environment.generate.calls": sum(s.name == "rl.environment.generate" for s in spans) * per_fit,
        "rl.environment.generate.self_s": _self_total(spans, own, "rl.environment.generate") * per_fit,
        "rl.policy.calls": sum(s.name == "rl.policy" for s in spans) * per_fit,
        "rl.policy.self_s": _self_total(spans, own, "rl.policy") * per_fit,
    }


def serve_layers(spans, n_requests: int) -> dict:
    """Per-request self time of each serve layer, in seconds."""
    own = self_times(spans)
    per_request = 1.0 / max(n_requests, 1)
    return {
        "serve.server.handle.self_s": _self_total(spans, own, "serve.server.handle") * per_request,
        "serve.service.transform.self_s": _self_total(spans, own, "serve.service.transform") * per_request,
        "api.plan.transform.self_s": _self_total(spans, own, "api.plan.transform") * per_request,
    }
