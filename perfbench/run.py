#!/usr/bin/env python3
"""One benchmark run: set-up, timed fits, HTTP serving, checks, report.

Usage, from the repository root::

    python3 perfbench/run.py --workload fit-clf-cold --seed 1 --seconds 30 --trace 0

The last line of standard output is the result object.  With
``--trace 0`` it carries the end-to-end metrics of an unwrapped run;
with ``--trace 1`` the per-layer metrics of a run whose second half is
traced, and a Chrome trace is written under ``.perfbench/``.  The line
before it is the run's provenance.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Share of ``--seconds`` spent on timed fits; the rest serves HTTP.
FIT_SHARE = 0.9
#: Rounds an untraced run is cut into (see ``measure``).
ROUNDS = 3

#: Environment overrides that would silently change a workload.
REFUSED_NAMES = ("REPRO_FAULTS", "REPRO_BENCH_PROFILE", "REPRO_RUN_STORE")
REFUSED_PREFIXES = ("REPRO_EVAL_",)


def refused_env(environ) -> list[str]:
    return sorted(
        name
        for name in environ
        if name in REFUSED_NAMES or name.startswith(REFUSED_PREFIXES)
    )


def git_sha(root: str) -> str:
    """HEAD's commit read from ``.git`` directly; ``unknown`` outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: str) -> str:
    """Content hash of ``src/``: names the code when there is no git."""
    hasher = hashlib.blake2b(digest_size=8)
    src = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                hasher.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_resource_tracker() -> None:
    """Stop the helper process that shared memory starts, and wait for it.

    The pool backend's shared-memory segments start
    ``multiprocessing.resource_tracker``; left alone it exits only after
    this process has.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def declared_metrics(root: str) -> dict:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from ``BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def set_up_once(cell, workdir: str, rep: int):
    """One set-up: FPE pre-training, data load, plan publish (and store warm-up).

    Returns the set-up, the plan registry and the set-up's time as
    ``{"raw_s": stopwatch seconds, "s": seconds at the reference speed}``.
    """
    from perfbench import serving
    from perfbench.hostspeed import Probe, normalise
    from perfbench.workloads import set_up

    target = os.path.join(workdir, f"setup-{rep}")
    gc.collect()
    before = Probe()
    started = time.perf_counter()
    setup = set_up(cell, target)
    registry = serving.publish(target)
    taken = time.perf_counter() - started
    after = Probe()
    return setup, registry, {"raw_s": taken, "s": normalise(taken, before, after)}


def fit_indices(runner, indices):
    """Fit each index between two reference probes.

    Returns the records and the failed checks.  A good record gains
    ``wall_norm_s`` and ``cpu_norm_s``, its times at the reference
    speed (see ``hostspeed.py``).
    """
    from perfbench.hostspeed import Probe, normalise

    records = []
    problems = []
    for index in indices:
        gc.collect()
        before = Probe()
        record = runner.fit(index)
        after = Probe()
        if record["ok"]:
            record["wall_norm_s"] = normalise(record["wall_s"], before, after)
            record["cpu_norm_s"] = normalise(record["cpu_s"], before, after, "cpu")
            record["probe_s"] = [before.wall, after.wall]
            problems.extend(runner.check(record))
        runner.cleanup(index)
        records.append(record)
    return records, problems


def fit_for(runner, start: int, budget_s: float):
    """Fit indices ``start``, ``start + 1``, ... for about ``budget_s``.

    Fits while the next would end within half a fit of the budget, so
    the count is the budget over a fit's time, rounded; at least one.
    Returns the records and the failed checks.
    """
    records, problems = [], []
    started = time.perf_counter()
    while True:
        found_records, found = fit_indices(runner, [start + len(records)])
        records += found_records
        problems += found
        spent = time.perf_counter() - started
        if spent * (len(records) + 0.5) / len(records) > budget_s:
            return records, problems


def measure(cell, args, workdir: str, provenance: dict) -> dict:
    """The untraced run: end-to-end metrics, no wrappers installed.

    After one short untimed warm-up fit the run is cut into rounds.
    Each round fits until the fit time of the rounds so far reaches
    their share of the fit budget, then serves one segment of every
    traffic step; the second and third set-ups run after the first and
    the last round.  Every metric so samples the
    whole run, and every time is reported at the reference speed, which
    matters on a host whose speed drifts over tens of seconds.
    """
    from perfbench import serving
    from perfbench.stats import median
    from perfbench.workloads import FitRunner

    fit_round = args.seconds * FIT_SHARE / ROUNDS
    serve_round = args.seconds * (1.0 - FIT_SHARE) / ROUNDS
    setup, registry, first = set_up_once(cell, workdir, 0)
    setup_times = [first]
    runner = FitRunner(cell, setup, workdir)
    provenance.update(describe(cell, runner, setup))
    runner.warm_up()
    traffic = serving.ServeTraffic(registry, args.seed)
    sweep = serving.Sweep()
    records, problems = [], []
    fitting = 0.0
    for round_index in range(ROUNDS):
        # Budgets accumulate, so a round that ran short leaves its time
        # to the next and the run makes about FIT_SHARE * seconds / fit
        # fits, not ROUNDS times a rounded-down share.
        started = time.perf_counter()
        found_records, found = fit_for(
            runner, len(records), fit_round * (round_index + 1) - fitting
        )
        fitting += time.perf_counter() - started
        for record in found_records:
            record.pop("result", None)  # checked; keep the heap small for serving
        records += found_records
        problems += found
        sweep.run_round(traffic, serve_round)
        if round_index in (0, ROUNDS - 1):
            setup_times.append(set_up_once(cell, workdir, len(setup_times))[2])
    good = [record for record in records if record["ok"]]
    if not good:
        raise RuntimeError(f"no fit succeeded: {runner.failures}")
    serve_metrics, detail, attempted_serve, failed_serve = sweep.metrics()
    provenance["serve"] = detail
    metrics = {
        "setup_s": median([t["s"] for t in setup_times]),
        "fit_wall_s": median([r["wall_norm_s"] for r in good]),
        "fit_cpu_s": median([r["cpu_norm_s"] for r in good]),
        "peak_rss_mb": peak_rss_mb(),
    }
    provenance["stopwatch"] = {
        "setup_s": median([t["raw_s"] for t in setup_times]),
        "fit_wall_s": median([r["wall_s"] for r in good]),
        "fit_cpu_s": median([r["cpu_s"] for r in good]),
    }
    # Serve figures swing with the host from run to run by more than
    # any bound the benchmark may set; traced runs report them per layer.
    provenance.update(serve_metrics)
    provenance["setup_s_samples"] = setup_times
    provenance["rounds"] = ROUNDS
    return finish(runner, traffic, records, problems, attempted_serve, failed_serve,
                  metrics, provenance)


def measure_traced(cell, args, workdir: str, provenance: dict) -> dict:
    """The traced run: per-layer metrics and the tracing overhead.

    Fits for half the fit budget unwrapped, then installs the wrappers
    and repeats each fit; serves the middle rate unwrapped, then
    wrapped on the same rows.  Overheads are traced minus unwrapped medians.
    """
    from perfbench import layers, serving
    from perfbench.stats import median
    from perfbench.tracing import Tracer
    from perfbench.workloads import FitRunner, digest

    setup, registry, first = set_up_once(cell, workdir, 0)
    runner = FitRunner(cell, setup, workdir)
    provenance.update(describe(cell, runner, setup))
    provenance["setup_s_samples"] = [first]
    runner.warm_up()
    records, problems = fit_for(runner, 0, args.seconds * FIT_SHARE / 2)
    good = [record for record in records if record["ok"]]
    if not good:
        raise RuntimeError(f"no fit succeeded: {runner.failures}")
    backend = runner.config_for(0).eval_backend

    tracer = Tracer()
    traced = []
    layers.install(tracer)
    try:
        for position, record in enumerate(good):
            tracer.run_id = position + 1
            traced_records, found = fit_indices(runner, [record["index"]])
            traced += traced_records
            problems += found
    finally:
        tracer.remove()
    traced_ok = [record for record in traced if record["ok"]]
    for plain, wrapped in zip(good, traced_ok):
        if digest(plain["result"]) != digest(wrapped["result"]):
            problems.append(f"fit {plain['index']}: traced digest differs from untraced")
    for position, record in enumerate(traced_ok):
        spans = [span for span in tracer.spans if span.run_id == position + 1]
        counts = layers.score_accounting(spans, backend)
        result = record["result"]
        scored = result.n_cache_hits + result.n_cache_misses + result.n_surrogate_served
        if scored != counts["requested"]:
            problems.append(
                f"fit {record['index']}: hits+misses+surrogate {scored} != "
                f"scores requested {counts['requested']} (consumed {counts['consumed']})"
            )
    fit_spans = [span for span in tracer.spans if span.run_id >= 1]
    metrics = layers.fit_layers(
        fit_spans, [record["result"] for record in traced_ok], len(traced_ok), backend
    )
    metrics["downstream_evals"] = median([r["downstream_evals"] for r in traced_ok])
    metrics["score_gain"] = median([r["score_gain"] for r in traced_ok])
    metrics["trace.overhead.fit_wall_s"] = median(
        [r["wall_norm_s"] for r in traced_ok]
    ) - median([r["wall_norm_s"] for r in good])
    metrics["setup.fpe_pretrain_s"] = setup.pretrain_s
    provenance["traced_fits"] = len(traced_ok)

    traffic = serving.ServeTraffic(registry, args.seed)
    sweep = serving.Sweep()
    sweep.run_round(
        traffic, max(args.seconds * (1.0 - FIT_SHARE), serving.Sweep.seconds_for_p99())
    )
    serve_metrics, detail, attempted_serve, failed_serve = sweep.metrics()
    provenance["serve"] = detail
    metrics.update(serve_metrics)
    middle = serving.RATES[len(serving.RATES) // 2]
    plain = sweep.segments[middle][0]
    traffic.start()
    try:
        layers.install(tracer)
        try:
            tracer.run_id = -1
            wrapped = traffic.open_step(
                middle, len(plain) / middle, start=len(sweep.segments[serving.RATES[0]][0])
            )
            tracer.run_id = -2
            batches = traffic.batches(args.seconds * (1.0 - FIT_SHARE) * serving.CLOSED_SHARE)
        finally:
            tracer.remove()
    finally:
        traffic.stop()
    request_spans = [span for span in tracer.spans if span.run_id == -1]
    handle = [span.duration for span in request_spans if span.name == "serve.server.handle"]
    stats = traffic.service.stats(serving.PLAN_NAME)
    metrics.update(layers.serve_layers(request_spans, len(wrapped)))
    metrics["serve.http_overhead_ms"] = (
        median([s.done - s.sent for s in wrapped]) - median(handle)
    ) * 1e3
    metrics["serve.service.compiles"] = stats.n_compiles
    metrics["serve.service.cache_hit_ratio"] = stats.hit_rate
    metrics["serve.generator_lag_ms"] = median([s.lag for s in plain]) * 1e3
    metrics["trace.overhead.serve_p50_ms"] = (
        median([s.latency for s in wrapped]) - median([s.latency for s in plain])
    ) * 1e3
    provenance["serve_samples"] = {
        "untraced": len(plain), "traced": len(wrapped), "batches": len(batches)
    }
    trace_path = os.path.join(ROOT, ".perfbench", f"trace-{cell.name}-seed{args.seed}.json")
    tracer.write_chrome_trace(trace_path, provenance)
    provenance["trace_file"] = os.path.relpath(trace_path, ROOT)
    provenance["pool_worker_time"] = (
        "pool workers record no spans; their fit counts and time come from "
        "AFEResult.n_downstream_evaluations and AFEResult.evaluation_time"
    )
    attempted_serve += len(wrapped) + len(batches)
    failed_serve += sum(not sample.ok for sample in wrapped + batches)
    return finish(runner, traffic, records + traced, problems, attempted_serve, failed_serve,
                  metrics, provenance)


def describe(cell, runner, setup) -> dict:
    """Provenance that depends on the workload."""
    from perfbench.workloads import config_record

    return {
        "engine_config": config_record(cell, runner.config_for(0)),
        "engine_seed": cell.engine_seed,
        "dataset": {
            "name": cell.dataset, **cell.load, "shape": list(setup.task.X.to_array().shape)
        },
        "fpe_pretrain_s": setup.pretrain_s,
    }


def finish(runner, traffic, records, problems, attempted_serve, failed_serve,
           metrics, provenance) -> dict:
    """Serve checks, failure counts and the report of either kind of run."""
    mismatched = traffic.mismatched
    if mismatched:
        problems.append(f"{mismatched} HTTP replies differ from FeaturePlan.transform")
    if failed_serve:
        problems.append(f"{failed_serve} HTTP requests failed")
    good = [record for record in records if record["ok"]]
    attempted = len(records) + attempted_serve
    failed = len(records) - len(good) + failed_serve
    provenance["fits"] = [
        {key: value for key, value in record.items() if key != "result"} for record in records
    ]
    provenance["fit_samples"] = len(good)
    provenance["failures"] = runner.failures
    provenance["error_rate"] = failed / attempted
    provenance["problems"] = problems
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "provenance": provenance,
    }


def run(args, workdir: str) -> dict:
    from perfbench.workloads import EVAL_WORKERS, WORKLOADS

    cell = WORKLOADS[args.workload]
    os.makedirs(workdir, exist_ok=True)
    provenance = {
        "workload": cell.name,
        "why": cell.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "eval_workers": EVAL_WORKERS,
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "git_sha": git_sha(ROOT),
        "src_digest": source_digest(ROOT),
    }
    if cell.config["eval_backend"] == "serial":
        # One thread of fit work: keep it on one CPU, where the probes
        # of hostspeed.py then measure exactly the speed it ran at.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    provenance["cpu_affinity"] = sorted(os.sched_getaffinity(0))
    if args.trace:
        return measure_traced(cell, args, workdir, provenance)
    return measure(cell, args, workdir, provenance)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    refused = refused_env(os.environ)
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} set", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 3
    # Import the package from this checkout, never an installed copy.
    sys.path[0:1] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench.workloads import WORKLOADS

    declared = declared_metrics(ROOT)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", f"work-{args.workload}-{os.getpid()}")
    try:
        report = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()
    provenance = report.pop("provenance")
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if set(report["metrics"]) != set(wanted):
        missing = sorted(set(wanted) - set(report["metrics"]))
        extra = sorted(set(report["metrics"]) - set(wanted))
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}", file=sys.stderr)
        return 4
    report["metrics"] = {
        name: _metric(report["metrics"][name], wanted[name]) for name in wanted
    }
    print("provenance " + json.dumps(provenance, default=str))
    for problem in provenance["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
