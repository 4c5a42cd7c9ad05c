"""The HTTP serving phase: one published plan behind ``make_server``.

The plan is the 12-expression, 6-column shape of
``benchmarks/test_serve_throughput.py``.  Rows come from the workload
seed.  Requests are encoded before any clock starts and replies are
checked after each timed step: each must be a 2xx whose rows are
bit-identical to an in-process ``FeaturePlan.transform``.

Traffic is sent in segments, one per round of the run, so that every
serve metric samples the whole run rather than one stretch of it.  The
server is up only while a segment runs: the pool backend forks its
workers, which must not happen while a server thread is alive.
"""

from __future__ import annotations

import gc
import json
import os

import numpy as np

from .load import HttpClient, backlog_grows, closed_loop, open_loop
from .stats import median, summarize

PLAN_NAME = "bench"
PLAN_EXPRESSIONS = [
    "f0",
    "mul(f0,f1)",
    "log(f2)",
    "div(f3,f4)",
    "add(f5,mul(f0,f1))",
    "sqrt(f2)",
    "sub(f3,f0)",
    "mul(log(f2),f4)",
    "div(add(f0,f1),log(f2))",
    "recip(f5)",
    "add(f4,f5)",
    "log(mul(f0,f3))",
]
N_INPUTS = 6

#: Open-loop single-row rates (requests/s); the middle one gives p50/p99.
RATES = (100.0, 200.0, 400.0)
#: Share of the serve budget for each rate; the middle rate gets most.
RATE_SHARES = (0.08, 0.44, 0.18)
#: Middle-rate samples a traced run's sweep collects: a p99 with ten
#: samples beyond it.
P99_SAMPLES = 1000
#: Share of the serve budget for the closed loop of 256-row batches:
#: its latency switches between two modes from one second to the next
#: on the benchmark host, so it needs the time to average over both.
CLOSED_SHARE = 0.3
LATENCY_LIMIT_S = 0.005
BATCH_ROWS = 256


def plan():
    from repro.api import FeaturePlan

    return FeaturePlan(PLAN_EXPRESSIONS, [f"f{i}" for i in range(N_INPUTS)])


def publish(workdir: str):
    """Publish the plan into a fresh registry; part of set-up."""
    from repro.serve import PlanRegistry

    registry = PlanRegistry(os.path.join(workdir, "plans"))
    registry.publish(plan(), PLAN_NAME)
    return registry


def make_rows(seed: int, n: int, stream: int) -> np.ndarray:
    rng = np.random.default_rng([seed, stream])
    return np.abs(rng.normal(size=(n, N_INPUTS))) + 1.0


class ServeTraffic:
    """One ``TransformService`` served in segments, with every reply kept."""

    def __init__(self, registry, seed: int) -> None:
        from repro.serve import TransformService

        self.seed = seed
        self.service = TransformService(registry=registry)
        self._plan = plan()
        self._rows_sent = 0
        self._server = None
        self._thread = None
        self.client = None
        self.mismatched = 0

    def start(self, warm: int = 10) -> None:
        from repro.serve.server import make_server

        # The fits left garbage behind; collect it now rather than in
        # the middle of a timed segment.
        gc.collect()
        self._server = make_server(self.service, default_plan=PLAN_NAME)
        self._thread = self._server.serve_background()
        host, port = self._server.server_address[:2]
        self.client = HttpClient(host, port)
        for row in make_rows(self.seed, warm, stream=1):
            status, _ = self.client.send(self._encode(row[None, :]))
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}")

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        self._server = None

    def _encode(self, rows: np.ndarray) -> bytes:
        body = json.dumps({"rows": rows.tolist()}).encode("utf-8")
        return self.client.post("/transform", body)

    def open_step(self, rate: float, seconds: float, start: int | None = None):
        """Single-row requests at ``rate`` for ``seconds``.

        Rows continue the seed's row stream unless ``start`` replays it
        from that position.
        """
        n = max(1, int(round(rate * seconds)))
        start = self._rows_sent if start is None else start
        rows = make_rows(self.seed, start + n, stream=0)[start:]
        self._rows_sent = max(self._rows_sent, start + n)
        requests = [self._encode(row[None, :]) for row in rows]
        samples = open_loop(self.client.send, requests, rate)
        for row, sample in zip(rows, samples):
            self._check(row[None, :], sample.body)
        return samples

    def batches(self, seconds: float):
        """Closed loop of ``BATCH_ROWS``-row requests for ``seconds``."""
        rows = make_rows(self.seed, BATCH_ROWS, stream=2)
        samples = closed_loop(self.client.send, self._encode(rows), seconds)
        checked = None
        for sample in samples:
            # Equal bytes decode to equal rows: decode each distinct reply once.
            if sample.body != checked:
                self._check(rows, sample.body)
                checked = sample.body
        return samples

    def _check(self, rows: np.ndarray, body: bytes) -> None:
        """Count a reply whose rows differ from ``FeaturePlan.transform`` in any bit.

        Runs after each timed step, so replies need not be kept.
        """
        expected = self._plan.transform(rows)
        try:
            got = np.asarray(json.loads(body)["rows"], dtype=np.float64)
        except (ValueError, KeyError, TypeError):
            self.mismatched += 1
            return
        if got.shape != expected.shape or got.tobytes() != expected.tobytes():
            self.mismatched += 1


class Sweep:
    """Samples of the rate sweep and the closed loop, pooled over rounds."""

    def __init__(self) -> None:
        self.segments: dict[float, list] = {rate: [] for rate in RATES}
        self.batches: list = []

    @staticmethod
    def seconds_for_p99() -> float:
        """Serve budget at which the middle rate collects ``P99_SAMPLES``."""
        middle = len(RATES) // 2
        return P99_SAMPLES / (RATES[middle] * RATE_SHARES[middle])

    def run_round(self, traffic: ServeTraffic, seconds: float) -> None:
        """One segment of every step, ``seconds`` of serving in all."""
        traffic.start()
        try:
            for rate, share in zip(RATES, RATE_SHARES):
                self.segments[rate].append(traffic.open_step(rate, seconds * share))
            self.batches.extend(traffic.batches(seconds * CLOSED_SHARE))
        finally:
            traffic.stop()

    def step_report(self, rate: float) -> dict:
        """Latency, generator lag and pass/fail of one rate over its segments."""
        segments = self.segments[rate]
        samples = [sample for segment in segments for sample in segment]
        latency = summarize([sample.latency for sample in samples])
        n_ok = sum(sample.ok for sample in samples)
        span = sum(segment[-1].done - segment[0].due for segment in segments)
        growing = any(backlog_grows(segment, LATENCY_LIMIT_S) for segment in segments)
        tail = latency["tail"]
        return {
            "rate": rate,
            "n": len(samples),
            "segments": len(segments),
            "failed": len(samples) - n_ok,
            "p50_ms": latency["median"] * 1e3,
            "tail_q": latency["tail_q"],
            "tail_ms": tail * 1e3 if tail is not None else None,
            "lag_p50_ms": median([sample.lag for sample in samples]) * 1e3,
            "lag_max_ms": max(sample.lag for sample in samples) * 1e3,
            "backlog_growing": growing,
            "achieved_rps": n_ok / span if span > 0 else 0.0,
            "meets_limit": tail is not None and tail <= LATENCY_LIMIT_S and not growing,
        }

    def metrics(self) -> tuple[dict, dict, int, int]:
        """Serve metrics, their per-step detail, attempted, failed.

        ``serve_rows_per_s`` is rows served over time spent in the
        closed loop; p50 and p99 are the middle rate's; ``serve_max_rps``
        is the throughput achieved at the highest rate that, like every
        rate below it, kept its tail within the limit with no growing
        backlog.
        """
        reports = [self.step_report(rate) for rate in RATES]
        middle = reports[len(reports) // 2]
        passing = 0.0
        for report in reports:
            if not report["meets_limit"]:
                break
            passing = report["achieved_rps"]
        ok_batches = [sample for sample in self.batches if sample.ok]
        busy = sum(sample.done - sample.sent for sample in self.batches)
        attempted = sum(report["n"] for report in reports) + len(self.batches)
        failed = sum(report["failed"] for report in reports) + len(self.batches) - len(ok_batches)
        metrics = {
            "serve_rows_per_s": BATCH_ROWS * len(ok_batches) / busy,
            "serve_p50_ms": middle["p50_ms"],
            "serve_p99_ms": middle["tail_ms"],
            "serve_max_rps": passing,
        }
        detail = {
            "steps": reports,
            "p99_percentile_used": middle["tail_q"],
            "p99_samples": middle["n"],
            "batch_requests": len(self.batches),
            "batch_rows": BATCH_ROWS,
            "latency_limit_ms": LATENCY_LIMIT_S * 1e3,
        }
        return metrics, detail, attempted, failed
