import json
import math

import numpy as np

from perfbench import serving
from perfbench.load import Sample, backlog_grows, closed_loop, open_loop
from perfbench.serving import Sweep


class FakeClock:
    """Deterministic time: sleeping and serving advance it, nothing else."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def make_send(clock, service_times, status=200):
    times = iter(service_times)

    def send(request):
        clock.now += next(times)
        return status, b"{}"

    return send


def test_open_loop_times_each_request_from_its_due_time():
    clock = FakeClock()
    # Request 0 stalls for one second; the rest take 10 ms each.
    send = make_send(clock, [1.0] + [0.01] * 4)
    samples = open_loop(send, range(5), rate=10.0, clock=clock, sleep=clock.sleep)
    dues = [sample.due for sample in samples]
    assert dues == [0.0, 0.1, 0.2, 3 / 10.0, 0.4]
    # Request 1 was due at 0.1 but could only be sent at 1.0: the
    # stall is charged to it, from its due time.
    assert math.isclose(samples[1].sent, 1.0)
    assert math.isclose(samples[1].lag, 0.9)
    assert math.isclose(samples[1].latency, 0.91)
    # The generator catches up request by request, never sleeping.
    assert math.isclose(samples[4].lag, 1.03 - 0.4)
    assert math.isclose(samples[0].latency, 1.0)


def test_open_loop_sleeps_until_due_when_idle():
    clock = FakeClock()
    send = make_send(clock, [0.001] * 3)
    samples = open_loop(send, range(3), rate=100.0, clock=clock, sleep=clock.sleep)
    assert [round(sample.lag, 12) for sample in samples] == [0.0, 0.0, 0.0]
    assert all(math.isclose(sample.latency, 0.001) for sample in samples)


def test_backlog_growth_is_detected_under_overload_only():
    clock = FakeClock()
    overloaded = open_loop(
        make_send(clock, [0.02] * 50), range(50), rate=100.0, clock=clock, sleep=clock.sleep
    )
    assert backlog_grows(overloaded, limit_s=0.005)
    clock = FakeClock()
    steady = open_loop(
        make_send(clock, [0.002] * 50), range(50), rate=100.0, clock=clock, sleep=clock.sleep
    )
    assert not backlog_grows(steady, limit_s=0.005)


def segment(first, n, status=200, latency=0.001):
    return [
        Sample(i * 0.01, i * 0.01, i * 0.01 + latency, status, b"")
        for i in range(first, first + n)
    ]


def test_step_report_pools_segments_and_counts_failures_as_misses():
    sweep = Sweep()
    sweep.segments[100.0] = [segment(0, 100), segment(100, 100)]
    report = sweep.step_report(100.0)
    assert report["n"] == 200 and report["segments"] == 2
    assert report["failed"] == 0 and report["meets_limit"]
    assert report["tail_q"] == 95.0
    assert math.isclose(report["achieved_rps"], 200 / (2 * 0.991))
    sweep.segments[100.0] = [segment(0, 180), segment(180, 20, status=503)]
    report = sweep.step_report(100.0)
    assert report["failed"] == 20
    assert report["tail_ms"] == math.inf
    assert not report["meets_limit"]


def test_step_fails_when_any_segment_falls_behind():
    clock = FakeClock()
    behind = open_loop(
        make_send(clock, [0.02] * 50), range(50), rate=100.0, clock=clock, sleep=clock.sleep
    )
    sweep = Sweep()
    sweep.segments[100.0] = [segment(0, 100), behind]
    report = sweep.step_report(100.0)
    assert report["backlog_growing"] and not report["meets_limit"]


def test_closed_loop_sends_back_to_back_at_least_once():
    clock = FakeClock()
    samples = closed_loop(make_send(clock, [0.3] * 10), b"", seconds=1.0, clock=clock)
    assert len(samples) == 4
    assert all(math.isclose(sample.latency, 0.3) for sample in samples)
    clock = FakeClock()
    assert len(closed_loop(make_send(clock, [5.0]), b"", seconds=0.0, clock=clock)) == 1


def test_serve_check_counts_any_bit_difference(tmp_path):
    traffic = serving.ServeTraffic(serving.publish(str(tmp_path)), seed=0)
    rows = serving.make_rows(0, 2, stream=0)
    expected = serving.plan().transform(rows)
    traffic._check(rows, json.dumps({"rows": expected.tolist()}).encode())
    assert traffic.mismatched == 0
    off = expected.copy()
    off[0, 3] = np.nextafter(off[0, 3], np.inf)
    traffic._check(rows, json.dumps({"rows": off.tolist()}).encode())
    assert traffic.mismatched == 1
    traffic._check(rows, b"<html>busy</html>")
    assert traffic.mismatched == 2
