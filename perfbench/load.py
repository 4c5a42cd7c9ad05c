"""HTTP load generation: an open loop at fixed rates and a closed loop.

The open loop models independent users: request ``i`` is due at
``start + i / rate`` whatever happened before, and its latency is
timed from that due time, so a stall also charges the requests queued
behind it.  How late the generator itself sent each request is kept
as its lag.  The closed loop models one caller that waits for each
reply before sending the next.

One client connection at a time: the server speaks HTTP/1.0 and closes
the connection after each response, so each request opens its own.
"""

from __future__ import annotations

import math
import socket
import time
from dataclasses import dataclass

from .stats import median


@dataclass
class Sample:
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from the due time to the reply; infinite on failure."""
        return self.done - self.due if self.ok else math.inf

    @property
    def lag(self) -> float:
        """Seconds the generator sent this request after its due time."""
        return self.sent - self.due


def open_loop(send, requests, rate: float, clock=time.perf_counter, sleep=time.sleep):
    """Send ``requests`` on a fixed schedule of ``rate`` per second.

    ``send(request) -> (status, body)``.  Returns one :class:`Sample`
    per request, in order.
    """
    samples = []
    start = clock()
    for index, request in enumerate(requests):
        due = start + index / rate
        now = clock()
        if now < due:
            sleep(due - now)
        sent = clock()
        status, body = send(request)
        samples.append(Sample(due, sent, clock(), status, body))
    return samples


def closed_loop(send, request, seconds: float, clock=time.perf_counter):
    """Send ``request`` back to back for ``seconds``; at least once."""
    samples = []
    deadline = clock() + seconds
    while True:
        sent = clock()
        status, body = send(request)
        samples.append(Sample(sent, sent, clock(), status, body))
        if clock() >= deadline:
            return samples


def backlog_grows(samples, limit_s: float) -> bool:
    """Whether the generator fell further behind over the step.

    Compares the median lag of the last fifth of the requests with
    that of the first fifth; growth beyond the latency limit means the
    system did not keep up with the offered rate.
    """
    fifth = max(1, len(samples) // 5)
    first = median([sample.lag for sample in samples[:fifth]])
    last = median([sample.lag for sample in samples[-fifth:]])
    return last - first > limit_s


class HttpClient:
    """Minimal HTTP/1.0 client over a fresh loopback socket per request."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def post(self, path: str, body: bytes) -> bytes:
        """Encode one POST request; build these before the clock starts."""
        head = (
            f"POST {path} HTTP/1.0\r\nHost: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("ascii") + body

    def send(self, raw: bytes) -> tuple[int, bytes]:
        """Send one encoded request; returns ``(status, body)``.

        A refused or broken connection is status 0: a failed request.
        """
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as sock:
                sock.sendall(raw)
                chunks = []
                while True:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        break
                    chunks.append(chunk)
        except OSError:
            return 0, b""
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        try:
            status = int(head.split(b" ", 2)[1])
        except (IndexError, ValueError):
            return 0, b""
        return status, body
