"""Span tracing installed from outside the program, for traced runs only.

A :class:`Tracer` replaces public methods of the ``repro`` layers with
thin wrappers that record one span per call: name, start, end, the
enclosing span and the run id of the operation it belongs to.  Spans
stay in memory and are written out once, as Chrome trace-event JSON,
when the run ends.  :meth:`Tracer.remove` puts every original function
object back, so the untraced runs execute exactly the classes a plain
import gives.

Only the process that installed the wrappers records spans: pool
workers are forked with the wrappers in place, and there a wrapper
calls straight through to the original.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    tid: int
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._installed: list[tuple[type, str, object, bool]] = []

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=stack[-1] if stack else None,
            run_id=self.run_id,
            tid=threading.get_ident(),
        )
        stack.append(span.id)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, original, name: str, on_return):
        tracer = self
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                if os.getpid() != tracer._pid:
                    yield from original(*args, **kwargs)
                    return
                inner = original(*args, **kwargs)
                try:
                    while True:
                        span = tracer.begin(name)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.finish(span)
                        span.args["yielded"] = 1
                        yield item
                finally:
                    span = tracer.begin(name)
                    try:
                        inner.close()
                    finally:
                        tracer.finish(span)

            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.finish(span)
            if on_return is not None:
                on_return(span, args, kwargs, result)
            return result

        return wrapper

    def install(self, cls: type, attr: str, name: str, on_return=None) -> None:
        """Wrap ``cls.attr`` so every call records a span called ``name``.

        ``on_return(span, args, kwargs, result)`` may attach counts to
        the span's ``args`` after the call returns.
        """
        owned = attr in cls.__dict__
        original = cls.__dict__[attr] if owned else getattr(cls, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__name__}.{attr}: only plain methods are wrapped")
        setattr(cls, attr, self._wrap(original, name, on_return))
        self._installed.append((cls, attr, original, owned))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            cls, attr, original, owned = self._installed.pop()
            if owned:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)

    # -- export ----------------------------------------------------------------
    def chrome_trace(self, metadata: dict | None = None) -> dict:
        """Spans as Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": self._pid,
                "tid": span.tid,
                "args": {
                    "span": span.id,
                    "parent": span.parent,
                    "run_id": span.run_id,
                    **span.args,
                },
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": metadata or {},
        }

    def write_chrome_trace(self, path: str, metadata: dict | None = None) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(metadata), handle)


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping
    children count once, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.id, ())
        ]
        result[span.id] = span.duration - covered(clipped)
    return result


def outermost(spans, name: str, within=()) -> list[Span]:
    """Spans called ``name`` with no ancestor called ``name`` or in ``within``.

    Counts calls at a layer's boundary: a write-through store ``get``
    that calls the in-memory and SQLite ``get`` beneath it is one call.
    """
    by_id = {span.id: span for span in spans}
    blocked = {name, *within}
    selected = []
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in blocked:
            parent = by_id.get(parent.parent)
        if parent is None:
            selected.append(span)
    return selected
