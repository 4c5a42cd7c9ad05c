"""Host speed, measured by a fixed reference loop run beside each timing.

The benchmark host is a small share of a busy machine: the speed of
each of its CPUs switches, independently of the other, between states
about 1.6x apart that last from a second to tens of seconds, with no
steal time to show for it, and CPU time inflates with wall time.  So a
stopwatch alone reads a run's luck as much as the program.  Each timed
operation is therefore bracketed by two probes: a probe runs
:func:`reference`, a fixed piece of interpreter and small-array numpy
work of the kind a fit does that depends on nothing under ``src/``,
once pinned to each CPU the process may use.  A timing is reported in
seconds at the reference speed::

    normalised = measured * REFERENCE_S / reference_time

where ``reference_time`` is the mean over the two probes and their
CPUs, and ``REFERENCE_S`` is the reference loop's time on an idle host
(a 2-vCPU Xeon KVM guest).  A change to the program moves the
numerator only.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: :func:`reference`'s wall (and CPU) time on an idle benchmark host.
REFERENCE_S = 0.025

_DATA = np.random.default_rng(0).standard_normal((768, 8))
_TARGET = (_DATA[:, 0] + 0.5 * _DATA[:, 3] > 0).astype(float)


def reference() -> float:
    """Fixed work: best-split search over a small table, plus dict traffic."""
    best = 0.0
    for _ in range(40):
        for column in range(_DATA.shape[1]):
            order = np.argsort(_DATA[:, column], kind="stable")
            labels = _TARGET[order]
            left = np.cumsum(labels)[:-1]
            counts = np.arange(1, len(labels))
            gini = left * (counts - left) / counts
            best = max(best, float(gini.max()))
    table: dict[int, int] = {}
    for i in range(80000):
        key = (i * 7919) % 211
        table[key] = table.get(key, 0) + i
    return best + len(table)


class Probe:
    """Mean wall and CPU time of :func:`reference`, once on each allowed CPU."""

    __slots__ = ("wall", "cpu")

    def __init__(self) -> None:
        allowed = os.sched_getaffinity(0)
        walls, cpus = [], []
        try:
            for core in sorted(allowed):
                if len(allowed) > 1:
                    os.sched_setaffinity(0, {core})
                cpu = time.process_time()
                started = time.perf_counter()
                reference()
                walls.append(time.perf_counter() - started)
                cpus.append(time.process_time() - cpu)
        finally:
            if len(allowed) > 1:
                os.sched_setaffinity(0, allowed)
        self.wall = sum(walls) / len(walls)
        self.cpu = sum(cpus) / len(cpus)


def normalise(measured: float, before: Probe, after: Probe, kind: str = "wall") -> float:
    """``measured`` seconds in seconds at the reference speed."""
    taken = (getattr(before, kind) + getattr(after, kind)) / 2.0
    return measured * REFERENCE_S / taken
