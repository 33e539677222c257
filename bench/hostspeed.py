"""A fixed reference task that measures how fast the host runs right now.

Other tenants of a shared host slow every process on it by up to half, for
seconds to minutes at a time, and CPU time slows with wall time, so no
statistic of a run's own timings removes that. The benchmark therefore times
this task next to the program, between ops about every 0.05 s of a timed run
and before and after every fresh start, and scales each timing to the host
speed at which the task takes NOMINAL_S:

    scaled = measured * NOMINAL_S / mean of the samples just before and after

(setup_s takes the median of all samples around its starts instead, because
one start is too short for two samples to tell its host speed).

A change to ivstrata moves the measured timings and leaves the reference
alone, so it shows in the scaled figures in full. The task mixes what the
workloads spend their time on: interpreted Python, many small numpy calls,
and arithmetic on arrays larger than the L2 cache.
"""

from __future__ import annotations

import time

import numpy

NOMINAL_S = 0.005  # about the task's time on a quiet core of the 2-core host the baseline was taken on

_SMALL = numpy.arange(9.0).reshape(3, 3) + 3.0 * numpy.eye(3)
_LARGE = numpy.arange(100_000, dtype=float)


def _task() -> float:
    total = 0
    for i in range(32_000):
        total += i * i % 7
    rhs = numpy.ones(3)
    for _ in range(240):
        rhs = numpy.linalg.solve(_SMALL, rhs) + 1.0
    for _ in range(12):
        total += float((_LARGE * 1.5 + 2.0).sum())
    return total + float(rhs.sum())


def sample() -> float:
    """Seconds the reference task takes now."""
    start = time.perf_counter()
    _task()
    return time.perf_counter() - start
