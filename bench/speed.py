"""Machine-speed reference for the benchmark's time metrics.

The benchmark is meant for small shared virtual machines.  There the speed
of the CPU drifts by a factor of two or more over tens of seconds, for every
process alike: a fixed pure-Python loop shows the same swings as the jobs.
An unscaled time then says as much about the neighbours as about ringcode.

So the timed run takes a reference sample, the time of a fixed pure-Python
kernel that calls nothing in ringcode, next to the work it measures: before
the first job of a pass, after each ``SAMPLE_EVERY_S`` of job time and after
the last job, and before and after each set-up.  A time is multiplied by
``(REFERENCE_S / k) ** EXPONENT``, where ``k`` is the mean of the two samples
around it.  Scaled times are in seconds of a machine on which the kernel
takes ``REFERENCE_S``; a change to ringcode moves them, a change in machine
speed moves them much less than it moves wall times.

The exponent is below 1 because the kernel swings more than ringcode does:
on the 2-vCPU virtual machine the benchmark was defined on, the log of the
kernel time varied 1.7 times as much as the log of a pass time, with a
correlation of about 0.9.  Over recordings of 13 to 139 passes of each
workload, an exponent of 0.75 gave the smallest or nearly the smallest
pass-to-pass spread of ``wall_s``, ``job_p50_ms`` and ``job_p90_ms`` on
every workload, about half the unscaled spread.
"""

from __future__ import annotations

import gc
from time import perf_counter

# Median kernel time on the machine the benchmark was defined on (see
# above), CPython 3.11.7.  Any fixed value would do; this one keeps scaled
# times close to the wall times seen there.
REFERENCE_S = 1.25e-3
EXPONENT = 0.75
SAMPLE_EVERY_S = 0.1  # job time between two reference samples
REPEATS = 3  # a sample is the fastest of this many kernel runs


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _kernel() -> int:
    """The kind of work ringcode does: small objects, tuples, dicts, ints."""
    seen: dict = {}
    acc = 0
    for i in range(600):
        point = _Point(i % 97, i % 13)
        key = tuple((point.a + j * point.b) % 7 for j in range(3))
        seen[key] = seen.get(key, 0) + 1
        acc += (point.a * point.b) % 11
    return acc + len(seen)


def sample() -> float:
    """Seconds the kernel takes now; the fastest of ``REPEATS`` runs.

    The collector is off while the kernel runs, so a large heap left by the
    program under test does not slow the reference and hide its own cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = perf_counter()
            _kernel()
            best = min(best, perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def factor(before: float, after: float) -> float:
    """Factor from wall time to scaled time, from the samples around it."""
    return (REFERENCE_S * 2 / (before + after)) ** EXPONENT
