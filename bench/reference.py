"""The reference work the benchmark divides its timings by.

The benchmark's host is shared and its speed drifts: the same `exact` command
takes 0.5 s in one minute and 0.9 s in the next, with CPU time moving with
wall time, in phases that last longer than a run.  Interpreted Python slows
by up to 2x in those phases; numpy's compiled loops hardly slow at all.

So the benchmark runs fixed reference work before and after every measured
command, and after every set-up probe, and takes its time over the work's
nominal time as the host's slowdown at that moment.  A command's time divided
by the slowdown around it reads as seconds on a host running at the nominal
speed, and it repeats where the raw time does not.  The reference work is
half interpreted Python (a loop of tuples, float arithmetic and dict updates,
like the search's own) and half numpy (a dense solve and whole-array
arithmetic, like the embedding's): fqst's commands mix the two, and so slow
by less than the Python loop alone.  Over minutes of a drifting host, this
cut the spread of per-pass medians by about half against raw times.
"""

from __future__ import annotations

import math
import time

# Nominal seconds of each reference step: their time on a 2 GHz Xeon core in
# a quiet phase.  Only their ratio to the measured time matters.
PYTHON_SECONDS = 0.04
NUMPY_SECONDS = 0.04

_POINTS = [(i * 0.37 % 5.0, i * 0.91 % 5.0) for i in range(200)]


def python_seconds() -> float:
    """Wall seconds the Python reference loop takes now."""
    start = time.perf_counter()
    points, counts, total = _POINTS, {}, 0.0
    for i in range(60_000):
        x, y = points[i % 200]
        a, b = points[(i * 7) % 200]
        total += math.hypot(x - a, y - b)
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        if i % 3 == 0:
            total -= sum(p[0] for p in points[:5])
    return time.perf_counter() - start


def numpy_seconds() -> float:
    """Wall seconds the numpy reference step takes now: rounds of a dense
    300x300 solve and whole-array arithmetic, small enough (under 3 MB) not
    to move the measured process's peak memory."""
    import numpy

    start = time.perf_counter()
    for _ in range(14):
        matrix = numpy.linspace(0.0, 1.0, 300 * 300).reshape(300, 300) + 300.0 * numpy.eye(300)
        numpy.linalg.solve(matrix, matrix[:, 0])
        float((matrix * 1.5 + matrix.T).sum())
    return time.perf_counter() - start


def slowdown() -> float:
    """How many times slower than nominal the host runs the reference work
    now: the mean of the Python loop's and the numpy step's ratios."""
    return (python_seconds() / PYTHON_SECONDS + numpy_seconds() / NUMPY_SECONDS) / 2.0
