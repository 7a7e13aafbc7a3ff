"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host, other tenants slow the machine for seconds to minutes at
a time, by up to half on a 2-vCPU 2.1 GHz Xeon VM, without taking CPU time
away: CPU time and wall time stay equal, so the slowdown is inside the core. Timing this
kernel next to each measurement gives the machine's current speed, and
multiplying a time by it gives the time the work would take at nominal
speed.
The kernel mixes the engine's kinds of work: numpy draws and reductions on
1000-element arrays, small dense solves, and a scalar Python loop like the
continued fractions of the distribution tails. It never changes with the
engine, so a change to the engine moves the normalized figures and a change
of machine speed does not.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import numpy as np

# The kernel's time at nominal speed: the fastest seen on an undisturbed
# 2.1 GHz Xeon vCPU. It only sets the scale of normalized figures.
NOMINAL_S = 0.012
_ITERATIONS = 200


def _kernel() -> float:
    rng = np.random.default_rng(20231018)
    acc = 0.0
    for _ in range(_ITERATIONS):
        x = rng.standard_normal(1000)
        design = np.column_stack([np.ones(8), rng.integers(0, 2, (8, 3))])
        hess = design.T @ design + np.eye(4)
        acc += float(np.linalg.solve(hess, design.T @ x[:8]).sum()) + float(x.mean()) + float(x.var())
        f = 1.0
        for k in range(1, 200):
            f = 1.0 + k * 0.5 / (f + 1e-300)
        acc += math.log(f)
    return acc


def speed() -> float:
    """The machine's current speed as a share of nominal: 1.0 undisturbed,
    0.5 when everything takes twice as long."""
    start = time.perf_counter()
    _kernel()
    return NOMINAL_S / (time.perf_counter() - start)


def speed_all_cpus() -> float:
    """The mean speed over the CPUs this process may run on, timing the
    kernel pinned to each in turn: the speed of work spread over all of
    them, which other tenants can slow by different amounts."""
    allowed = os.sched_getaffinity(0)
    try:
        speeds = []
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            speeds.append(speed())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(speeds)

