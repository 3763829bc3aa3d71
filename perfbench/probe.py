"""A fixed piece of work that measures how fast the machine is right now.

On a shared host the speed of one core drifts by up to 2x over minutes
(identical floodgate replicates took 0.77 to 1.47 s within three
minutes), which swamps any change a program makes. The benchmark runs
this probe before and after every operation and scales the operation's
wall time by ``REFERENCE_S / probe``: the time the operation would have
taken at the probe's reference speed. The probe mixes the costs that
dominate floodgate: interpreted Python loops, element-wise numpy passes
over arrays larger than the L2 cache, and a small matrix product. It does not
call floodgate, so no change to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the machine that defined the benchmark (2-core
# Intel Xeon VM, Python 3.11, numpy 2.4, OpenBLAS pinned to one thread).
REFERENCE_S = 0.055


def _python_loop(n: int) -> float:
    total = 0.0
    for i in range(n):
        total += (i % 13) * 0.5 - total * 1e-9
    return total


def _kernel() -> float:
    start = time.perf_counter()
    _python_loop(250_000)
    # Kept small: the probe runs inside the study worker, whose peak RSS
    # is a metric.
    a = np.arange(100_000, dtype=float)
    for _ in range(60):
        a = np.tanh(a * 1e-6) + a
    m = np.ones((200, 200)) / 200.0
    for _ in range(6):
        m = m @ m
    return time.perf_counter() - start


def probe() -> float:
    """Seconds of the fixed probe work: the fastest of three repeats, so
    a single interrupt does not count as a slow machine."""
    return min(_kernel() for _ in range(3))
