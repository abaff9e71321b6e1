"""The host-speed reference that scales every timed latency.

The shared host that defined the benchmark drifts in speed by 20-30%
within seconds to minutes, in CPU time as much as in wall time.  A fixed
task of the kind cbmkit spends its time on slows with it, so a latency
scaled by ``REFERENCE_S`` over the reference time measured around it is
the latency at the reference machine's speed.
"""

import gc
import math
import time

import numpy as np

# Typical time of reference_s() on the machine that defined the benchmark
# (2 shared cores, Python 3.11, numpy 2.4); it ranged 0.06-0.11 s there.
REFERENCE_S = 0.085


def reference_s() -> float:
    """Time a fixed mix of Python arithmetic, scalar numpy draws and a
    list sort."""
    gc.collect()
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    acc = 0.0
    draws = []
    for i in range(60_000):
        x = rng.exponential(1.0)
        acc += x * (i % 7) + math.sqrt(i)
        draws.append(x)
    draws.sort()
    return time.perf_counter() - start
