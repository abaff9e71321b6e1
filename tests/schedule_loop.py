"""Uniform-gap schedules by boolean masks: an independent reference.

``cbmkit.simulator._uniform_schedule`` carries its live cycles by integer
index, filters them by integer takes, and lets the first step skip the
index when no damage time is 0.  The function here is the loop it
replaced: every step filters the live cycles' indices, ages and targets
with one boolean mask.  Both make the same ``rng.uniform`` calls in the
same order and add each age left to right, so they must give the same
counts, detection ages, stored ages and generator state, to the bit.
"""

import numpy as np


def mask_uniform_schedule(rng, law, y_s, inspections):
    lo, hi = law.spacing - law.half_width, law.spacing + law.half_width
    k = np.zeros(len(y_s), dtype=np.int64)
    detection = np.zeros(len(y_s))
    steps = []
    # the cycles still short of their damage time, their ages and targets
    idx = np.flatnonzero(y_s > 0.0)
    age, target = np.zeros(idx.size), y_s[idx]
    step = 0
    while idx.size:
        step += 1
        age = age + rng.uniform(lo, hi, size=idx.size)
        if inspections:
            steps.append((idx, age))
        # every live cycle takes this step; the last write is its own
        k[idx] = step
        detection[idx] = age
        live = age < target
        idx, age, target = idx[live], age[live], target[live]
    ages = np.empty(int(k.sum()) if inspections else 0)
    first = np.cumsum(k) - k
    for j, (where, values) in enumerate(steps):
        ages[first[where] + j] = values
    return k, detection, ages
