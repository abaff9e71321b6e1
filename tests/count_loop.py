"""Observer counts by one schedule search per time: an independent reference.

``cbmkit.simulator.counts_at_times`` counts the open cycles' elapsed
inspections for every time in one vectorised pass.  The function here is
the per-time loop it replaced: one ``searchsorted`` of the open cycle's
own schedule for each time, ``c * np.arange(1, k + 1)`` on deterministic
gaps of spacing ``c`` and the stored ages otherwise.  Both read the same
running totals, so they must give the same snapshots.
"""

from typing import Sequence

import numpy as np

from cbmkit.simulator import CountSnapshot, CycleBatch


def loop_counts_at_times(times: Sequence[float], cycles: CycleBatch) -> list:
    totals = cycles.totals
    at = np.asarray(times, dtype=float)
    done = np.searchsorted(totals.time, at, side="right") - 1
    offsets = totals.inspections
    inspections = offsets[done].tolist()
    for k in np.flatnonzero(done < len(cycles)).tolist():
        d = done[k]
        if cycles.spacing:
            schedule = cycles.spacing * np.arange(1, offsets[d + 1] - offsets[d] + 1)
        else:
            schedule = cycles.inspection_ages[offsets[d]:offsets[d + 1]]
        inspections[k] += int(np.searchsorted(schedule, at[k] - totals.time[d], side="right"))
    return [
        CountSnapshot(t, n_r, n_i, n_f)
        for t, n_r, n_i, n_f in zip(times, done.tolist(), inspections,
                                    totals.failures[done].tolist())
    ]
