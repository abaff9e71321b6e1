"""Cycle-level simulation of the maintained system and its counting processes.

A cycle starts at a repair ("as good as new"), accumulates planned
inspections until the first one at or after the damage time, and ends
either at that inspection (detection) or at the failure instant, whichever
comes first.  Cycles are i.i.d., so repairs form a renewal process;
failures and inspections are the associated reward processes.

:func:`simulate_cycles` draws many cycles at once as arrays and is what the
horizon simulator and the Monte Carlo oracle run on; :func:`simulate_cycle`
draws one cycle with scalar calls and is kept as the reference the hand
traces pin.  Deterministic gaps put the k-th inspection at ``k * c`` (not
at a running sum of ``c``), with ``k = ceil(y_s / c)`` at detection, in
both.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .config import ModelConfig
from .laws import (
    DETERMINISTIC,
    InspectionLaw,
    sample_damage,
    sample_inspection_gap,
    sample_sane,
    sample_sane_many,
)

# Most cycles one draw of the batch engine holds in its working arrays;
# larger requests are drawn chunk after chunk from the same generator, and
# the horizon simulator draws blocks of this many cycles.
_CHUNK = 1 << 12


@dataclass(frozen=True)
class CycleRecord:
    """One renewal cycle, latent times included.

    ``inspections`` holds the planned schedule up to and including the
    first age at or after the damage time; on failure cycles the last
    entry never happens as a planned visit (the cycle ends earlier, at the
    unplanned inspection triggered by the failure) but the count charged
    to the cycle is the same either way: ``inspection_count``.
    """

    time_to_damage: float
    damage_to_failure: float
    inspections: tuple[float, ...]
    inspection_count: int
    detection_age: float
    failure_age: float
    length: float
    failed: bool


@dataclass(frozen=True)
class CountSnapshot:
    """Counts visible to an observer at time ``time``: repairs,
    inspections (planned plus unplanned), failures."""

    time: float
    repairs: int
    inspections: int
    failures: int


@dataclass(frozen=True)
class Trajectory:
    cycles: tuple[CycleRecord, ...]
    snapshots: tuple[CountSnapshot, ...]
    seed: Optional[int]
    config: ModelConfig

    @property
    def repair_epochs(self) -> tuple[float, ...]:
        total = 0.0
        out = []
        for cyc in self.cycles:
            total += cyc.length
            out.append(total)
        return tuple(out)

    @property
    def final_snapshot(self) -> CountSnapshot:
        return self.snapshots[-1]


def simulate_cycle(rng: np.random.Generator, config: ModelConfig) -> CycleRecord:
    """Draw one cycle: damage time, failure delay, and the inspection ages
    up to the first one at or after the damage."""
    y_s = sample_sane(rng, config.sane)
    y_d = sample_damage(rng, config.damage)
    law = config.inspection
    if law.kind == DETERMINISTIC:
        ages = [i * law.spacing for i in range(1, math.ceil(y_s / law.spacing) + 1)]
    else:
        ages = []
        age = 0.0
        while age < y_s:
            age += sample_inspection_gap(rng, law)
            ages.append(age)
    detection_age = ages[-1] if ages else 0.0
    failure_age = y_s + y_d
    # Ties (detection exactly at the failure instant) count as failures.
    failed = detection_age >= failure_age
    return CycleRecord(
        time_to_damage=y_s,
        damage_to_failure=y_d,
        inspections=tuple(ages),
        inspection_count=len(ages),
        detection_age=detection_age,
        failure_age=failure_age,
        length=failure_age if failed else detection_age,
        failed=failed,
    )


class CycleBatch(NamedTuple):
    """Cycles as parallel arrays, one entry per cycle, fields as in
    :class:`CycleRecord`.

    ``inspection_ages`` concatenates every cycle's planned schedule in
    cycle order, ``inspection_count`` entries per cycle; it is empty
    unless the batch was drawn with ``inspections=True``.
    """

    time_to_damage: np.ndarray
    damage_to_failure: np.ndarray
    inspection_count: np.ndarray
    detection_age: np.ndarray
    failure_age: np.ndarray
    length: np.ndarray
    failed: np.ndarray
    inspection_ages: np.ndarray

    def records(self, count: int) -> list[CycleRecord]:
        """The first ``count`` cycles as records, built as
        :func:`simulate_cycle` builds them; needs a batch drawn with
        ``inspections=True``."""
        counts = self.inspection_count[:count].tolist()
        total = sum(counts)
        if total > len(self.inspection_ages):
            raise ValueError("records need a batch drawn with inspections=True")
        ages = self.inspection_ages[:total].tolist()
        out = []
        pos = 0
        for y_s, y_d, k, z, f in zip(
            self.time_to_damage[:count].tolist(),
            self.damage_to_failure[:count].tolist(),
            counts,
            self.failure_age[:count].tolist(),
            self.failed[:count].tolist(),
        ):
            schedule = tuple(ages[pos:pos + k])
            pos += k
            v = schedule[-1] if schedule else 0.0
            out.append(CycleRecord(y_s, y_d, schedule, k, v, z, z if f else v, f))
        return out


def simulate_cycles(
    rng: np.random.Generator, config: ModelConfig, n: int, inspections: bool = False
) -> CycleBatch:
    """Draw ``n`` cycles as arrays, with the semantics of
    :func:`simulate_cycle` but not its draw order.

    Cycles come in chunks; within one, all damage times are drawn first,
    then all failure delays, then (uniform gaps) one gap per step for
    every cycle whose age is still short of its damage time.  Set
    ``inspections`` to keep every cycle's inspection ages.
    """
    if n < 0:
        raise ValueError(f"cycle count must be nonnegative, got {n}")
    if n <= _CHUNK:
        return _draw_chunk(rng, config, n, inspections)
    # per-cycle columns are filled in place, so the peak stays at the
    # result plus one chunk
    names = [name for name in CycleBatch._fields if name != "inspection_ages"]
    columns: dict[str, np.ndarray] = {}
    ages = []
    for start in range(0, n, _CHUNK):
        chunk = _draw_chunk(rng, config, min(_CHUNK, n - start), inspections)
        if not columns:
            columns = {name: np.empty(n, dtype=getattr(chunk, name).dtype) for name in names}
        for name in names:
            columns[name][start:start + _CHUNK] = getattr(chunk, name)
        ages.append(chunk.inspection_ages)
    return CycleBatch(**columns, inspection_ages=np.concatenate(ages))


def _draw_chunk(
    rng: np.random.Generator, config: ModelConfig, n: int, inspections: bool
) -> CycleBatch:
    y_s = sample_sane_many(rng, config.sane, n)
    y_d = rng.exponential(config.damage.mean, size=n)
    law = config.inspection
    if law.kind == DETERMINISTIC:
        k = np.ceil(y_s / law.spacing).astype(np.int64)
        detection = k * law.spacing
        ages = np.empty(0)
        if inspections:
            # the i-th inspection of every cycle sits at i * c
            first = np.cumsum(k) - k
            ages = (np.arange(k.sum()) - np.repeat(first, k) + 1) * law.spacing
    else:
        k, detection, ages = _uniform_schedule(rng, law, y_s, inspections)
    failure = y_s + y_d
    # Ties (detection exactly at the failure instant) count as failures.
    failed = detection >= failure
    return CycleBatch(
        y_s, y_d, k, detection, failure, np.where(failed, failure, detection), failed, ages
    )


def _uniform_schedule(
    rng: np.random.Generator, law: InspectionLaw, y_s: np.ndarray, inspections: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inspection counts, detection ages and (optionally) the flat
    inspection ages of cycles with uniform gaps."""
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
        done = age >= target
        k[idx[done]] = step
        detection[idx[done]] = age[done]
        idx, age, target = idx[~done], age[~done], target[~done]
    ages = np.empty(int(k.sum()) if inspections else 0)
    first = np.cumsum(k) - k
    for j, (where, values) in enumerate(steps):
        ages[first[where] + j] = values
    return k, detection, ages


def simulate_horizon(
    rng: np.random.Generator,
    config: ModelConfig,
    horizon: Optional[float] = None,
    grid: Optional[Iterable[float]] = None,
) -> Trajectory:
    """Simulate whole cycles until their cumulative length reaches the
    horizon.

    The final snapshot sits at the first cycle end at or beyond the
    horizon (so its time generally overshoots the requested horizon, and
    the overshooting cycle is included in the counts).  Additional
    snapshots are emitted at the requested grid times, which must not
    exceed the final snapshot time.
    """
    horizon = config.horizon if horizon is None else horizon
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    cycles = []
    end_snapshots = []
    total = 0.0
    repairs = inspections = failures = 0
    while total < horizon:
        batch = simulate_cycles(rng, config, _CHUNK, inspections=True)
        # running sums seeded with the carried totals, so every end time
        # is the same left-to-right sum that repair_epochs recomputes
        ends = np.cumsum(np.concatenate(([total], batch.length)))[1:]
        keep = min(int(np.searchsorted(ends, horizon)) + 1, _CHUNK)
        cycles.extend(batch.records(keep))
        insp = inspections + np.cumsum(batch.inspection_count[:keep])
        fail = failures + np.cumsum(batch.failed[:keep])
        end_snapshots.extend(
            map(CountSnapshot, ends[:keep].tolist(),
                range(repairs + 1, repairs + keep + 1), insp.tolist(), fail.tolist())
        )
        total = float(ends[keep - 1])
        repairs += keep
        inspections = int(insp[-1])
        failures = int(fail[-1])

    trajectory = Trajectory(
        cycles=tuple(cycles),
        snapshots=(),
        seed=config.seed,
        config=config,
    )
    grid_times = sorted(float(t) for t in grid) if grid is not None else []
    grid_snapshots = [counts_at(t, trajectory) for t in grid_times]
    # merge the two time-sorted runs, grid entries first among ties so the
    # final cycle end stays last
    snapshots = []
    gi = 0
    for snap in end_snapshots:
        while gi < len(grid_snapshots) and grid_snapshots[gi].time <= snap.time:
            snapshots.append(grid_snapshots[gi])
            gi += 1
        snapshots.append(snap)
    snapshots.extend(grid_snapshots[gi:])
    return Trajectory(
        cycles=trajectory.cycles,
        snapshots=tuple(snapshots),
        seed=config.seed,
        config=config,
    )


def _completed_before(t: float, epochs: Sequence[float]) -> int:
    # number of cycle ends at or before t
    return bisect.bisect_right(epochs, t)


def counts_at(t: float, trajectory: Trajectory) -> CountSnapshot:
    """Observer counts at an arbitrary time within the trajectory.

    Completed cycles contribute their full inspection charge; the open
    cycle contributes only the planned inspections already elapsed.  The
    unplanned inspection of a cycle that will end in failure is counted
    when the cycle completes, never before.
    """
    age, elapsed = age_and_index(t, trajectory)
    epochs = trajectory.repair_epochs
    done = _completed_before(t, epochs)
    inspections = sum(c.inspection_count for c in trajectory.cycles[:done]) + elapsed
    failures = sum(1 for c in trajectory.cycles[:done] if c.failed)
    return CountSnapshot(t, done, inspections, failures)


def age_and_index(t: float, trajectory: Trajectory) -> tuple[float, int]:
    """Age of the repair process at t and the number of planned
    inspections already elapsed in the open cycle."""
    epochs = trajectory.repair_epochs
    if t < 0.0 or t > epochs[-1]:
        raise ValueError(f"time {t} outside the simulated range [0, {epochs[-1]}]")
    done = _completed_before(t, epochs)
    last_epoch = epochs[done - 1] if done else 0.0
    age = t - last_epoch
    if done >= len(trajectory.cycles):
        return age, 0
    open_cycle = trajectory.cycles[done]
    elapsed = bisect.bisect_right(open_cycle.inspections, age)
    return age, elapsed


EVENT_LOG_HEADER = "cycle,y_s,y_d,k_r,v_s,z_d,x_r,end"
SNAPSHOT_HEADER = "t,n_r,n_i,n_f"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_event_log(path, cycles: Iterable[CycleRecord]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(EVENT_LOG_HEADER + "\n")
        for i, c in enumerate(cycles, start=1):
            end = "Failed" if c.failed else "Detected"
            fh.write(
                f"{i},{_fmt(c.time_to_damage)},{_fmt(c.damage_to_failure)},"
                f"{c.inspection_count},{_fmt(c.detection_age)},"
                f"{_fmt(c.failure_age)},{_fmt(c.length)},{end}\n"
            )


def write_snapshots(path, snapshots: Iterable[CountSnapshot]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SNAPSHOT_HEADER + "\n")
        for s in snapshots:
            fh.write(f"{_fmt(s.time)},{s.repairs},{s.inspections},{s.failures}\n")


def read_event_log(path) -> list[CycleRecord]:
    """Parse an event-log CSV back into cycle records.

    The planned-inspection ages inside each cycle are not serialized; they
    are rebuilt only to the extent the observables need (the estimators
    work from the gap law plus the logged count and ages).
    """
    cycles = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != EVENT_LOG_HEADER:
            raise ValueError(f"unexpected event-log header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            (_, y_s, y_d, k_r, v_s, z_d, x_r, end) = line.split(",")
            cycles.append(
                CycleRecord(
                    time_to_damage=float(y_s),
                    damage_to_failure=float(y_d),
                    inspections=(),
                    inspection_count=int(k_r),
                    detection_age=float(v_s),
                    failure_age=float(z_d),
                    length=float(x_r),
                    failed=end == "Failed",
                )
            )
    return cycles
