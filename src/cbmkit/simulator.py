"""Cycle-level simulation of the maintained system and its counting processes.

A cycle starts at a repair ("as good as new"), accumulates planned
inspections until the first one at or after the damage time, and ends
either at that inspection (detection) or at the failure instant, whichever
comes first.  Cycles are i.i.d., so repairs form a renewal process;
failures and inspections are the associated reward processes.

Cycles are held as columns: a :class:`CycleBatch` has one array per cycle
field plus the flat planned-inspection ages.  :func:`simulate_cycles`
draws one, :func:`simulate_horizon` joins its blocks into one, and
:func:`read_event_log` parses a log into one (without the ages, which logs
do not carry).  The running totals of cycle time, inspections and failures
are built once per batch, adding left to right; :func:`snapshot_rows`,
:func:`counts_at` and the likelihood's total time all read them.
:func:`simulate_cycle` draws one cycle with scalar calls and is kept as
the reference the hand traces pin; a batch yields the same
:class:`CycleRecord` rows on iteration or indexing.  Deterministic gaps
put the k-th inspection at ``k * c`` (not at a running sum of ``c``), with
``k = ceil(y_s / c)`` at detection, in both.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

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


def _running_sums(values: np.ndarray, start: float = 0) -> np.ndarray:
    """``start`` followed by its running sums with ``values``.

    Cycle times are always totalled this way, left to right: the end
    times, the counts of an event log and the likelihood's total time are
    all these sums, so they agree to the bit (numpy's pairwise ``np.sum``
    would not).
    """
    return np.cumsum(np.concatenate(([start], values)))


class _Totals(NamedTuple):
    """Running totals over a batch's cycles: at index i, the time, the
    inspections charged and the failures of the first i cycles."""

    time: np.ndarray
    inspections: np.ndarray
    failures: np.ndarray


@dataclass(frozen=True, eq=False)
class CycleBatch:
    """Cycles as parallel arrays, one entry per cycle, fields as in
    :class:`CycleRecord`.

    ``inspection_ages`` concatenates every cycle's planned schedule in
    cycle order, ``inspection_count`` entries per cycle; it is empty
    unless the batch was drawn with ``inspections=True``.  ``len()`` is
    the number of cycles; iteration and integer indexing yield
    :class:`CycleRecord` rows (with empty schedules when the batch has no
    ages).
    """

    time_to_damage: np.ndarray
    damage_to_failure: np.ndarray
    inspection_count: np.ndarray
    detection_age: np.ndarray
    failure_age: np.ndarray
    length: np.ndarray
    failed: np.ndarray
    inspection_ages: np.ndarray

    @cached_property
    def totals(self) -> _Totals:
        # the inspection totals double as each cycle's offset into the ages
        return _Totals(
            _running_sums(self.length),
            _running_sums(self.inspection_count),
            _running_sums(self.failed),
        )

    def counts(self) -> CountSnapshot:
        """Counts at the end of the last cycle."""
        totals = self.totals
        return CountSnapshot(
            float(totals.time[-1]), len(self),
            int(totals.inspections[-1]), int(totals.failures[-1]),
        )

    def head(self, count: int) -> CycleBatch:
        """The first ``count`` cycles."""
        ages = int(self.totals.inspections[count]) if self.inspection_ages.size else 0
        return CycleBatch(
            *(getattr(self, name)[:count] for name in _PER_CYCLE),
            self.inspection_ages[:ages],
        )

    def __len__(self) -> int:
        return len(self.length)

    def __iter__(self) -> Iterator[CycleRecord]:
        return self._rows(0, len(self))

    def __getitem__(self, i: int) -> CycleRecord:
        i = range(len(self))[i]
        return next(self._rows(i, i + 1))

    def _rows(self, lo: int, hi: int) -> Iterator[CycleRecord]:
        offsets = self.totals.inspections[lo:hi + 1].tolist()
        base = offsets[0]
        ages = self.inspection_ages[base:offsets[-1]].tolist()
        columns = zip(*(getattr(self, name)[lo:hi].tolist() for name in _PER_CYCLE))
        for (y_s, y_d, k, v, z, x, f), a, b in zip(columns, offsets, offsets[1:]):
            yield CycleRecord(y_s, y_d, tuple(ages[a - base:b - base]), k, v, z, x, f)


_PER_CYCLE = tuple(f.name for f in fields(CycleBatch) if f.name != "inspection_ages")


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
    columns: dict[str, np.ndarray] = {}
    ages = []
    for start in range(0, n, _CHUNK):
        chunk = _draw_chunk(rng, config, min(_CHUNK, n - start), inspections)
        if not columns:
            columns = {name: np.empty(n, dtype=getattr(chunk, name).dtype) for name in _PER_CYCLE}
        for name in _PER_CYCLE:
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
    rng: np.random.Generator, config: ModelConfig, horizon: Optional[float] = None
) -> CycleBatch:
    """Simulate whole cycles until their cumulative length reaches the
    horizon, as one batch with every cycle's inspection ages.

    The last cycle is the first to end at or beyond the horizon, so the
    batch's total time generally overshoots the requested horizon and the
    overshooting cycle is included in the counts.
    """
    horizon = config.horizon if horizon is None else horizon
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    blocks = []
    total = 0.0
    while total < horizon:
        batch = simulate_cycles(rng, config, _CHUNK, inspections=True)
        ends = _running_sums(batch.length, total)
        keep = min(int(np.searchsorted(ends[1:], horizon)) + 1, _CHUNK)
        blocks.append(batch.head(keep))
        total = float(ends[keep])
    return CycleBatch(
        *(np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(CycleBatch))
    )


def counts_at(t: float, cycles: CycleBatch) -> CountSnapshot:
    """Observer counts at a time within the batch's span.

    Completed cycles contribute their full inspection charge; the open
    cycle contributes only the planned inspections already elapsed (one
    planned at exactly ``t`` included).  The unplanned inspection of a
    cycle that will end in failure is counted when the cycle completes,
    never before.
    """
    (snapshot,) = counts_at_times([t], cycles)
    return snapshot


def counts_at_times(times: Sequence[float], cycles: CycleBatch) -> list[CountSnapshot]:
    """:func:`counts_at` at every time, from one search of the running
    totals; a time outside the batch's span raises for the first such."""
    totals = cycles.totals
    end = float(totals.time[-1])
    at = np.asarray(times, dtype=float)
    outside = (at < 0.0) | (at > end)
    if outside.any():
        raise ValueError(f"time {times[int(np.argmax(outside))]} outside the simulated range [0, {end}]")
    # cycles ended at or before t; the open one started at totals.time[done]
    done = np.searchsorted(totals.time, at, side="right") - 1
    offsets = totals.inspections
    inspections = offsets[done].tolist()
    for k in np.flatnonzero(done < len(cycles)).tolist():
        d = done[k]
        schedule = cycles.inspection_ages[offsets[d]:offsets[d + 1]]
        inspections[k] += int(np.searchsorted(schedule, at[k] - totals.time[d], side="right"))
    return [
        CountSnapshot(t, n_r, n_i, n_f)
        for t, n_r, n_i, n_f in zip(times, done.tolist(), inspections, totals.failures[done].tolist())
    ]


def snapshot_rows(
    cycles: CycleBatch, grid: Iterable[float] = ()
) -> Iterator[tuple[float, int, int, int]]:
    """The counts at every cycle end and at each grid time as
    ``(t, n_r, n_i, n_f)``, in time order, read from the running totals; a
    grid row at a cycle end's time comes first (and equals it)."""
    totals = cycles.totals
    ends = zip(
        totals.time[1:].tolist(), range(1, len(cycles) + 1),
        totals.inspections[1:].tolist(), totals.failures[1:].tolist(),
    )
    at_grid = [astuple(s) for s in counts_at_times(sorted(map(float, grid)), cycles)]
    return heapq.merge(at_grid, ends, key=itemgetter(0))


EVENT_LOG_HEADER = "cycle,y_s,y_d,k_r,v_s,z_d,x_r,end"
SNAPSHOT_HEADER = "t,n_r,n_i,n_f"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_event_log(path, cycles: CycleBatch) -> None:
    rows = zip(*(getattr(cycles, name).tolist() for name in _PER_CYCLE))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(EVENT_LOG_HEADER + "\n")
        for i, (y_s, y_d, k, v, z, x, failed) in enumerate(rows, start=1):
            end = "Failed" if failed else "Detected"
            fh.write(f"{i},{_fmt(y_s)},{_fmt(y_d)},{k},{_fmt(v)},{_fmt(z)},{_fmt(x)},{end}\n")


def write_snapshots(path, rows: Iterable[tuple[float, int, int, int]]) -> None:
    """Write ``(t, n_r, n_i, n_f)`` rows, such as :func:`snapshot_rows`'s,
    as the snapshot CSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SNAPSHOT_HEADER + "\n")
        for t, n_r, n_i, n_f in rows:
            fh.write(f"{_fmt(t)},{n_r},{n_i},{n_f}\n")


# one event-log row as read: the numeric fields, then whether it failed
_LOG_ROW = np.dtype([
    ("y_s", float), ("y_d", float), ("k_r", np.int64), ("v_s", float), ("z_d", float),
    ("x_r", float), ("failed", bool),
])
_TIMES = ("y_s", "y_d", "v_s", "z_d", "x_r")

# the same row as np.loadtxt reads it: the cycle index as text, unchecked
# like the row parser does, and the end one character wider than
# "Detected", so that no longer end can truncate to a valid one
_LOG_TEXT = np.dtype(
    [("cycle", "U1")] + [(name, _LOG_ROW[name]) for name in _LOG_ROW.names[:-1]]
    + [("end", "U9")]
)
# the bytes of a plain log besides CR, which must come before LF
_PLAIN_BYTES = bytes(range(32, 127)) + b"\t\n"
_BLOCK = 1 << 16


def read_event_log(path) -> CycleBatch:
    """Parse an event-log CSV into a :class:`CycleBatch`.

    Rows are parsed into one table with a column per field, from which the
    batch takes its columns.  Logs do not serialize the planned-inspection
    ages, so the batch has none (the censored likelihood rebuilds them from
    a deterministic gap law).  A wrong header, a row without eight fields,
    an end other than Failed/Detected, a field that does not parse, a time
    that is not finite and nonnegative or a count ``k_r`` outside
    [1, 2**63) raises ValueError naming the first offending line.

    A plain log is read in one ``np.loadtxt`` pass and checked column by
    column; any other log, and any log that pass or its checks reject, is
    read again row by row (:func:`_read_rows`), which gives the same values
    or the error.
    """
    table = _read_plain_log(path)
    if table is None:
        return _read_rows(path)
    # copied out of the table, so the batch does not keep its text columns
    columns = [np.ascontiguousarray(table[name]) for name in _LOG_ROW.names[:-1]]
    return CycleBatch(*columns, table["end"] == "Failed", np.empty(0))


def _read_rows(path) -> CycleBatch:
    """The log parsed row by row by :func:`_parse_row`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != EVENT_LOG_HEADER:
            raise ValueError(f"unexpected event-log header {header!r}")
        rows = (
            _parse_row(lineno, line)
            for lineno, line in enumerate(map(str.strip, fh), start=2)
            if line
        )
        table = np.fromiter(rows, _LOG_ROW)
    return CycleBatch(*(table[name] for name in _LOG_ROW.names), np.empty(0))


def _read_plain_log(path) -> Optional[np.ndarray]:
    """The log as one :data:`_LOG_TEXT` table, or None when the row parser
    must read it.

    Plain means printable ASCII, tabs and LF or CRLF line ends only, the
    header, and rows that ``np.loadtxt`` parses and that pass every check.
    On other bytes numpy's parser and Python's ``float``/``int`` disagree:
    numpy reads an end padded with NUL as the end, skips the separators
    0x1c-0x1f around a number, and takes some non-ASCII letters for digits.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # in blocks: translate allocates its whole input's size up front
    others = b"".join(
        raw[i:i + _BLOCK].translate(None, _PLAIN_BYTES) for i in range(0, len(raw), _BLOCK)
    )
    if others.strip(b"\r") or (others and raw.count(b"\r") != raw.count(b"\r\n")):
        return None
    header_end = raw.find(b"\n")
    if header_end < 0 or raw[:header_end].strip() != EVENT_LOG_HEADER.encode():
        return None
    del raw
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        fh.readline()
        try:
            table = np.loadtxt(fh, dtype=_LOG_TEXT, delimiter=",", comments=None, ndmin=1)
        except (ValueError, OverflowError, Warning):
            return None
    end = table["end"]
    if not (
        ((end == "Failed") | (end == "Detected")).all()
        and (table["k_r"] >= 1).all()
        and all(((table[name] >= 0.0) & (table[name] < math.inf)).all() for name in _TIMES)
    ):
        return None
    return table


def _parse_row(lineno: int, line: str) -> tuple:
    """One event-log row as a :data:`_LOG_ROW` record; raises the
    ValueError that names the line and what is wrong with it."""
    fields = line.split(",")
    if len(fields) != 8:
        raise ValueError(f"line {lineno}: expected 8 fields, got {len(fields)}")
    (_, y_s, y_d, k_r, v_s, z_d, x_r, end) = fields
    if end != "Failed" and end != "Detected":
        raise ValueError(f"line {lineno}: end {end!r} is neither Failed nor Detected")
    try:
        values = (float(y_s), float(y_d), int(k_r), float(v_s), float(z_d), float(x_r))
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    for name, value in zip(_LOG_ROW.names, values):
        if name == "k_r":
            if not 1 <= value < 2**63:
                raise ValueError(
                    f"line {lineno}: k_r must be at least 1 and below 2**63, got {value}"
                )
        elif not 0.0 <= value < math.inf:
            raise ValueError(f"line {lineno}: {name} must be finite and nonnegative, got {value}")
    return (*values, end == "Failed")
