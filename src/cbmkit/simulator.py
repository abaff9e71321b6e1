"""Cycle-level simulation of the maintained system and its counting processes.

A cycle starts at a repair ("as good as new"), accumulates planned
inspections until the first one at or after the damage time, and ends
either at that inspection (detection) or at the failure instant, whichever
comes first.  Cycles are i.i.d., so repairs form a renewal process;
failures and inspections are the associated reward processes.

Cycles are held as columns: a :class:`CycleBatch` has one array per cycle
field, plus the deterministic spacing (no ages: the i-th inspection is at
``i * c``) or the flat planned-inspection ages.  :func:`cycle_chunks` is the
one draw loop, yielding chunks of 4096 (endless without a count): the
oracle reads them one by one, without uniform gaps' ages, and
:func:`horizon_blocks` streams them, with those ages, up to the first
cycle end at or past the horizon (:func:`simulate_horizon` joins that
stream); :func:`read_event_log` parses a log into one batch (without the
ages, which logs do not carry).  The running totals of cycle time,
inspections and failures are built once per batch, adding left to right,
and carried from block to block along a stream, so a stream's totals are
its join's to the bit; :func:`counts_at_times`, :func:`csv_blocks` (the
event log and the snapshot CSV, in one pass) and the likelihood's total
time all read them, from a batch or block by block from a stream.
:func:`simulate_cycle` draws one cycle with scalar calls and is kept as
the reference the hand traces pin; a batch yields the same
:class:`CycleRecord` rows on iteration.  Deterministic gaps put the k-th
inspection at ``k * c`` (not at a running sum of ``c``), and
:func:`_schedule_index` is the one place that finds an index on those
ages: the detection's and the counts' alike.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import astuple, dataclass, fields
from functools import cached_property
from itertools import accumulate, chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .config import INEXACT, MAX_COUNT, ConfigError, ModelConfig, check_counts, check_horizon
from .laws import (
    DETERMINISTIC,
    InspectionLaw,
    sample_damage,
    sample_inspection_gap,
    sample_sane,
    sample_sane_many,
)

# Most cycles one draw of the batch engine holds in its working arrays:
# cycle_chunks draws every stream chunk after chunk of this many cycles.
_CHUNK = 1 << 12
# Rows a batch converts to Python values at once when it is iterated.
_ROWS = 1 << 12


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
    would not).  A sum past the float range is inf, without a warning:
    the one overflow policy of cycle-time totals, which the estimators
    refuse as an elapsed time that is not finite.
    """
    sums = np.concatenate(([start], values))
    with np.errstate(over="ignore"):
        return np.cumsum(sums, out=sums)


def _schedule_index(t, c: float, detection: bool = False):
    """An index on the deterministic schedule of spacing ``c``, whose i-th
    age is the float product ``i * c``: the largest i with ``i * c <= t``
    (the inspections elapsed by age ``t``) or, for the ``detection`` of a
    damage at age ``t``, the smallest k >= 0 with ``k * c >= t`` (so
    ``t = 0`` gives 0); as floats, elementwise.

    The ceiling or floor of the rounded quotient ``t / c`` is one step off
    where ``t`` lies within a few ulps of an age; the nearest integer m to
    it is not off by more than the one step between m and the index, and
    the product ``m * c`` against ``t`` tells which side that step is on.
    """
    k = np.rint(np.asarray(t, dtype=float) / c)
    if detection:
        k += k * c < t
    else:
        k -= k * c > t
    return k


class _Totals(NamedTuple):
    """Running totals over a batch's cycles: at index i, the time, the
    inspections charged and the failures of the first i cycles, added to
    those of the cycles before the batch."""

    time: np.ndarray
    inspections: np.ndarray
    failures: np.ndarray


def _totals(cycles: CycleBatch, start: Iterable = (0, 0, 0)) -> _Totals:
    """The running totals of ``cycles``, carried on from ``start``, the
    totals of the cycles before them.  An inspection total at or past
    :data:`config.MAX_COUNT` raises ConfigError: it is not exact, and int64
    would wrap it."""
    columns = (cycles.length, cycles.inspection_count, cycles.failed)
    totals = _Totals(*map(_running_sums, columns, start))
    # each count and the start are below the bound, so the totals pass it
    # before they could wrap, and the largest one tells
    inspections = totals.inspections
    if inspections.max() >= MAX_COUNT:
        first = inspections[np.argmax(inspections >= MAX_COUNT)]
        raise ConfigError(f"an inspection total reaches {first}: {INEXACT}")
    return totals


@dataclass(frozen=True, eq=False)
class CycleBatch:
    """Cycles as parallel arrays, one entry per cycle, fields as in
    :class:`CycleRecord`.

    A deterministic draw stores no ages: a cycle's i-th planned inspection
    is at ``i * spacing``.  Elsewhere ``spacing`` is 0.0, and
    ``inspection_ages`` concatenates every cycle's schedule in cycle order,
    ``inspection_count`` entries per cycle (uniform draws), or is empty
    (parsed logs).  ``len()`` is the number of cycles; the batch yields its
    :class:`CycleRecord` rows by iteration only (with empty schedules when
    the batch carries neither).
    """

    time_to_damage: np.ndarray
    damage_to_failure: np.ndarray
    inspection_count: np.ndarray
    detection_age: np.ndarray
    failure_age: np.ndarray
    length: np.ndarray
    failed: np.ndarray
    inspection_ages: np.ndarray
    spacing: float = 0.0

    @cached_property
    def totals(self) -> _Totals:
        # the inspection totals double as each cycle's offset into the ages
        return _totals(self)

    def counts(self) -> CountSnapshot:
        """Counts at the end of the last cycle, from the one search of
        :func:`counts_at_times`."""
        return counts_at_times([float(self.totals.time[-1])], self)[0]

    def head(self, count: int) -> CycleBatch:
        """The first ``count`` cycles, without building the running totals."""
        ages = int(self.inspection_count[:count].sum()) if self.inspection_ages.size else 0
        return CycleBatch(
            *(getattr(self, name)[:count] for name in _PER_CYCLE),
            self.inspection_ages[:ages], self.spacing,
        )

    def __len__(self) -> int:
        return len(self.length)

    def __iter__(self) -> Iterator[CycleRecord]:
        # in Python values a slice of rows at a time, so that the rows stream
        c, first = self.spacing, 0
        for start in range(0, len(self), _ROWS):
            columns = [getattr(self, name)[start:start + _ROWS].tolist() for name in _PER_CYCLE]
            offsets = list(accumulate(columns[2], initial=0))
            ages = self.inspection_ages[first:first + offsets[-1]].tolist()
            first += offsets[-1]
            for (y_s, y_d, k, v, z, x, f), a, b in zip(zip(*columns), offsets, offsets[1:]):
                schedule = tuple(i * c for i in range(1, k + 1)) if c else tuple(ages[a:b])
                yield CycleRecord(y_s, y_d, schedule, k, v, z, x, f)


_PER_CYCLE = tuple(f.name for f in fields(CycleBatch))[:-2]  # all but inspection_ages, spacing


def simulate_cycle(rng: np.random.Generator, config: ModelConfig) -> CycleRecord:
    """Draw one cycle: damage time, failure delay, and the inspection ages
    up to the first one at or after the damage."""
    y_s = sample_sane(rng, config.sane)
    y_d = sample_damage(rng, config.damage)
    law = config.inspection
    if law.kind == DETERMINISTIC:
        k = int(_schedule_index(y_s, law.spacing, detection=True))
        ages = [i * law.spacing for i in range(1, k + 1)]
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


def cycle_chunks(
    rng: np.random.Generator, config: ModelConfig, n: Optional[int] = None,
    inspections: bool = False,
) -> Iterator[CycleBatch]:
    """Cycles drawn and yielded one chunk of at most 4096 at a time: the
    one draw loop, so the one place that fixes their draw order.  ``n``
    cycles in all (``n = 0`` yields one empty chunk), or, without ``n``,
    full chunks without end until the consumer stops.  Within a chunk all
    damage times are drawn first, then all failure delays, then (uniform
    gaps) one gap per step for every cycle whose age is still short of its
    damage time; ``inspections`` keeps uniform gaps' ages, which the
    oracle does not read and :func:`horizon_blocks` counts grid times with.
    A config predicted to need :data:`config.MAX_COUNT` or more inspections
    a cycle raises ConfigError before the first draw
    (:func:`config.check_counts`)."""
    left = math.inf if n is None else n
    if left < 0:
        raise ValueError(f"cycle count must be nonnegative, got {n}")
    check_counts(config)
    while True:
        yield _draw_chunk(rng, config, min(_CHUNK, left), inspections)
        left -= _CHUNK
        if left <= 0:
            return


def _join(batches: Sequence[CycleBatch]) -> CycleBatch:
    """One batch of the given batches' cycles, in order."""
    return CycleBatch(
        *(np.concatenate([getattr(b, f.name) for b in batches]) for f in fields(CycleBatch)[:-1]),
        batches[0].spacing,
    )


def _draw_chunk(
    rng: np.random.Generator, config: ModelConfig, n: int, inspections: bool
) -> CycleBatch:
    y_s = sample_sane_many(rng, config.sane, n)
    y_d = rng.exponential(config.damage.mean, size=n)
    law = config.inspection
    if law.kind == DETERMINISTIC:
        k = _schedule_index(y_s, law.spacing, detection=True)
        if (k >= MAX_COUNT).any():
            raise ConfigError(f"a cycle needs {float(k.max())!r} inspections at spacing "
                              f"{law.spacing!r}: {INEXACT}")
        k, detection = k.astype(np.int64), k * law.spacing
        ages, spacing = np.empty(0), law.spacing
    else:
        k, detection, ages = _uniform_schedule(rng, law, y_s, inspections)
        spacing = 0.0
    failure = y_s + y_d
    # Ties (detection exactly at the failure instant) count as failures.
    failed = detection >= failure
    return CycleBatch(y_s, y_d, k, detection, failure, np.where(failed, failure, detection),
                      failed, ages, spacing)


def _uniform_schedule(
    rng: np.random.Generator, law: InspectionLaw, y_s: np.ndarray, inspections: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inspection counts, detection ages and (optionally) the flat
    inspection ages of cycles with uniform gaps.

    The draw order: step s draws one gap for each cycle still short of its
    damage time (age below it), in cycle order, with one ``rng.uniform``
    call of that many gaps, and each age adds its gaps left to right.
    ``tests/schedule_loop.py`` pins this order to the bit, so a change to
    it is a draw-order change.  The live cycles are carried by integer
    index: at 4096 cycles, a third live, a boolean-mask compress costs
    about 9 us per array, one ``flatnonzero`` 4.3 us and an integer take
    1.4 us (2 shared cores, Python 3.11, numpy 2.4).
    """
    lo, hi = law.spacing - law.half_width, law.spacing + law.half_width
    n = len(y_s)
    if n and y_s.min() > 0.0:
        # every cycle takes the first step, so it needs no index
        age = rng.uniform(lo, hi, size=n)
        k, detection, step = np.ones(n, dtype=np.int64), age.copy(), 1
        steps = [(slice(None), age)] if inspections else []
        idx = np.flatnonzero(age < y_s)
        age = age[idx]
    else:
        k, detection, step, steps = np.zeros(n, dtype=np.int64), np.zeros(n), 0, []
        idx = np.flatnonzero(y_s > 0.0)
        age = np.zeros(idx.size)
    # the cycles still short of their damage time, their ages and targets
    target = y_s[idx]
    while idx.size:
        step += 1
        age += rng.uniform(lo, hi, size=idx.size)  # age is a fresh copy each step
        if inspections:
            steps.append((idx, age))
        # every live cycle takes this step; the last write is its own
        k[idx] = step
        detection[idx] = age
        live = np.flatnonzero(age < target)
        idx, age, target = idx[live], age[live], target[live]
    if not inspections:
        return k, detection, np.empty(0)
    ages = np.empty(int(k.sum()))
    first = np.cumsum(k) - k
    for j, (where, values) in enumerate(steps):
        ages[first[where] + j] = values
    return k, detection, ages


def horizon_blocks(rng: np.random.Generator, config: ModelConfig) -> Iterator[CycleBatch]:
    """Whole cycles until their cumulative length reaches the config's
    horizon, as a stream of blocks: uniform ones with every cycle's ages.

    The blocks are the chunks of :func:`cycle_chunks`, the last one cut
    after the first cycle to end at or beyond the horizon, so the total
    time generally overshoots the horizon and that cycle is included in
    the counts.  A horizon predicted to need more cycles than
    :data:`config.MAX_CYCLES` raises ConfigError here, before the first
    draw (:func:`config.check_horizon`).
    """
    check_horizon(config)
    return _cut(cycle_chunks(rng, config, inspections=True), config.horizon)


def _cut(chunks: Iterator[CycleBatch], horizon: float) -> Iterator[CycleBatch]:
    """The chunks up to the one that carries the running end to the
    horizon, cut after the cycle that reaches it."""
    end = 0.0
    while end < horizon:
        block = next(chunks)
        ends = _running_sums(block.length, end)
        keep = min(int(np.searchsorted(ends, horizon)), len(block))
        yield block.head(keep)
        end = ends[keep]


def simulate_horizon(rng: np.random.Generator, config: ModelConfig) -> CycleBatch:
    """The cycles of :func:`horizon_blocks` joined into one batch."""
    return _join(list(horizon_blocks(rng, config)))


def _carried(
    cycles: CycleBatch | Iterable[CycleBatch],
) -> Iterator[tuple[CycleBatch, _Totals, int]]:
    """Each block of a batch (one block) or of a stream of blocks, read in
    order, with its running totals carried on from the blocks before it
    and the number of cycles before it."""
    start, repairs = None, 0
    for block in (cycles,) if isinstance(cycles, CycleBatch) else cycles:
        totals = block.totals if start is None else _totals(block, start)
        yield block, totals, repairs
        start, repairs = [column[-1] for column in totals], repairs + len(block)


def _counts(
    times: Sequence[float], cycles: CycleBatch | Iterable[CycleBatch],
) -> Iterator[tuple[CycleBatch, _Totals, int, np.ndarray, list[CountSnapshot]]]:
    """Each block as :func:`_carried` gives it, with the indices of the
    ``times`` counted in it (those within its span that no block before it
    took) and their counts: the one counting routine.  The first time (in
    the given order) that no block takes raises after the last block."""
    at = np.asarray(times, dtype=float)
    pending, end = np.arange(at.size), 0.0
    for block, totals, repairs in _carried(cycles):
        end = float(totals.time[-1])
        mine = (at[pending] >= 0.0) & (at[pending] <= end)
        here, pending = pending[mine], pending[~mine]
        # cycles ended at or before t; the open one started at totals.time[done]
        done = np.searchsorted(totals.time, at[here], side="right") - 1
        offsets = totals.inspections
        inspections = offsets[done]
        open_ = np.flatnonzero(done < len(block))
        d = done[open_]
        count = offsets[d + 1] - offsets[d]
        elapsed = at[here[open_]] - totals.time[d]
        if block.spacing:
            # elapsed <= length <= k c: the inspections elapsed are at most k
            inspections[open_] += _schedule_index(elapsed, block.spacing).astype(np.int64)
        elif block.inspection_ages.size:
            # every open cycle's schedule, laid end to end, each age against
            # its own time's elapsed age
            owner = np.repeat(np.arange(open_.size), count)
            shift = np.repeat(offsets[d] - offsets[0] - (np.cumsum(count) - count), count)
            ages = block.inspection_ages[np.arange(owner.size) + shift]
            inspections[open_] += np.bincount(owner[ages <= elapsed[owner]], minlength=open_.size)
        else:
            unknown = np.flatnonzero((elapsed > 0.0) & (count >= 2))
            if unknown.size:
                j = unknown[0]
                raise ValueError(
                    f"time {times[here[open_[j]]]} falls inside cycle {repairs + d[j] + 1}, "
                    f"charged {count[j]} inspections: a batch without ages does not carry "
                    "that cycle's planned inspections"
                )
        counts = [
            CountSnapshot(times[i], n_r, n_i, n_f)
            for i, n_r, n_i, n_f in zip(here.tolist(), (done + repairs).tolist(),
                                        inspections.tolist(), totals.failures[done].tolist())
        ]
        yield block, totals, repairs, here, counts
    if pending.size:
        raise ValueError(f"time {times[pending[0]]} outside the simulated range [0, {end}]")


def counts_at_times(
    times: Sequence[float], cycles: CycleBatch | Iterable[CycleBatch]
) -> list[CountSnapshot]:
    """Observer counts at each time, in the given order, from a batch or
    from a stream of blocks read in order (the counts of the blocks' join);
    a time outside the span (or NaN) raises for the first such.  The open
    cycle counts only its planned inspections already elapsed (one at
    exactly the time included), counted for every time of a block at once
    from the spacing or over the stored ages; a failure cycle's unplanned
    inspection counts when the cycle completes, never before.

    A batch with neither (a parsed event log) gives the counts at every
    cycle end and inside every cycle charged at most one inspection, whose
    planned inspection comes at or after the cycle's end.  The first time,
    in the given order, strictly inside a cycle charged two or more raises
    ValueError: the batch does not carry that cycle's planned inspections.
    """
    found: list = [None] * len(times)
    for *_, here, counts in _counts(times, cycles):
        for i, snapshot in zip(here.tolist(), counts):
            found[i] = snapshot
    return found


def _snapshot_rows(
    block: CycleBatch, totals: _Totals, repairs: int, counts: list[CountSnapshot]
) -> Iterator[tuple[float, int, int, int]]:
    """A block's cycle ends merged with its grid counts, in time order; a
    grid row at a cycle end's time comes first."""
    ends = zip(
        totals.time[1:].tolist(), range(repairs + 1, repairs + len(block) + 1),
        totals.inspections[1:].tolist(), totals.failures[1:].tolist(),
    )
    yield from heapq.merge(map(astuple, counts), ends, key=itemgetter(0))


EVENT_LOG_HEADER = "cycle,y_s,y_d,k_r,v_s,z_d,x_r,end"
_EVENT_LOG_ROW = "%d,%.17g,%.17g,%d,%.17g,%.17g,%.17g,%s\n"
_ENDS = ("Detected", "Failed")
SNAPSHOT_HEADER = "t,n_r,n_i,n_f"
_SNAPSHOT_ROW = "%.17g,%d,%d,%d\n"


def _event_rows(block: CycleBatch, repairs: int) -> Iterator[str]:
    rows = zip(*(getattr(block, name).tolist() for name in _PER_CYCLE))
    for i, (y_s, y_d, k, v, z, x, failed) in enumerate(rows, start=repairs + 1):
        yield _EVENT_LOG_ROW % (i, y_s, y_d, k, v, z, x, _ENDS[failed])


def csv_blocks(
    cycles: CycleBatch | Iterable[CycleBatch], grid: Iterable[float]
) -> Iterator[tuple[Iterator[str], Iterator[str]]]:
    """The event log and the snapshot CSV of a batch or of a stream of
    blocks, in one pass: per block its event-log lines and its snapshot
    lines (its cycle ends and the grid times it holds, in time order; a
    grid row at a cycle end's time comes first and equals it), the first
    block's after the header lines, each line made as it is read."""
    headers = [EVENT_LOG_HEADER + "\n"], [SNAPSHOT_HEADER + "\n"]
    for block, totals, repairs, _, counts in _counts(sorted(map(float, grid)), cycles):
        snapshots = (_SNAPSHOT_ROW % row for row in _snapshot_rows(block, totals, repairs, counts))
        yield chain(headers[0], _event_rows(block, repairs)), chain(headers[1], snapshots)
        headers = (), ()


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
    [1, 2**53) raises ValueError naming the first offending line.

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
        and ((table["k_r"] >= 1) & (table["k_r"] < MAX_COUNT)).all()
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
            if not 1 <= value < MAX_COUNT:
                raise ValueError(
                    f"line {lineno}: k_r must be at least 1 and below 2**53, got {value}"
                )
        elif not 0.0 <= value < math.inf:
            raise ValueError(f"line {lineno}: {name} must be finite and nonnegative, got {value}")
    return (*values, end == "Failed")
