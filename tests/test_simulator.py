import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cbmkit import formulas as F
from cbmkit import simulator
from cbmkit.config import MAX_COUNT, MAX_CYCLES, ConfigError, check_counts
from cbmkit.laws import InspectionLaw, SaneLaw, sample_sane_many
from cbmkit.oracle import MIN_SAMPLES, verification_rows
from cbmkit.simulator import (
    CountSnapshot,
    CycleBatch,
    CycleRecord,
    counts_at_times,
    csv_blocks,
    cycle_chunks,
    horizon_blocks,
    read_event_log,
    simulate_cycle,
    simulate_horizon,
)
from conftest import (
    BASE_LAMBDA,
    SPACING,
    batch_of,
    csv_text,
    draw_cycles,
    make_config,
    snapshot_rows,
    time_scaled,
)
from count_loop import loop_counts_at_times
from schedule_loop import mask_uniform_schedule

# Seeds of the batch-engine tests, fixed once before their first run.
SCALAR_SEED = 7001
BATCH_SEED = 7002


class _ScriptedRng:
    """Stands in for a generator; pops pre-chosen exponential and uniform
    draws (a value, or an array shaped as a sized draw asks)."""

    def __init__(self, values):
        self.values = list(values)

    def _next(self, size):
        value = self.values.pop(0)
        return value if size is None else np.reshape(value, size)

    def exponential(self, scale, size=None):
        return self._next(size)

    def uniform(self, low, high, size=None):
        return self._next(size)


def _cycle(length, inspections, failed, count=None):
    return CycleRecord(
        time_to_damage=0.0,
        damage_to_failure=0.0,
        inspections=tuple(inspections),
        inspection_count=len(inspections) if count is None else count,
        detection_age=inspections[-1] if inspections else 0.0,
        failure_age=length if failed else math.inf,
        length=length,
        failed=failed,
    )


class TestSimulateCycle:
    def test_detected_hand_trace(self):
        cfg = make_config()
        rec = simulate_cycle(_ScriptedRng([1500.0, 10000.0]), cfg)
        assert rec.inspections == (1000.0, 2000.0)
        assert rec.inspection_count == 2
        assert rec.detection_age == 2000.0
        assert rec.failure_age == 11500.0
        assert not rec.failed
        assert rec.length == 2000.0

    def test_failed_hand_trace(self):
        # failure at 1600 beats the detection at 2000; the cycle is charged
        # two inspections (one planned at 1000, the unplanned one at 1600)
        cfg = make_config()
        rec = simulate_cycle(_ScriptedRng([1500.0, 100.0]), cfg)
        assert rec.failed
        assert rec.length == 1600.0
        assert rec.inspection_count == 2
        assert rec.detection_age == 2000.0

    def test_invariants_hold(self, any_config):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            rec = simulate_cycle(rng, any_config)
            k = rec.inspection_count
            assert k >= 1
            assert rec.inspections[k - 1] >= rec.time_to_damage
            if k > 1:
                assert rec.inspections[k - 2] < rec.time_to_damage
            assert rec.length == min(rec.detection_age, rec.failure_age)
            assert rec.failed == (rec.detection_age >= rec.failure_age)
            if rec.failed:
                assert rec.length < rec.detection_age

    def test_mean_inspections_against_closed_form(self):
        cfg = make_config(shape=2)
        rng = np.random.default_rng(11)
        counts = np.array(
            [simulate_cycle(rng, cfg).inspection_count for _ in range(200_000)],
            dtype=float,
        )
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        expected = F.mean_inspections(cfg.sane, cfg.inspection)
        assert abs(counts.mean() - expected) <= 4.0 * se


def _two_sample_z(a, b):
    diff = a.mean() - b.mean()
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


class TestSimulateCycles:
    """The batch engine against the scalar reference cycle."""

    @pytest.mark.parametrize(
        "cfg",
        [
            make_config(shape=1, kind="deterministic"),
            make_config(shape=2, kind="deterministic"),
            make_config(shape=1, kind="uniform"),
            make_config(shape=2, kind="uniform"),
            make_config(lam=1.0, horizon=1e5),
        ],
        ids=["n1-det", "n2-det", "n1-unif", "n2-unif", "fast-failure"],
    )
    def test_agrees_with_scalar_cycles(self, cfg):
        n = 20_000
        rng = np.random.default_rng(SCALAR_SEED)
        scalar = [simulate_cycle(rng, cfg) for _ in range(n)]
        batch = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, n)
        pairs = (
            ([c.inspection_count for c in scalar], batch.inspection_count),
            ([c.failed for c in scalar], batch.failed),
            ([c.length for c in scalar], batch.length),
        )
        for one, many in pairs:
            z = _two_sample_z(np.asarray(one, dtype=float), many.astype(float))
            assert abs(z) <= 4.0

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="cycle count must be nonnegative, got -1"):
            draw_cycles(np.random.default_rng(BATCH_SEED), make_config(), -1)

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    def test_zero_cycles(self, kind):
        # an empty batch with the columns' dtypes, and no draw made
        rng = np.random.default_rng(BATCH_SEED)
        batch = draw_cycles(rng, make_config(kind=kind), 0, inspections=True)
        drawn = draw_cycles(np.random.default_rng(BATCH_SEED), make_config(kind=kind), 1)
        assert len(batch) == 0 and batch.inspection_ages.size == 0
        assert [batch.inspection_count.dtype, batch.failed.dtype, batch.length.dtype] == [
            np.int64, np.bool_, np.float64]
        assert draw_cycles(rng, make_config(kind=kind), 1).length == drawn.length

    def test_deterministic_count_is_ceiling(self):
        for shape in (1, 2):
            cfg = make_config(shape=shape)
            c = cfg.inspection.spacing
            batch = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, 50_000)
            y_s, det = batch.time_to_damage, batch.detection_age
            assert np.array_equal(batch.inspection_count, np.ceil(y_s / c))
            assert (y_s <= det).all()
            assert (det < y_s + c).all()

    def test_spacing_multiples_not_running_sums(self):
        # with c = 0.1 the tenth inspection sits at 10 * 0.1 == 1.0, while
        # ten repeated additions of 0.1 stop short of it
        cfg = replace(make_config(), inspection=InspectionLaw("deterministic", 0.1))
        ages = tuple(i * 0.1 for i in range(1, 11))
        assert ages[-1] == 1.0 and sum([0.1] * 10) != 1.0
        one = simulate_cycle(_ScriptedRng([0.95, 10.0]), cfg)
        many = draw_cycles(_ScriptedRng([[0.95], [10.0]]), cfg, 1, inspections=True)
        assert one.inspections == ages
        assert one.detection_age == 1.0
        assert list(many) == [one]

    def test_tie_counts_as_failure(self):
        # failure at 1500 + 500 == the detection at 2000
        cfg = make_config()
        one = simulate_cycle(_ScriptedRng([1500.0, 500.0]), cfg)
        many = draw_cycles(_ScriptedRng([[1500.0], [500.0]]), cfg, 1, inspections=True)
        assert one.failed and one.length == 2000.0
        assert list(many) == [one]

    def test_uniform_schedule_hand_trace(self):
        # three cycles on gaps in [900, 1100]: damage at 0 (no inspection),
        # at 500 (found by the first) and at 2500 (found by the third);
        # each step draws one gap per cycle still short of its damage
        cfg = make_config(kind="uniform", lam=1e-9)
        rng = _ScriptedRng([
            [[0.0], [500.0], [2500.0]], [1e12, 1e12, 1e12],
            [950.0, 1000.0], [1050.0], [1080.0],
        ])
        batch = draw_cycles(rng, cfg, 3, inspections=True)
        assert rng.values == []
        assert batch.inspection_count.tolist() == [0, 1, 3]
        assert batch.detection_age.tolist() == [0.0, 950.0, 3130.0]
        assert [row.inspections for row in batch] == [(), (950.0,), (1000.0, 2050.0, 3130.0)]
        assert not batch.failed.any()

    def test_uniform_schedule_hand_trace_all_positive(self):
        # the same steps on a chunk without a zero damage time, where the
        # first step carries no index: damage at 500 (found by the first),
        # at 2500 (by the third) and at 1950 (by the second)
        cfg = make_config(kind="uniform", lam=1e-9)
        rng = _ScriptedRng([
            [[500.0], [2500.0], [1950.0]], [1e12, 1e12, 1e12],
            [950.0, 1000.0, 1100.0], [1050.0, 900.0], [1080.0],
        ])
        batch = draw_cycles(rng, cfg, 3, inspections=True)
        assert rng.values == []
        assert batch.inspection_count.tolist() == [1, 3, 2]
        assert batch.detection_age.tolist() == [950.0, 3130.0, 2000.0]
        assert [row.inspections for row in batch] == [
            (950.0,), (1000.0, 2050.0, 3130.0), (1100.0, 2000.0)]

    def test_uniform_schedule_ends_at_an_age_equal_to_the_damage(self):
        # 950 + 1000 + 1050 == 3000 == the damage time: the third age is
        # not short of it, so the cycle ends there and draws no fourth gap
        cfg = make_config(kind="uniform", lam=1e-9)
        one = simulate_cycle(_ScriptedRng([3000.0, 1e12, 950.0, 1000.0, 1050.0]), cfg)
        rng = _ScriptedRng([[[3000.0]], [1e12], [950.0], [1000.0], [1050.0]])
        batch = draw_cycles(rng, cfg, 1, inspections=True)
        assert rng.values == []
        assert batch.inspection_count.tolist() == [3]
        assert batch.detection_age.tolist() == [3000.0]
        assert list(batch) == [one] and one.inspections == (950.0, 1950.0, 3000.0)

    @pytest.mark.parametrize("shape", [1, 2])
    def test_uniform_ages_leave_the_columns_alone(self, shape):
        # keeping the ages neither draws nor writes anything else
        cfg = make_config(shape=shape, kind="uniform")
        kept = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, 10_000, inspections=True)
        plain = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, 10_000)
        for name in simulator._PER_CYCLE:
            column = getattr(kept, name)
            assert column.dtype == getattr(plain, name).dtype
            assert column.tobytes() == getattr(plain, name).tobytes()
        last = kept.totals.inspections[1:] - 1
        assert np.array_equal(kept.inspection_ages[last], kept.detection_age)

    def test_horizon_blocks_join_seamlessly(self, base_config):
        # long enough for several draw blocks; every end snapshot carries
        # the running totals across block boundaries
        cfg = replace(base_config, horizon=2e7)
        cycles = simulate_horizon(np.random.default_rng(BATCH_SEED), cfg)
        assert len(cycles) > 2 * simulator._CHUNK
        times, repairs, inspections, failures = map(list, zip(*snapshot_rows(cycles)))
        assert times == np.cumsum([c.length for c in cycles]).tolist()
        assert repairs == list(range(1, len(cycles) + 1))
        assert inspections == np.cumsum([c.inspection_count for c in cycles]).tolist()
        assert failures == np.cumsum([c.failed for c in cycles]).tolist()

    def test_totals_are_the_joined_running_sums(self, any_config):
        # the totals of the joined batch are the running sums over its
        # columns, bit for bit and dtype for dtype, and the block ends that
        # the horizon loop carries stop it at the first total past the
        # horizon; the horizon takes more than two whole blocks and cuts
        # the last
        horizon = 3e7
        cycles = simulate_horizon(np.random.default_rng(BATCH_SEED),
                                  replace(any_config, horizon=horizon))
        assert len(cycles) > 2 * simulator._CHUNK and len(cycles) % simulator._CHUNK
        columns = (cycles.length, cycles.inspection_count, cycles.failed)
        for total, values in zip(cycles.totals, columns):
            recomputed = simulator._running_sums(values)
            assert total.dtype == recomputed.dtype
            assert total.tobytes() == recomputed.tobytes()
        assert cycles.totals.time[-2] < horizon <= cycles.totals.time[-1]

    def test_uniform_trajectory_counts_match_stored_ages(self):
        cfg = make_config(shape=2, kind="uniform", horizon=2e5)
        law = cfg.inspection
        rng = np.random.default_rng(BATCH_SEED)
        cycles = simulate_horizon(rng, cfg)
        starts = cycles.totals.time[:-1].tolist()
        ends = cycles.totals.time[1:].tolist()
        for cyc in cycles:
            assert len(cyc.inspections) == cyc.inspection_count
            assert cyc.inspections[-1] == cyc.detection_age
            gaps = np.diff((0.0,) + cyc.inspections)
            assert (gaps >= law.spacing - law.half_width - 1e-9).all()
            assert (gaps <= law.spacing + law.half_width + 1e-9).all()
        probes = np.concatenate(
            (ends, np.random.default_rng(SCALAR_SEED).uniform(0.0, ends[-1], size=300))
        )
        for t in probes.tolist():
            inspections = failures = repairs = 0
            for cyc, start, end in zip(cycles, starts, ends):
                if end <= t:
                    repairs += 1
                    failures += cyc.failed
                    inspections += len(cyc.inspections)
                elif start <= t:
                    inspections += sum(1 for a in cyc.inspections if a <= t - start)
            snap = counts_at_times([t], cycles)[0]
            assert (snap.repairs, snap.inspections, snap.failures) == (
                repairs, inspections, failures,
            )

    def test_reproducible_one_past_a_chunk(self):
        cfg = make_config(shape=2, kind="uniform")
        # the first chunk boundary at or past the oracle's minimum, plus one
        n = -(-MIN_SAMPLES // simulator._CHUNK) * simulator._CHUNK + 1
        first = verification_rows(cfg, n, seed=BATCH_SEED)
        second = verification_rows(cfg, n, seed=BATCH_SEED)
        assert first == second
        assert all(r.passed for r in first)
        # chunks are consecutive draws of the one generator
        whole = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, n)
        rng = np.random.default_rng(BATCH_SEED)
        sizes = [simulator._CHUNK] * (n // simulator._CHUNK) + [1]
        parts = [draw_cycles(rng, cfg, size) for size in sizes]
        for name in ("time_to_damage", "damage_to_failure", "inspection_count",
                     "detection_age", "failure_age", "length", "failed"):
            joined = np.concatenate([getattr(p, name) for p in parts])
            assert np.array_equal(getattr(whole, name), joined)


class TestCycleBatchRows:
    """A batch is the only cycle container; rows come out as records on
    demand."""

    @pytest.mark.parametrize("shape, kind", [(1, "deterministic"), (2, "uniform")])
    def test_rows_match_columns(self, shape, kind):
        # a deterministic row's schedule is i * c for i up to its count; a
        # uniform row's is its slice of the stored ages
        cfg = make_config(shape=shape, kind=kind)
        batch = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, 300, inspections=True)
        rows = list(batch)
        assert len(batch) == len(rows) == 300
        offsets = batch.totals.inspections
        c = cfg.inspection.spacing
        for i, row in enumerate(rows):
            if kind == "deterministic":
                k = int(batch.inspection_count[i])
                assert row.inspections == tuple(j * c for j in range(1, k + 1))
            else:
                assert row.inspections == tuple(batch.inspection_ages[offsets[i]:offsets[i + 1]])
            assert row.inspection_count == len(row.inspections)
            assert row.detection_age == row.inspections[-1]
            assert (row.length, row.failed) == (batch.length[i], batch.failed[i])

    def test_rows_stream(self):
        # rows are made a slice at a time: iterating four times the cycles
        # peaks within 1 MB of the shorter batch (uniform gaps, whose ages
        # are sliced along with the columns)
        peaks = []
        for n in (1 << 15, 1 << 17):
            cfg = make_config(kind="uniform")
            batch = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, n, inspections=True)
            tracemalloc.start()
            try:
                assert sum(1 for _ in batch) == n
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1 << 20, peaks

    def test_head_keeps_the_schedules(self):
        cfg = make_config(shape=2, kind="uniform")
        batch = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, 50, inspections=True)
        assert list(batch.head(20)) == list(batch)[:20]
        undrawn = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, 50)
        assert undrawn.inspection_ages.size == 0
        assert all(row.inspections == () for row in undrawn.head(20))

    def test_head_leaves_the_totals_unbuilt(self):
        # the cut sizes its ages from the counts it keeps, so cutting every
        # chunk of a horizon costs no running sums over the chunk
        cfg = make_config(shape=2, kind="uniform")
        batch = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, 50, inspections=True)
        head = batch.head(20)
        assert "totals" not in vars(batch)
        assert head.inspection_ages.tolist() == \
            batch.inspection_ages[:batch.totals.inspections[20]].tolist()

    def test_totals_add_left_to_right(self):
        cfg = make_config(shape=2, kind="uniform")
        batch = draw_cycles(np.random.default_rng(BATCH_SEED), cfg, 3000)
        running = [0.0]
        for x in batch.length.tolist():
            running.append(running[-1] + x)
        assert batch.totals.time.tolist() == running
        counts = batch.counts()
        assert (counts.time, counts.repairs) == (running[-1], 3000)
        assert counts.inspections == int(batch.inspection_count.sum())
        assert counts.failures == int(batch.failed.sum())


def _assert_same_cycles(got, expected):
    """Two batches hold the same bytes in every array field, and the same
    spacing."""
    for name in (*simulator._PER_CYCLE, "inspection_ages"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    assert got.spacing == expected.spacing


class TestSimulateHorizon:
    def test_stops_at_first_cycle_end_past_horizon(self, base_config):
        rng = np.random.default_rng(3)
        cycles = simulate_horizon(rng, replace(base_config, horizon=1e5))
        final = cycles.counts()
        ends = cycles.totals.time[1:]
        assert final.time == ends[-1]
        assert final.time >= 1e5
        assert ends[-2] < 1e5
        assert final.repairs == len(cycles)
        assert final.failures == sum(1 for c in cycles if c.failed)
        assert final.inspections == sum(c.inspection_count for c in cycles)
        # one snapshot row per cycle end, the last one being the stop time
        rows = list(snapshot_rows(cycles))
        assert len(rows) == len(cycles)
        assert CountSnapshot(*rows[-1]) == final

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    @pytest.mark.parametrize("k", [4096, 8192, 8193])
    def test_stops_at_a_block_boundary(self, kind, k):
        # a horizon at the end t of cycle k, just below it or just above
        # it, where k ends a draw block or opens the next: the run holds
        # k, k and k + 1 cycles, the first k those of a longer run
        cfg = make_config(shape=2, kind=kind, horizon=3e7)
        long = simulate_horizon(np.random.default_rng(BATCH_SEED), cfg)
        t = float(long.totals.time[k])
        reruns = ((t, k), (np.nextafter(t, 0.0), k), (np.nextafter(t, np.inf), k + 1))
        for horizon, count in reruns:
            run = simulate_horizon(np.random.default_rng(BATCH_SEED),
                                   replace(cfg, horizon=horizon))
            assert len(run) == count
            assert run.totals.time[-2] < horizon <= run.totals.time[-1]
            _assert_same_cycles(run.head(k), long.head(k))

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    def test_stream_stops_at_the_crossing_block(self, kind):
        # the run draws exactly the blocks up to the one that crosses the
        # horizon: the generator is left where m whole blocks leave it (the
        # age probes of tests/age_law.py draw from there), and the kept
        # cycles are the first of those m blocks
        cfg = make_config(shape=2, kind=kind, horizon=2e7)
        rng_a, rng_b = np.random.default_rng(BATCH_SEED), np.random.default_rng(BATCH_SEED)
        cycles = simulate_horizon(rng_a, cfg)
        m = -(-len(cycles) // simulator._CHUNK)
        whole = draw_cycles(rng_b, cfg, m * simulator._CHUNK, inspections=True)
        assert m >= 2
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        _assert_same_cycles(cycles, whole.head(len(cycles)))

    def test_degenerate_horizon_single_overshooting_cycle(self):
        # a horizon below the first inspection still completes one cycle
        # (the stopping rule includes the overshooting cycle); counts at
        # grid times before that cycle's end are zero
        cfg = make_config(seed=5, horizon=500.0)
        rng = np.random.default_rng(5)
        cycles = simulate_horizon(rng, cfg)
        assert len(cycles) == 1
        rows = list(snapshot_rows(cycles, [400.0]))
        assert len(rows) == 2
        t, repairs, inspections, failures = rows[0]
        assert (t, repairs, failures) == (400.0, 0, 0)
        assert inspections == sum(1 for age in next(iter(cycles)).inspections if age <= 400.0)

    def test_snapshot_rows_are_the_time_sorted_snapshots(self, base_config, tmp_path):
        # grid times in any order, one time twice and one at a cycle end:
        # the rows are the stable time sort of the grid snapshots then the
        # cycle ends
        cycles = simulate_horizon(np.random.default_rng(31), replace(base_config, horizon=1e5))
        totals = cycles.totals
        grid = (9e4, float(totals.time[4]), 2e4, 2e4, 0.0)
        ends = [
            CountSnapshot(float(totals.time[i]), i, int(totals.inspections[i]),
                          int(totals.failures[i]))
            for i in range(1, len(cycles) + 1)
        ]
        at_grid = [counts_at_times([t], cycles)[0] for t in grid]
        expected = sorted((*at_grid, *ends), key=lambda s: s.time)
        assert [CountSnapshot(*row) for row in snapshot_rows(cycles, grid)] == expected
        path = tmp_path / "snaps.csv"
        path.write_text(csv_text(cycles, grid)[1])
        assert path.read_text().splitlines()[1:] == [
            f"{s.time:.17g},{s.repairs},{s.inspections},{s.failures}" for s in expected
        ]

    def test_determinism(self, base_config):
        c1 = simulate_horizon(np.random.default_rng(99), replace(base_config, horizon=2e5))
        c2 = simulate_horizon(np.random.default_rng(99), replace(base_config, horizon=2e5))
        assert list(c1) == list(c2)
        assert list(snapshot_rows(c1)) == list(snapshot_rows(c2))

    def test_rejects_bad_horizon(self, base_config):
        # the config rejects it, so no bad horizon reaches the simulator
        with pytest.raises(ValueError):
            simulate_horizon(np.random.default_rng(0), replace(base_config, horizon=0.0))

    def test_law_of_large_numbers_bands(self, any_config):
        # count rates against their limits within 4 sqrt(R_ii / T)
        horizon = 1e7
        rng = np.random.default_rng(17)
        final = simulate_horizon(rng, replace(any_config, horizon=horizon)).counts()
        t = final.time
        m = F.cycle_moments(any_config.sane, any_config.damage, any_config.inspection)
        rate_cov = F.count_rate_covariance(m)
        limits = (1.0 / m.mean_cycle, m.failure_prob / m.mean_cycle,
                  m.mean_inspections / m.mean_cycle)
        observed = (final.repairs / t, final.failures / t, final.inspections / t)
        for i in range(3):
            assert abs(observed[i] - limits[i]) <= 4.0 * math.sqrt(rate_cov[i, i] / t)

    def test_wald_failure_interarrival(self, base_config):
        # mean time between failures is mean_cycle / failure_prob
        rng = np.random.default_rng(23)
        cycles = simulate_horizon(rng, replace(base_config, horizon=1e7))
        fail_times = cycles.totals.time[1:][cycles.failed]
        gaps = np.diff(np.concatenate(([0.0], fail_times)))
        m = F.cycle_moments(base_config.sane, base_config.damage, base_config.inspection)
        expected = m.mean_cycle / m.failure_prob
        se = gaps.std(ddof=1) / math.sqrt(len(gaps))
        assert abs(gaps.mean() - expected) <= 4.0 * se

    def test_published_run_scale_counts(self):
        # a fresh seed at the published horizon lands within CLT-scale
        # agreement of the published counts: repairs and inspections
        # within 5%, failures within 10%
        cfg = make_config()
        rng = np.random.default_rng(2)
        final = simulate_horizon(rng, cfg).counts()
        assert abs(final.repairs - 33501) / 33501 < 0.05
        assert abs(final.failures - 8255) / 8255 < 0.10
        assert abs(final.inspections - 53116) / 53116 < 0.05

    def test_reconstruction_from_cycles(self, any_config):
        rng = np.random.default_rng(31)
        grid = [2e4, 5e4, 9e4]
        cycles = simulate_horizon(rng, replace(any_config, horizon=1e5))
        snapshots = [CountSnapshot(*row) for row in snapshot_rows(cycles, grid)]
        assert len(snapshots) == len(cycles) + len(grid)
        times = [s.time for s in snapshots]
        assert times == sorted(times)
        epochs = cycles.totals.time[1:].tolist()
        records = list(cycles)
        for snap in snapshots:
            done = [c for c, e in zip(records, epochs) if e <= snap.time]
            assert snap.repairs == len(done)
            assert snap.failures == sum(1 for c in done if c.failed)
            planned_tail = 0
            if snap.repairs < len(cycles):
                last = epochs[snap.repairs - 1] if snap.repairs else 0.0
                nxt = records[snap.repairs]
                planned_tail = sum(1 for a in nxt.inspections if a <= snap.time - last)
            assert snap.inspections == sum(c.inspection_count for c in done) + planned_tail


class TestTimeUnit:
    """The model has no time unit: times by s = 2^j and rates over s
    multiply every time that the simulator draws or totals by s, exactly,
    while no scaled time leaves the normal floats."""

    TIMES = ("time_to_damage", "damage_to_failure", "detection_age", "failure_age", "length",
             "inspection_ages")

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    def test_simulate_scales_exactly(self, shape, kind):
        cfg = make_config(shape=shape, kind=kind, horizon=2e6)
        base = simulate_horizon(np.random.default_rng(7), cfg)
        grid = np.linspace(0.0, 2e6, 7).tolist()
        rows = list(snapshot_rows(base, grid))
        # the j range from the binary exponents of the smallest positive
        # time (at least 2^-2 on these runs) and of the largest, the last
        # end past the horizon 2e6 (below 2^21): 2^j times both stays in
        # the normal floats, [2^-1022, 2^1024)
        times = np.concatenate([getattr(base, name) for name in self.TIMES])
        times = times[(times > 0.0) & (times < math.inf)]
        low, high = math.frexp(times.min())[1] - 1, math.frexp(base.totals.time[-1])[1]
        js = (-900, -600, -400, -100, 100, 400, 600, 900, 1000)
        assert -1022 - low < js[0] and js[-1] + high < 1024
        for j in js:
            s = 2.0**j
            got = simulate_horizon(np.random.default_rng(7), time_scaled(cfg, s))
            for name in self.TIMES:
                assert getattr(got, name).tobytes() == (getattr(base, name) * s).tobytes(), (j, name)
            for name in ("inspection_count", "failed"):
                assert getattr(got, name).tobytes() == getattr(base, name).tobytes(), (j, name)
            assert got.spacing == base.spacing * s, j
            assert list(snapshot_rows(got, [t * s for t in grid])) == [
                (t * s, *counts) for t, *counts in rows], j


class TestHorizonBlocks:
    """The horizon as a stream of blocks: its readers carry their running
    totals from block to block, so they give the bits of the joined batch."""

    @staticmethod
    def _stream_and_batch(kind):
        cfg = make_config(kind=kind, horizon=3e7)
        blocks = list(horizon_blocks(np.random.default_rng(BATCH_SEED), cfg))
        return blocks, simulate_horizon(np.random.default_rng(BATCH_SEED), cfg)

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    def test_blocks_are_the_draw_chunks_cut_at_the_horizon(self, kind):
        blocks, batch = self._stream_and_batch(kind)
        assert len(blocks) >= 4
        assert [len(b) for b in blocks[:-1]] == [simulator._CHUNK] * (len(blocks) - 1)
        assert sum(map(len, blocks)) == len(batch)
        for name in (*simulator._PER_CYCLE, "inspection_ages"):
            joined = np.concatenate([getattr(b, name) for b in blocks])
            assert joined.tobytes() == getattr(batch, name).tobytes()
        assert all(b.spacing == batch.spacing for b in blocks)

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    def test_deterministic_blocks_hold_no_ages(self, kind):
        # a deterministic block carries its spacing and no age; a uniform
        # block carries every cycle's ages and no spacing
        blocks, _ = self._stream_and_batch(kind)
        for block in blocks:
            if kind == "deterministic":
                assert (block.inspection_ages.size, block.spacing) == (0, SPACING)
            else:
                assert (block.inspection_ages.size, block.spacing) == (
                    block.inspection_count.sum(), 0.0)

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    def test_counts_over_blocks_are_the_batch_counts(self, kind):
        # every block's first and last cycle end, a float either side of
        # each, 0, the end, repeats and random times, shuffled
        blocks, batch = self._stream_and_batch(kind)
        ends = np.cumsum([len(b) for b in blocks])
        edges = batch.totals.time[np.concatenate(([1], ends - 1, ends))]
        times = np.concatenate((edges, np.nextafter(edges, 0.0), np.nextafter(edges[:-1], np.inf),
                                [0.0, 0.0, 1e4, 1e4],
                                np.random.default_rng(SCALAR_SEED).uniform(0.0, edges[-1], 300)))
        times = np.random.default_rng(SCALAR_SEED).permutation(times).tolist()
        streamed = counts_at_times(times, iter(blocks))
        assert streamed == counts_at_times(times, batch)
        assert all(type(v) is int for s in streamed for v in (s.repairs, s.inspections, s.failures))
        assert counts_at_times([], iter(blocks)) == []

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    def test_csv_lines_over_blocks_are_the_batch_lines(self, kind):
        # a grid out of order with a time at a block's last cycle end: its
        # row comes before that end's row, in the block that holds it
        blocks, batch = self._stream_and_batch(kind)
        boundary = float(batch.totals.time[simulator._CHUNK])
        grid = (2e7, boundary, 5e3, boundary, float(batch.totals.time[-1]))
        events, snapshots = csv_text(batch, grid)
        assert csv_text(batch)[0] == events
        assert csv_text(iter(blocks), grid) == (events, snapshots)
        # both files' lines block by block, the headers with the first
        pairs = [("".join(e), "".join(s)) for e, s in csv_blocks(iter(blocks), grid)]
        assert len(pairs) == len(blocks)
        assert ["".join(column) for column in zip(*pairs)] == [events, snapshots]
        assert list(snapshot_rows(iter(blocks), grid)) == list(snapshot_rows(batch, grid))
        rows = list(snapshot_rows(iter(blocks), grid))
        at = [i for i, row in enumerate(rows) if row[0] == boundary]
        assert len(at) == 3 and rows[at[0]] == rows[at[2]] and rows[at[2]][1] == simulator._CHUNK

    @pytest.mark.parametrize("time", [1e12, -1.0, math.nan])
    def test_time_no_block_takes_raises_after_the_last(self, time):
        blocks, batch = self._stream_and_batch("deterministic")
        end = float(batch.totals.time[-1])
        match = rf"^time {re.escape(repr(time))} outside the simulated range \[0, {end}\]$"
        with pytest.raises(ValueError, match=match):
            counts_at_times([1e4, time, 2e4], iter(blocks))
        with pytest.raises(ValueError, match=match):
            list(snapshot_rows(iter(blocks), [1e4, time]))

    @pytest.mark.parametrize("shape, mu", [(1, 1e-3), (3, 1e-3), (1, 1.0)])
    def test_refuses_a_horizon_past_the_cycle_bound(self, shape, mu):
        # the predicted count is the horizon over the larger of the mean
        # damage time shape/mu and E[min(c - h, Y_d)]; at the bound the
        # stream starts, past it both entry points refuse before any draw
        cfg = make_config(shape=shape, mu=mu)
        shortest = max(shape / mu, -math.expm1(-BASE_LAMBDA * SPACING) / BASE_LAMBDA)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        horizon_blocks(rng, replace(cfg, horizon=MAX_CYCLES * shortest))
        for entry in (horizon_blocks, simulate_horizon):
            with pytest.raises(ConfigError, match=r"^horizon .* predicts up to 1.34e\+08 cycles, "
                                                  r"more than the bound of 134217728$"):
                entry(rng, replace(cfg, horizon=MAX_CYCLES * shortest * 1.000001))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("shape, kind", [(1, "deterministic"), (2, "uniform"), (4, "uniform")])
    def test_predicted_cycles_bound_the_count(self, shape, kind):
        # every cycle lasts at least the shorter mean, so a run's count
        # stays below the horizon over it, with room to spare
        cfg = make_config(shape=shape, kind=kind, mu=1e-2, lam=1e-3, horizon=2e6)
        count = len(simulate_horizon(np.random.default_rng(3), cfg))
        c_less_h = SPACING - cfg.inspection.half_width
        shortest = max(shape / 1e-2, -math.expm1(-1e-3 * c_less_h) / 1e-3)
        assert 0.5 * cfg.horizon / shortest < count < cfg.horizon / shortest


class TestAgeAndIndex:
    """The age of the repair process and the planned inspections elapsed
    in the open cycle, as counts_at_times reads them from a hand-built
    batch: a failed cycle of length 1500 charged two inspections, then a
    detected one of length 3000 with inspections at ages 1000, 2000 and
    3000."""

    CYCLES = [_cycle(1500.0, [1000.0, 2000.0], failed=True, count=2),
              _cycle(3000.0, [1000.0, 2000.0, 3000.0], failed=False)]

    @staticmethod
    def _counts(t, records):
        snap = counts_at_times([t], batch_of(records))[0]
        return snap.repairs, snap.inspections, snap.failures

    def test_at_repair_epoch(self):
        # age 0: the first cycle is complete, nothing of the second elapsed
        assert self._counts(1500.0, self.CYCLES) == (1, 2, 1)
        assert self._counts(float(np.nextafter(1500.0, 0.0)), self.CYCLES) == (0, 1, 0)

    def test_open_cycle_count(self):
        # age 2500: two planned inspections of the open cycle have elapsed
        assert self._counts(1500.0 + 2500.0, self.CYCLES) == (1, 4, 1)

    def test_inspection_at_the_probe_time_has_elapsed(self):
        # age 1000, the open cycle's first inspection
        assert self._counts(2500.0, self.CYCLES) == (1, 3, 1)
        assert self._counts(float(np.nextafter(2500.0, 0.0)), self.CYCLES) == (1, 2, 1)

    def test_beyond_horizon_rejected(self):
        records = [_cycle(1000.0, [1000.0], failed=False)]
        assert self._counts(1000.0, records) == (1, 1, 0)
        for t in (1000.5, -1.0):
            with pytest.raises(ValueError, match=r"outside the simulated range \[0, 1000.0\]"):
                self._counts(t, records)

    def test_nan_time_rejected(self, base_config):
        # NaN compares false both ways, so it is not inside the span either;
        # on a simulated batch it read as the counts at the batch's end
        records = [_cycle(1000.0, [1000.0], failed=False)]
        with pytest.raises(ValueError, match=r"time nan outside the simulated range \[0, 1000.0\]"):
            counts_at_times([500.0, math.nan], batch_of(records))
        cycles = simulate_horizon(np.random.default_rng(3), replace(base_config, horizon=1e5))
        with pytest.raises(ValueError, match="time nan outside the simulated range"):
            counts_at_times([math.nan], cycles)

    def test_counts_at_matches_age_index(self):
        # at t = 4000 the open cycle's age is 4000 - 1500 and its index is
        # the number of stored inspection ages not past that age; the counts
        # are the completed cycle's totals plus that index
        t = 4000.0
        done, open_cycle = self.CYCLES
        age = t - done.length
        index = sum(1 for a in open_cycle.inspections if a <= age)
        assert (age, index) == (2500.0, 2)
        assert self._counts(t, self.CYCLES) == (
            1, done.inspection_count + index, int(done.failed))


def _brute_counts(t, cycles):
    """Counts at t by walking the cycles from the start."""
    end = 0.0
    repairs = inspections = failures = 0
    for c in cycles:
        start, end = end, end + c.length
        if end > t:
            elapsed = sum(1 for a in c.inspections if a <= t - start)
            return (t, repairs, inspections + elapsed, failures)
        repairs += 1
        inspections += c.inspection_count
        failures += c.failed
    return (t, repairs, inspections, failures)


class TestCountsAtPrefixSums:
    """counts_at_times searches the running totals built once per batch; a
    walk over the cycles is the reference."""

    @staticmethod
    def _times(cycles):
        epochs = cycles.totals.time[1:].tolist()
        times = [0.0, epochs[-1]]
        for e in epochs:
            times += [np.nextafter(e, -np.inf), e]
            if e < epochs[-1]:
                times.append(np.nextafter(e, np.inf))
        return [float(t) for t in times]

    def _assert_brute(self, cycles):
        for t in self._times(cycles):
            snap = counts_at_times([t], cycles)[0]
            assert (snap.time, snap.repairs, snap.inspections, snap.failures) == (
                _brute_counts(t, cycles)), t
            assert all(type(v) is int for v in (snap.repairs, snap.inspections, snap.failures))

    def test_hand_built(self):
        cycles = batch_of([_cycle(1500.0, [1000.0, 2000.0], failed=True, count=2),
                           _cycle(3000.0, [1000.0, 2000.0, 3000.0], failed=False),
                           _cycle(0.1, [1000.0], failed=True),
                           _cycle(2000.0, [1000.0, 2000.0], failed=False)])
        assert cycles.totals.time.tolist() == [0.0, 1500.0, 4500.0, 4500.1, 6500.1]
        self._assert_brute(cycles)

    @pytest.mark.parametrize("shape, kind", [(1, "deterministic"), (2, "uniform")])
    def test_simulated(self, shape, kind):
        cfg = make_config(shape=shape, kind=kind, seed=11, horizon=3e5)
        cycles = simulate_horizon(np.random.default_rng(11), cfg)
        assert len(cycles) > 100
        self._assert_brute(cycles)

    def test_built_once(self):
        cycles = batch_of([_cycle(1500.0, [1000.0, 2000.0], failed=True, count=2),
                           _cycle(3000.0, [1000.0, 2000.0, 3000.0], failed=False)])
        assert cycles.totals is cycles.totals


# spacings at which the quotient by c rounds across some of the first 200
# ages i * c (all but 1000, whose products are exact)
EDGE_SPACINGS = [0.1, 1.1, 9.9, 123.456, 1000.0]


def _edge_ages(c, top=200):
    """0, then every planned age ``i * c`` for i = 1..top, and one float
    below and one above each."""
    ages = np.arange(1, top + 1) * c
    return np.concatenate(([0.0], ages, np.nextafter(ages, 0.0), np.nextafter(ages, np.inf)))


def _stub_damage_ages(monkeypatch, y_s):
    """The damage ages the batch and the scalar draw take, in order:
    ``y_s``, in place of the repair-to-damage law's draws."""
    scalar = iter(y_s.tolist())
    monkeypatch.setattr(simulator, "sample_sane_many", lambda rng, law, n: y_s[:n].copy())
    monkeypatch.setattr(simulator, "sample_sane", lambda rng, law: next(scalar))


def _spaced(c):
    return replace(make_config(), inspection=InspectionLaw("deterministic", c))


class TestScheduleIndex:
    """The deterministic schedule's one index rule, judged on the float
    ages ``i * c``: a detection at the first age at or after the damage,
    a count of the ages at or before the time, at those ages and one
    float either side of them, where the quotient by c can round across."""

    def test_index_rule_on_the_float_ages(self):
        # both indices against their definitions on the products i * c, at
        # ages, one and two floats either side, midpoints and random times,
        # for spacings over the whole float range and up to 2^50 steps
        rng = np.random.default_rng(SCALAR_SEED)
        spacings = np.concatenate((EDGE_SPACINGS, [1 / 3, 1e-300, 1e300, 5e-324],
                                   rng.uniform(0.01, 100.0, 40), 10.0 ** rng.uniform(-300, 300, 40)))
        for c in spacings.tolist():
            i = np.concatenate((np.arange(0, 500), rng.integers(0, 2**50, 500))).astype(float)
            with np.errstate(over="ignore"):
                ages = i * c
                ages = ages[ages < np.inf]
                near = [ages, np.nextafter(ages, 0.0), np.nextafter(ages, np.inf)]
                near += [np.nextafter(near[1], 0.0), np.nextafter(near[2], np.inf)]
                t = np.concatenate(near + [ages + 0.5 * c, rng.uniform(0.0, ages.max(), 1000)])
                t = t[(t >= 0.0) & (t < np.inf) & (t / c < 2.0**51)]
            k = simulator._schedule_index(t, c, detection=True)
            assert ((k * c >= t) & ((k - 1) * c < t)).all(), c
            i = simulator._schedule_index(t, c)
            assert ((i * c <= t) & ((i + 1) * c > t)).all(), c

    @pytest.mark.parametrize("c", EDGE_SPACINGS)
    def test_detection_is_the_first_age_at_or_after_the_damage(self, c, monkeypatch):
        y_s = _edge_ages(c)
        y_d = np.random.default_rng(SCALAR_SEED).exponential(2.0 * c, size=y_s.size)
        _stub_damage_ages(monkeypatch, y_s)
        cfg = _spaced(c)
        batch = draw_cycles(_ScriptedRng([y_d]), cfg, y_s.size)
        one = [simulate_cycle(_ScriptedRng([v]), cfg) for v in y_d.tolist()]
        k = batch.inspection_count
        assert k[0] == 0 and batch.detection_age[0] == 0.0
        assert ((k - 1) * c < y_s).all() and (y_s <= k * c).all()
        assert list(batch) == one
        assert batch.failed.any() and not batch.failed.all()

    @pytest.mark.parametrize("c", EDGE_SPACINGS)
    def test_counts_at_the_ages_are_the_loop_counts(self, c, monkeypatch):
        # one cycle open past the 200th age: each time at an age or one
        # float below it counts the ages at or before it
        _stub_damage_ages(monkeypatch, np.array([200.5 * c]))
        cycles = draw_cycles(_ScriptedRng([[1e6 * c]]), _spaced(c), 1)
        times = _edge_ages(c)[:401].tolist()
        counts = counts_at_times(times, cycles)
        assert counts == loop_counts_at_times(times, cycles)
        assert [s.inspections for s in counts[1:201]] == list(range(1, 201))


class TestCountsAtTimesAgainstLoop:
    """counts_at_times counts the open cycles' elapsed inspections for all
    times in one pass; the per-time loop of tests/count_loop.py, one
    schedule search per time, is the reference."""

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    def test_same_snapshots(self, kind):
        cfg = make_config(shape=2, kind=kind, horizon=3e5)
        cycles = simulate_horizon(np.random.default_rng(BATCH_SEED), cfg)
        totals = cycles.totals
        end = float(totals.time[-1])
        # every planned inspection at its own time, where the batch still
        # runs; a deterministic cycle's schedule is i * c
        if kind == "deterministic":
            ages = np.concatenate([SPACING * np.arange(1, k + 1) for k in cycles.inspection_count])
        else:
            ages = cycles.inspection_ages
        planned = np.repeat(totals.time[:-1], cycles.inspection_count) + ages
        times = np.concatenate((
            np.random.default_rng(SCALAR_SEED).uniform(0.0, end, size=300),
            totals.time, planned[planned <= end], [0.0, end],
        ))
        np.random.default_rng(SCALAR_SEED).shuffle(times)
        times = times.tolist()
        snaps = counts_at_times(times, cycles)
        assert snaps == loop_counts_at_times(times, cycles)
        assert all(type(v) is int for s in snaps for v in (s.repairs, s.inspections, s.failures))
        assert counts_at_times([], cycles) == []

    @pytest.mark.parametrize("c", [0.07, 0.1, 1 / 3, 123.456789, 1000.0])
    def test_deterministic_counts_at_the_rounding_edges(self, c):
        # a deterministic batch counts its open cycle from the spacing, not
        # from stored products i * c: at every planned time start + i * c
        # and one float either side of it, where t - start may round across
        # i * c, and at one and two floats below every cycle end
        cfg = replace(make_config(mu=1 / (30 * c), lam=1 / (60 * c), horizon=5000 * c),
                      inspection=InspectionLaw("deterministic", c))
        cycles = simulate_horizon(np.random.default_rng(BATCH_SEED), cfg)
        totals = cycles.totals
        planned = np.concatenate([start + c * np.arange(1, k + 1) for start, k in
                                  zip(totals.time[:-1], cycles.inspection_count)])
        below = np.nextafter(totals.time[1:], 0.0)
        times = np.concatenate((planned, np.nextafter(planned, 0.0), np.nextafter(planned, np.inf),
                                below, np.nextafter(below, 0.0)))
        times = times[times <= totals.time[-1]].tolist()
        assert len(cycles) > 100 and len(times) > 10_000
        assert counts_at_times(times, cycles) == loop_counts_at_times(times, cycles)

    def test_batch_without_ages(self, tmp_path):
        # a batch read from an event log has no ages: its counts at every
        # cycle end and inside every cycle charged at most one inspection
        # are the simulated batch's; a time inside a cycle charged two or
        # more raises, the first such in the given order named
        for i, cfg in enumerate((make_config(horizon=3e5),
                                 make_config(shape=2, kind="uniform", horizon=3e5))):
            cycles = simulate_horizon(np.random.default_rng(BATCH_SEED), cfg)
            path = tmp_path / f"events{i}.csv"
            path.write_text(csv_text(cycles)[0])
            logged = read_event_log(path)
            totals = logged.totals
            times = np.concatenate((
                totals.time,
                np.random.default_rng(SCALAR_SEED).uniform(0.0, totals.time[-1], size=200),
            )).tolist()
            done = np.searchsorted(totals.time, times, side="right") - 1
            counts = np.append(logged.inspection_count, 0)[done]
            inside = (np.array(times) > totals.time[done]) & (counts >= 2)
            known = [t for t, u in zip(times, inside) if not u]
            unknown = [t for t, u in zip(times, inside) if u]
            assert len(known) > len(cycles) and unknown
            assert counts_at_times(known, logged) == counts_at_times(known, cycles)
            for t in unknown:
                with pytest.raises(ValueError, match="does not carry"):
                    counts_at_times([t], logged)
            first = re.escape(repr(unknown[0]))
            with pytest.raises(ValueError, match=f"^time {first} falls inside cycle"):
                counts_at_times(known[:5] + unknown, logged)


def _tied(law, y_s, seed, depth=3):
    """``y_s`` with every seventh cycle still going past step j set to its
    own age at step j, for j = 1..depth, under the generator ``seed``: each
    such cycle must end at exactly its damage time.  A tie at step j leaves
    every draw up to step j alone, so the ties of earlier steps hold."""
    y_s = y_s.copy()
    for j in range(1, depth + 1):
        k, _, ages = mask_uniform_schedule(np.random.default_rng(seed), law, y_s, True)
        going = np.flatnonzero(k > j)[::7]
        y_s[going] = ages[np.cumsum(k)[going] - k[going] + j - 1]
    return y_s


class TestUniformScheduleAgainstLoop:
    """_uniform_schedule carries its live cycles by integer index; the
    boolean-mask loop of tests/schedule_loop.py is the reference.  Both
    must draw the same gaps in the same order: the counts, detection ages,
    stored ages and the generator's state after the call agree to the bit,
    so this pins the uniform draw order."""

    @pytest.mark.parametrize("shape", [1, 2, 3, 4])
    @pytest.mark.parametrize("mu_c", [1e-2, 1.0, 10.0])
    @pytest.mark.parametrize("h_over_c", [0.1, 0.9])
    def test_same_draws(self, shape, mu_c, h_over_c):
        mu = 1e-3
        c = mu_c / mu
        law = InspectionLaw("uniform", c, h_over_c * c)
        ties = 0
        for n in (0, 1, simulator._CHUNK):
            drawn = sample_sane_many(np.random.default_rng(SCALAR_SEED + n), SaneLaw(shape, mu), n)
            zeros = drawn.copy()
            zeros[::37] = 0.0
            for y_s in (drawn, _tied(law, drawn, BATCH_SEED), _tied(law, zeros, BATCH_SEED)):
                for inspections in (False, True):
                    rngs = np.random.default_rng(BATCH_SEED), np.random.default_rng(BATCH_SEED)
                    new = simulator._uniform_schedule(rngs[0], law, y_s, inspections)
                    old = mask_uniform_schedule(rngs[1], law, y_s, inspections)
                    for a, b in zip(new, old):
                        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
                ties += int(np.count_nonzero((new[1] == y_s) & (y_s > 0.0)))
        assert ties > 0


class TestCsv:
    def test_event_log_round_trip(self, tmp_path, base_config):
        rng = np.random.default_rng(8)
        cycles = simulate_horizon(rng, replace(base_config, horizon=2e4))
        path = tmp_path / "events.csv"
        path.write_text(csv_text(cycles)[0])
        text = path.read_text()
        assert text.startswith("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n")
        assert "\r" not in text
        back = read_event_log(path)
        assert len(back) == len(cycles)
        assert back.inspection_ages.size == 0
        for orig, parsed in zip(cycles, back):
            assert parsed.time_to_damage == orig.time_to_damage
            assert parsed.damage_to_failure == orig.damage_to_failure
            assert parsed.detection_age == orig.detection_age
            assert parsed.failure_age == orig.failure_age
            assert parsed.length == orig.length
            assert parsed.failed == orig.failed
            assert parsed.inspection_count == orig.inspection_count
            assert parsed.inspections == ()
        assert back.counts() == cycles.counts()

    def test_snapshot_csv(self, tmp_path, base_config):
        rng = np.random.default_rng(9)
        cycles = simulate_horizon(rng, replace(base_config, horizon=2e4))
        path = tmp_path / "snaps.csv"
        path.write_text(csv_text(cycles, [1e4])[1])
        lines = path.read_text().splitlines()
        assert lines[0] == "t,n_r,n_i,n_f"
        assert len(lines) == len(cycles) + 2

    def test_seventeen_digit_times(self, tmp_path):
        cfg = make_config()
        rec = _cycle(1234.56789012345678, [1000.0], failed=False)
        path = tmp_path / "one.csv"
        path.write_text(csv_text(batch_of([rec]))[0])
        assert format(1234.56789012345678, ".17g") in path.read_text()

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_event_log(path)


class TestEventLogReader:
    """read_event_log takes one np.loadtxt pass on plain logs and falls back
    to the row parser on anything else; on every log both must give the
    same columns to the bit, or the same line-numbered error."""

    HEADER = "cycle,y_s,y_d,k_r,v_s,z_d,x_r,end"
    GOOD = "1,1500.5,800.25,2,2000,2300.75,2000,Detected"
    FAILED = "2,300,200.5,1,1000,500.5,500.5,Failed"

    @staticmethod
    def _outcome(reader, path):
        try:
            batch = reader(path)
        except ValueError as exc:
            return str(exc)
        columns = [getattr(batch, name) for name in simulator._PER_CYCLE]
        return [(c.dtype.str, c.tobytes()) for c in columns], batch.inspection_ages.size

    # (second data line, whether the one-pass reader keeps it)
    @pytest.mark.parametrize(
        "line, plain",
        [
            (FAILED, True),
            ("2,300,200.5,+1,1000,500.5,500.5,Failed", True),
            ("2,300,200.5,1_0,1000,500.5,500.5,Failed", False),
            ("2,300,200.5,1.0,1000,500.5,500.5,Failed", False),
            ("2,300,200.5,2**3,1000,500.5,500.5,Failed", False),
            ("2,1_0,200.5,1,1000,500.5,500.5,Failed", False),
            ("2,nan,200.5,1,1000,500.5,500.5,Failed", False),
            ("2,300,inf,1,1000,500.5,500.5,Failed", False),
            ("2,300,1e400,1,1000,500.5,500.5,Failed", False),
            ("2,-0.0,200.5,1,1000,500.5,-0.0,Failed", True),
            ("2,-1e-300,200.5,1,1000,500.5,500.5,Failed", False),
            ("2, 300 ,\t200.5, 1 ,1000,500.5,500.5,Failed", True),
            ("  2,300,200.5,1,1000,500.5,500.5,Failed  ", False),
            ("2,300,200.5,1,1000,500.5,500.5, Failed", False),
            ("2,300,200.5,1,1000,500.5,500.5,Failedx", False),
            ("2,300,200.5,1,1000,500.5,500.5,Detectedx", False),
            ("2,300,200.5,1,1000,500.5,500.5,Detected#x", False),
            ("2,300,200.5,1,1000,500.5,500.5,Detected\0", False),
            ("2,300\x1c,200.5,1,1000,500.5,500.5,Failed", False),
            ("2,300,200.5,١,1000,500.5,500.5,Failed", False),
            ("2,300,200.5,0,1000,500.5,500.5,Failed", False),
            ("2,300,200.5,9223372036854775808,1000,500.5,500.5,Failed", False),
            ("2,300,200.5,1,1000,500.5,500.5,Failed,", False),
            ("2,300,200.5,1,1000,500.5,Failed", False),
            ("anything at all,300,200.5,1,1000,500.5,500.5,Failed", True),
            ("", True),
            ("   ", False),
        ],
        ids=["plain", "plus-count", "underscore-count", "float-count", "expression-count",
             "underscore-time", "nan", "inf", "overflow", "negative-zero", "negative-time",
             "spaces-in-fields", "spaces-around-line", "space-before-end", "long-end",
             "detectedx", "detected-hash", "nul-end", "file-separator", "arabic-digit",
             "zero-count", "huge-count", "nine-fields", "seven-fields", "free-cycle-text",
             "blank-line", "spaces-only-line"],
    )
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_paths_agree(self, tmp_path, line, plain, newline):
        path = tmp_path / "log.csv"
        rows = [self.HEADER, self.GOOD, line, "", self.GOOD, ""]
        path.write_bytes(newline.join(rows).encode("utf-8"))
        expected = self._outcome(simulator._read_rows, path)
        assert self._outcome(read_event_log, path) == expected
        assert (simulator._read_plain_log(path) is not None) == plain
        if isinstance(expected, str):
            assert expected.startswith("line 3: ")

    @pytest.mark.parametrize("body", ["", "\n", "\n\n  \n"], ids=["bare", "newline", "blank-lines"])
    def test_header_only_log_is_empty(self, tmp_path, body):
        path = tmp_path / "log.csv"
        path.write_text(self.HEADER + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            batch = read_event_log(path)
        assert caught == []
        assert len(batch) == 0 and batch.counts().repairs == 0

    def test_lone_carriage_return_ends_a_line(self, tmp_path):
        # text mode reads a lone CR as a line end; the one-pass reader
        # leaves such a log to the row parser
        path = tmp_path / "log.csv"
        path.write_bytes("\r".join([self.HEADER, self.GOOD, self.FAILED, ""]).encode())
        assert simulator._read_plain_log(path) is None
        assert len(read_event_log(path)) == 2

    def test_written_logs_take_one_pass(self, tmp_path):
        batch = draw_cycles(np.random.default_rng(4), make_config(), 500, inspections=True)
        path = tmp_path / "events.csv"
        path.write_text(csv_text(batch)[0])
        assert simulator._read_plain_log(path) is not None
        assert self._outcome(read_event_log, path) == self._outcome(simulator._read_rows, path)


class TestCountBound:
    """``config.MAX_COUNT`` in the library: the draw loop refuses a config
    predicted to need 2**53 inspections a cycle, and the running totals
    refuse a total at or past it, also one carried over from a block
    before."""

    @staticmethod
    def _log_batch(counts):
        n = len(counts)
        ones = np.ones(n)
        return CycleBatch(ones, ones, np.array(counts, dtype=np.int64), ones, 2 * ones, ones,
                          np.zeros(n, dtype=bool), np.empty(0))

    @pytest.mark.parametrize("kind", ["deterministic", "uniform"])
    def test_draw_loop_refuses_a_predicted_count(self, kind, monkeypatch):
        # E[K] >= shape / (mu (c + h)): at mu = 1e-300 and c = 1000, about 1e297
        def never(*args):
            raise AssertionError("drew a chunk")

        monkeypatch.setattr(simulator, "_draw_chunk", never)
        chunks = cycle_chunks(np.random.default_rng(1), make_config(kind=kind, mu=1e-300), 10)
        with pytest.raises(ConfigError, match=r"predict at least (1e\+297|9\.09e\+296) inspections "
                                              r"per cycle: counts at or past 2\*\*53 are not exact$"):
            next(chunks)

    @pytest.mark.parametrize("shape", [1, 3])
    def test_prediction_at_the_bound(self, shape):
        # shape / (mu c) = 2**53 exactly is refused, one ulp of mu above it is not
        gaps = InspectionLaw("deterministic", 1.0)
        mu = shape / MAX_COUNT
        with pytest.raises(ConfigError, match="predict at least 9.01e\\+15 inspections"):
            check_counts(replace(make_config(shape, mu=mu), inspection=gaps))
        check_counts(replace(make_config(shape, mu=math.nextafter(mu, 1.0)), inspection=gaps))

    def test_totals_refuse_a_total_past_the_bound(self):
        batch = self._log_batch([2**52, 2**52 - 1, 1, 1])
        with pytest.raises(ConfigError, match="^an inspection total reaches 9007199254740992: "):
            batch.counts()
        assert self._log_batch([2**52, 2**52 - 1]).counts().inspections == 2**53 - 1

    def test_totals_refuse_a_carried_total(self):
        # each block's own total is below the bound; the carried one is not
        blocks = [self._log_batch([2**52]), self._log_batch([2**52 - 1]),
                  self._log_batch([1])]
        assert counts_at_times([2.0], blocks[:2])[0].inspections == 2**53 - 1
        with pytest.raises(ConfigError, match="^an inspection total reaches 9007199254740992: "):
            counts_at_times([3.0], blocks)

    def test_totals_refuse_before_a_wrap(self):
        # 1100 counts just below 2**53 total past 2**63: the first total at
        # or past the bound is named, not a wrapped one
        batch = self._log_batch([2**53 - 1] * 1100)
        with pytest.raises(ConfigError, match=f"^an inspection total reaches {2 * (2**53 - 1)}: "):
            batch.counts()
