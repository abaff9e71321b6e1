import math
import warnings

import numpy as np
import pytest

from cbmkit import formulas as F
from cbmkit import simulator
from cbmkit.laws import InspectionLaw
from cbmkit.oracle import MIN_SAMPLES, verification_rows
from cbmkit.simulator import (
    CountSnapshot,
    CycleRecord,
    counts_at,
    read_event_log,
    simulate_cycle,
    simulate_cycles,
    simulate_horizon,
    snapshot_rows,
    write_event_log,
    write_snapshots,
)
from conftest import batch_of, make_config

# Seeds of the batch-engine tests, fixed once before their first run.
SCALAR_SEED = 7001
BATCH_SEED = 7002


class _ScriptedRng:
    """Stands in for a generator; pops pre-chosen exponential draws (a
    value, or an array shaped as a sized draw asks)."""

    def __init__(self, values):
        self.values = list(values)

    def exponential(self, scale, size=None):
        value = self.values.pop(0)
        return value if size is None else np.reshape(value, size)


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
        batch = simulate_cycles(np.random.default_rng(BATCH_SEED), cfg, n)
        pairs = (
            ([c.inspection_count for c in scalar], batch.inspection_count),
            ([c.failed for c in scalar], batch.failed),
            ([c.length for c in scalar], batch.length),
        )
        for one, many in pairs:
            z = _two_sample_z(np.asarray(one, dtype=float), many.astype(float))
            assert abs(z) <= 4.0

    def test_deterministic_count_is_ceiling(self):
        for shape in (1, 2):
            cfg = make_config(shape=shape)
            c = cfg.inspection.spacing
            batch = simulate_cycles(np.random.default_rng(BATCH_SEED), cfg, 50_000)
            y_s, det = batch.time_to_damage, batch.detection_age
            assert np.array_equal(batch.inspection_count, np.ceil(y_s / c))
            assert (y_s <= det).all()
            assert (det < y_s + c).all()

    def test_spacing_multiples_not_running_sums(self):
        # with c = 0.1 the tenth inspection sits at 10 * 0.1 == 1.0, while
        # ten repeated additions of 0.1 stop short of it
        cfg = make_config().with_overrides(inspection=InspectionLaw("deterministic", 0.1))
        ages = tuple(i * 0.1 for i in range(1, 11))
        assert ages[-1] == 1.0 and sum([0.1] * 10) != 1.0
        one = simulate_cycle(_ScriptedRng([0.95, 10.0]), cfg)
        many = simulate_cycles(_ScriptedRng([[0.95], [10.0]]), cfg, 1, inspections=True)
        assert one.inspections == ages
        assert one.detection_age == 1.0
        assert list(many) == [one]

    def test_tie_counts_as_failure(self):
        # failure at 1500 + 500 == the detection at 2000
        cfg = make_config()
        one = simulate_cycle(_ScriptedRng([1500.0, 500.0]), cfg)
        many = simulate_cycles(_ScriptedRng([[1500.0], [500.0]]), cfg, 1, inspections=True)
        assert one.failed and one.length == 2000.0
        assert list(many) == [one]

    def test_horizon_blocks_join_seamlessly(self, base_config):
        # long enough for several draw blocks; every end snapshot carries
        # the running totals across block boundaries
        cycles = simulate_horizon(np.random.default_rng(BATCH_SEED), base_config, horizon=2e7)
        assert len(cycles) > 2 * simulator._CHUNK
        times, repairs, inspections, failures = map(list, zip(*snapshot_rows(cycles)))
        assert times == np.cumsum([c.length for c in cycles]).tolist()
        assert repairs == list(range(1, len(cycles) + 1))
        assert inspections == np.cumsum([c.inspection_count for c in cycles]).tolist()
        assert failures == np.cumsum([c.failed for c in cycles]).tolist()

    def test_uniform_trajectory_counts_match_stored_ages(self):
        cfg = make_config(shape=2, kind="uniform")
        law = cfg.inspection
        rng = np.random.default_rng(BATCH_SEED)
        cycles = simulate_horizon(rng, cfg, horizon=2e5)
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
            snap = counts_at(t, cycles)
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
        whole = simulate_cycles(np.random.default_rng(BATCH_SEED), cfg, n)
        rng = np.random.default_rng(BATCH_SEED)
        sizes = [simulator._CHUNK] * (n // simulator._CHUNK) + [1]
        parts = [simulate_cycles(rng, cfg, size) for size in sizes]
        for name in ("time_to_damage", "damage_to_failure", "inspection_count",
                     "detection_age", "failure_age", "length", "failed"):
            joined = np.concatenate([getattr(p, name) for p in parts])
            assert np.array_equal(getattr(whole, name), joined)


class TestCycleBatchRows:
    """A batch is the only cycle container; rows come out as records on
    demand."""

    @pytest.mark.parametrize("shape, kind", [(1, "deterministic"), (2, "uniform")])
    def test_rows_match_columns(self, shape, kind):
        cfg = make_config(shape=shape, kind=kind)
        batch = simulate_cycles(np.random.default_rng(BATCH_SEED), cfg, 300, inspections=True)
        rows = list(batch)
        assert len(batch) == len(rows) == 300
        offsets = batch.totals.inspections
        for i, row in enumerate(rows):
            assert batch[i] == row
            assert row.inspections == tuple(batch.inspection_ages[offsets[i]:offsets[i + 1]])
            assert row.inspection_count == len(row.inspections)
            assert row.detection_age == row.inspections[-1]
            assert (row.length, row.failed) == (batch.length[i], batch.failed[i])
        assert batch[-1] == rows[-1]
        with pytest.raises(IndexError):
            batch[300]

    def test_head_keeps_the_schedules(self):
        cfg = make_config(shape=2, kind="uniform")
        batch = simulate_cycles(np.random.default_rng(BATCH_SEED), cfg, 50, inspections=True)
        assert list(batch.head(20)) == list(batch)[:20]
        undrawn = simulate_cycles(np.random.default_rng(BATCH_SEED), cfg, 50)
        assert undrawn.inspection_ages.size == 0
        assert all(row.inspections == () for row in undrawn.head(20))

    def test_totals_add_left_to_right(self):
        cfg = make_config(shape=2, kind="uniform")
        batch = simulate_cycles(np.random.default_rng(BATCH_SEED), cfg, 3000)
        running = [0.0]
        for x in batch.length.tolist():
            running.append(running[-1] + x)
        assert batch.totals.time.tolist() == running
        counts = batch.counts()
        assert (counts.time, counts.repairs) == (running[-1], 3000)
        assert counts.inspections == int(batch.inspection_count.sum())
        assert counts.failures == int(batch.failed.sum())


class TestSimulateHorizon:
    def test_stops_at_first_cycle_end_past_horizon(self, base_config):
        rng = np.random.default_rng(3)
        cycles = simulate_horizon(rng, base_config, horizon=1e5)
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

    def test_degenerate_horizon_single_overshooting_cycle(self):
        # a horizon below the first inspection still completes one cycle
        # (the stopping rule includes the overshooting cycle); counts at
        # grid times before that cycle's end are zero
        cfg = make_config(seed=5)
        rng = np.random.default_rng(5)
        cycles = simulate_horizon(rng, cfg, horizon=500.0)
        assert len(cycles) == 1
        rows = list(snapshot_rows(cycles, [400.0]))
        assert len(rows) == 2
        t, repairs, inspections, failures = rows[0]
        assert (t, repairs, failures) == (400.0, 0, 0)
        assert inspections == sum(1 for age in cycles[0].inspections if age <= 400.0)

    def test_snapshot_rows_are_the_time_sorted_snapshots(self, base_config, tmp_path):
        # grid times in any order, one time twice and one at a cycle end:
        # the rows are the stable time sort of the grid snapshots then the
        # cycle ends
        cycles = simulate_horizon(np.random.default_rng(31), base_config, horizon=1e5)
        totals = cycles.totals
        grid = (9e4, float(totals.time[4]), 2e4, 2e4, 0.0)
        ends = [
            CountSnapshot(float(totals.time[i]), i, int(totals.inspections[i]),
                          int(totals.failures[i]))
            for i in range(1, len(cycles) + 1)
        ]
        expected = sorted((*(counts_at(t, cycles) for t in grid), *ends), key=lambda s: s.time)
        assert [CountSnapshot(*row) for row in snapshot_rows(cycles, grid)] == expected
        path = tmp_path / "snaps.csv"
        write_snapshots(path, snapshot_rows(cycles, grid))
        assert path.read_text().splitlines()[1:] == [
            f"{s.time:.17g},{s.repairs},{s.inspections},{s.failures}" for s in expected
        ]

    def test_determinism(self, base_config):
        c1 = simulate_horizon(np.random.default_rng(99), base_config, horizon=2e5)
        c2 = simulate_horizon(np.random.default_rng(99), base_config, horizon=2e5)
        assert list(c1) == list(c2)
        assert list(snapshot_rows(c1)) == list(snapshot_rows(c2))

    def test_rejects_bad_horizon(self, base_config):
        with pytest.raises(ValueError):
            simulate_horizon(np.random.default_rng(0), base_config, horizon=0.0)

    def test_law_of_large_numbers_bands(self, any_config):
        # count rates against their limits within 4 sqrt(R_ii / T)
        horizon = 1e7
        rng = np.random.default_rng(17)
        final = simulate_horizon(rng, any_config, horizon=horizon).counts()
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
        cycles = simulate_horizon(rng, base_config, horizon=1e7)
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
        final = simulate_horizon(rng, cfg, horizon=5e7).counts()
        assert abs(final.repairs - 33501) / 33501 < 0.05
        assert abs(final.failures - 8255) / 8255 < 0.10
        assert abs(final.inspections - 53116) / 53116 < 0.05

    def test_reconstruction_from_cycles(self, any_config):
        rng = np.random.default_rng(31)
        grid = [2e4, 5e4, 9e4]
        cycles = simulate_horizon(rng, any_config, horizon=1e5)
        snapshots = [CountSnapshot(*row) for row in snapshot_rows(cycles, grid)]
        assert len(snapshots) == len(cycles) + len(grid)
        times = [s.time for s in snapshots]
        assert times == sorted(times)
        epochs = cycles.totals.time[1:].tolist()
        for snap in snapshots:
            done = [c for c, e in zip(cycles, epochs) if e <= snap.time]
            assert snap.repairs == len(done)
            assert snap.failures == sum(1 for c in done if c.failed)
            planned_tail = 0
            if snap.repairs < len(cycles):
                last = epochs[snap.repairs - 1] if snap.repairs else 0.0
                nxt = cycles[snap.repairs]
                planned_tail = sum(1 for a in nxt.inspections if a <= snap.time - last)
            assert snap.inspections == sum(c.inspection_count for c in done) + planned_tail


class TestAgeAndIndex:
    """The age of the repair process and the planned inspections elapsed
    in the open cycle, as counts_at reads them from a hand-built batch: a
    failed cycle of length 1500 charged two inspections, then a detected
    one of length 3000 with inspections at ages 1000, 2000 and 3000."""

    CYCLES = [_cycle(1500.0, [1000.0, 2000.0], failed=True, count=2),
              _cycle(3000.0, [1000.0, 2000.0, 3000.0], failed=False)]

    @staticmethod
    def _counts(t, records):
        snap = counts_at(t, batch_of(records))
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
    """counts_at searches the running totals built once per batch; a walk
    over the cycles is the reference."""

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
            snap = counts_at(t, cycles)
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
        cfg = make_config(shape=shape, kind=kind, seed=11)
        cycles = simulate_horizon(np.random.default_rng(11), cfg, horizon=3e5)
        assert len(cycles) > 100
        self._assert_brute(cycles)

    def test_built_once(self):
        cycles = batch_of([_cycle(1500.0, [1000.0, 2000.0], failed=True, count=2),
                           _cycle(3000.0, [1000.0, 2000.0, 3000.0], failed=False)])
        assert cycles.totals is cycles.totals


class TestCsv:
    def test_event_log_round_trip(self, tmp_path, base_config):
        rng = np.random.default_rng(8)
        cycles = simulate_horizon(rng, base_config, horizon=2e4)
        path = tmp_path / "events.csv"
        write_event_log(path, cycles)
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
        cycles = simulate_horizon(rng, base_config, horizon=2e4)
        path = tmp_path / "snaps.csv"
        write_snapshots(path, snapshot_rows(cycles, [1e4]))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,n_r,n_i,n_f"
        assert len(lines) == len(cycles) + 2

    def test_seventeen_digit_times(self, tmp_path):
        cfg = make_config()
        rec = _cycle(1234.56789012345678, [1000.0], failed=False)
        path = tmp_path / "one.csv"
        write_event_log(path, batch_of([rec]))
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
        batch = simulate_cycles(np.random.default_rng(4), make_config(), 500, inspections=True)
        path = tmp_path / "events.csv"
        write_event_log(path, batch)
        assert simulator._read_plain_log(path) is not None
        assert self._outcome(read_event_log, path) == self._outcome(simulator._read_rows, path)
