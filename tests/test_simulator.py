import math

import numpy as np
import pytest

from cbmkit import formulas as F
from cbmkit import simulator
from cbmkit.laws import InspectionLaw
from cbmkit.oracle import MIN_SAMPLES, verification_rows
from cbmkit.simulator import (
    CycleRecord,
    Trajectory,
    age_and_index,
    counts_at,
    read_event_log,
    simulate_cycle,
    simulate_cycles,
    simulate_horizon,
    write_event_log,
    write_snapshots,
)
from conftest import make_config

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


def _manual_trajectory(cycles, config):
    return Trajectory(tuple(cycles), (), seed=config.seed, config=config)


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
        assert many.records(1) == [one]

    def test_tie_counts_as_failure(self):
        # failure at 1500 + 500 == the detection at 2000
        cfg = make_config()
        one = simulate_cycle(_ScriptedRng([1500.0, 500.0]), cfg)
        many = simulate_cycles(_ScriptedRng([[1500.0], [500.0]]), cfg, 1, inspections=True)
        assert one.failed and one.length == 2000.0
        assert many.records(1) == [one]

    def test_horizon_blocks_join_seamlessly(self, base_config):
        # long enough for several draw blocks; every end snapshot carries
        # the running totals across block boundaries
        trajectory = simulate_horizon(np.random.default_rng(BATCH_SEED), base_config, horizon=2e7)
        cycles = trajectory.cycles
        assert len(cycles) > 2 * simulator._CHUNK
        assert [s.time for s in trajectory.snapshots] == list(trajectory.repair_epochs)
        assert [s.repairs for s in trajectory.snapshots] == list(range(1, len(cycles) + 1))
        assert [s.inspections for s in trajectory.snapshots] == np.cumsum(
            [c.inspection_count for c in cycles]).tolist()
        assert [s.failures for s in trajectory.snapshots] == np.cumsum(
            [c.failed for c in cycles]).tolist()

    def test_uniform_trajectory_counts_match_stored_ages(self):
        cfg = make_config(shape=2, kind="uniform")
        law = cfg.inspection
        rng = np.random.default_rng(BATCH_SEED)
        trajectory = simulate_horizon(rng, cfg, horizon=2e5)
        starts = (0.0,) + trajectory.repair_epochs[:-1]
        ends = trajectory.repair_epochs
        for cyc in trajectory.cycles:
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
            for cyc, start, end in zip(trajectory.cycles, starts, ends):
                if end <= t:
                    repairs += 1
                    failures += cyc.failed
                    inspections += len(cyc.inspections)
                elif start <= t:
                    inspections += sum(1 for a in cyc.inspections if a <= t - start)
            snap = counts_at(t, trajectory)
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


class TestSimulateHorizon:
    def test_stops_at_first_cycle_end_past_horizon(self, base_config):
        rng = np.random.default_rng(3)
        trajectory = simulate_horizon(rng, base_config, horizon=1e5)
        # one snapshot per cycle end, the last one being the stop time
        assert len(trajectory.snapshots) == len(trajectory.cycles)
        final = trajectory.final_snapshot
        epochs = trajectory.repair_epochs
        assert final.time == epochs[-1]
        assert final.time >= 1e5
        assert epochs[-2] < 1e5
        assert final.repairs == len(trajectory.cycles)
        assert final.failures == sum(1 for c in trajectory.cycles if c.failed)
        assert final.inspections == sum(c.inspection_count for c in trajectory.cycles)

    def test_degenerate_horizon_single_overshooting_cycle(self):
        # a horizon below the first inspection still completes one cycle
        # (the stopping rule includes the overshooting cycle); counts at
        # grid times before that cycle's end are zero
        cfg = make_config(seed=5)
        rng = np.random.default_rng(5)
        trajectory = simulate_horizon(rng, cfg, horizon=500.0, grid=[400.0])
        assert len(trajectory.cycles) == 1
        assert len(trajectory.snapshots) == 2
        grid_snap = trajectory.snapshots[0]
        assert (grid_snap.repairs, grid_snap.failures) == (0, 0)
        assert grid_snap.inspections == sum(
            1 for age in trajectory.cycles[0].inspections if age <= 400.0
        )

    def test_determinism(self, base_config):
        t1 = simulate_horizon(np.random.default_rng(99), base_config, horizon=2e5)
        t2 = simulate_horizon(np.random.default_rng(99), base_config, horizon=2e5)
        assert t1.cycles == t2.cycles
        assert t1.snapshots == t2.snapshots

    def test_rejects_bad_horizon(self, base_config):
        with pytest.raises(ValueError):
            simulate_horizon(np.random.default_rng(0), base_config, horizon=0.0)

    def test_law_of_large_numbers_bands(self, any_config):
        # count rates against their limits within 4 sqrt(R_ii / T)
        horizon = 1e7
        rng = np.random.default_rng(17)
        trajectory = simulate_horizon(rng, any_config, horizon=horizon)
        final = trajectory.final_snapshot
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
        trajectory = simulate_horizon(rng, base_config, horizon=1e7)
        epochs = np.asarray(trajectory.repair_epochs)
        failed = np.array([c.failed for c in trajectory.cycles])
        fail_times = epochs[failed]
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
        final = simulate_horizon(rng, cfg, horizon=5e7).final_snapshot
        assert abs(final.repairs - 33501) / 33501 < 0.05
        assert abs(final.failures - 8255) / 8255 < 0.10
        assert abs(final.inspections - 53116) / 53116 < 0.05

    def test_reconstruction_from_cycles(self, any_config):
        rng = np.random.default_rng(31)
        grid = [2e4, 5e4, 9e4]
        trajectory = simulate_horizon(rng, any_config, horizon=1e5, grid=grid)
        assert len(trajectory.snapshots) == len(trajectory.cycles) + len(grid)
        times = [s.time for s in trajectory.snapshots]
        assert times == sorted(times)
        epochs = trajectory.repair_epochs
        for snap in trajectory.snapshots:
            done = [c for c, e in zip(trajectory.cycles, epochs) if e <= snap.time]
            assert snap.repairs == len(done)
            assert snap.failures == sum(1 for c in done if c.failed)
            planned_tail = 0
            if snap.repairs < len(trajectory.cycles):
                last = epochs[snap.repairs - 1] if snap.repairs else 0.0
                nxt = trajectory.cycles[snap.repairs]
                planned_tail = sum(1 for a in nxt.inspections if a <= snap.time - last)
            assert snap.inspections == sum(c.inspection_count for c in done) + planned_tail


class TestAgeAndIndex:
    def test_at_repair_epoch(self):
        cfg = make_config()
        cycles = [_cycle(1500.0, [1000.0, 2000.0], failed=True, count=2),
                  _cycle(3000.0, [1000.0, 2000.0, 3000.0], failed=False)]
        trajectory = _manual_trajectory(cycles, cfg)
        assert age_and_index(1500.0, trajectory) == (0.0, 0)

    def test_open_cycle_count(self):
        cfg = make_config()
        cycles = [_cycle(1500.0, [1000.0, 2000.0], failed=True, count=2),
                  _cycle(3000.0, [1000.0, 2000.0, 3000.0], failed=False)]
        trajectory = _manual_trajectory(cycles, cfg)
        assert age_and_index(1500.0 + 2500.0, trajectory) == (2500.0, 2)

    def test_beyond_horizon_rejected(self):
        cfg = make_config()
        trajectory = _manual_trajectory([_cycle(1000.0, [1000.0], failed=False)], cfg)
        with pytest.raises(ValueError):
            age_and_index(1000.5, trajectory)

    def test_counts_at_matches_age_index(self):
        cfg = make_config()
        cycles = [_cycle(1500.0, [1000.0, 2000.0], failed=True, count=2),
                  _cycle(3000.0, [1000.0, 2000.0, 3000.0], failed=False)]
        trajectory = _manual_trajectory(cycles, cfg)
        snap = counts_at(4000.0, trajectory)
        assert (snap.repairs, snap.inspections, snap.failures) == (1, 4, 1)


class TestCsv:
    def test_event_log_round_trip(self, tmp_path, base_config):
        rng = np.random.default_rng(8)
        trajectory = simulate_horizon(rng, base_config, horizon=2e4)
        path = tmp_path / "events.csv"
        write_event_log(path, trajectory.cycles)
        text = path.read_text()
        assert text.startswith("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n")
        assert "\r" not in text
        back = read_event_log(path)
        assert len(back) == len(trajectory.cycles)
        for orig, parsed in zip(trajectory.cycles, back):
            assert parsed.time_to_damage == orig.time_to_damage
            assert parsed.length == orig.length
            assert parsed.failed == orig.failed
            assert parsed.inspection_count == orig.inspection_count

    def test_snapshot_csv(self, tmp_path, base_config):
        rng = np.random.default_rng(9)
        trajectory = simulate_horizon(rng, base_config, horizon=2e4, grid=[1e4])
        path = tmp_path / "snaps.csv"
        write_snapshots(path, trajectory.snapshots)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,n_r,n_i,n_f"
        assert len(lines) == len(trajectory.snapshots) + 1

    def test_seventeen_digit_times(self, tmp_path):
        cfg = make_config()
        rec = _cycle(1234.56789012345678, [1000.0], failed=False)
        path = tmp_path / "one.csv"
        write_event_log(path, [rec])
        assert format(1234.56789012345678, ".17g") in path.read_text()

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_event_log(path)
