import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmkit import cli
from cbmkit.config import ConfigError, parse_config, serialize_config
from cbmkit.oracle import verification_rows

CONFIG_TEXT = """\
# base run
sane.shape = 1
sane.rate = 0.001
damage.rate = 0.0005
inspection.kind = deterministic
inspection.c = 1000
inspection.h = 0
horizon = 200000
seed = 1
confidence = 0.95
grid = 50000, 100000
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


class TestConfigFormat:
    def test_round_trip_is_identity(self):
        cfg = parse_config(CONFIG_TEXT)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("sane.shape = 1\nbogus.key = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("sane.shape = 1\nsane.shape = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("sane.shape 1\n")

    def test_grid_outside_horizon_rejected(self):
        bad = CONFIG_TEXT.replace("grid = 50000, 100000", "grid = 900000")
        with pytest.raises(ConfigError):
            parse_config(bad)


class TestSimulateCommand:
    def test_writes_both_csvs_deterministically(self, tmp_path, config_file):
        ev1, sn1 = tmp_path / "e1.csv", tmp_path / "s1.csv"
        ev2, sn2 = tmp_path / "e2.csv", tmp_path / "s2.csv"
        assert cli.main(["simulate", "--config", config_file,
                         "--events", str(ev1), "--snapshots", str(sn1)]) == 0
        assert cli.main(["simulate", "--config", config_file,
                         "--events", str(ev2), "--snapshots", str(sn2)]) == 0
        assert ev1.read_bytes() == ev2.read_bytes()
        assert sn1.read_bytes() == sn2.read_bytes()
        lines = sn1.read_text().splitlines()
        assert lines[0] == "t,n_r,n_i,n_f"
        # one row per cycle end plus the two grid rows
        ev_cycles = len(ev1.read_text().splitlines()) - 1
        assert len(lines) == ev_cycles + 2 + 1
        assert float(lines[-1].split(",")[0]) >= 200000.0

    def test_missing_seed_is_config_error(self, tmp_path, config_file):
        code = cli.main([
            "simulate", "--config", config_file, "--seed", "",
            "--events", str(tmp_path / "e.csv"), "--snapshots", str(tmp_path / "s.csv"),
        ])
        assert code == 2

    def test_flag_overrides_config(self, tmp_path, config_file):
        ev, sn = tmp_path / "e.csv", tmp_path / "s.csv"
        code = cli.main([
            "simulate", "--config", config_file, "--horizon", "500",
            "--grid", "", "--events", str(ev), "--snapshots", str(sn),
        ])
        assert code == 0
        # one overshooting cycle in the log
        assert len(ev.read_text().splitlines()) == 2

    def test_bad_config_value_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(CONFIG_TEXT.replace("sane.rate = 0.001", "sane.rate = fast"))
        code = cli.main([
            "simulate", "--config", str(bad),
            "--events", str(tmp_path / "e.csv"), "--snapshots", str(tmp_path / "s.csv"),
        ])
        assert code == 2


class TestEstimateCommand:
    def test_reproduce_table1(self, capsys):
        # presets are self-contained: no config file or flags needed
        assert cli.main(["estimate", "--reproduce", "table1"]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().splitlines()
        assert header.startswith("method,mu_hat,mu_lo,mu_hi,lambda_hat")
        cells = row.split(",")
        assert cells[0] == "AM"
        assert abs(float(cells[1]) - 0.000996184) / 0.000996184 < 1e-4
        assert abs(float(cells[4]) - 0.000504197) / 0.000504197 < 1e-4

    def test_counts_without_failures_exit_3(self, config_file, capsys):
        code = cli.main(["estimate", "--config", config_file,
                         "--counts", "500", "900", "0", "700000"])
        assert code == 3
        assert "not identifiable" in capsys.readouterr().err

    def test_counts_interval_choice(self, config_file, capsys):
        args = ["estimate", "--config", config_file,
                "--counts", "33501", "53116", "8255", "50001908"]
        assert cli.main(args) == 0
        delta_row = capsys.readouterr().out.strip().splitlines()[1]
        assert cli.main(args + ["--interval", "tabulated"]) == 0
        tab_row = capsys.readouterr().out.strip().splitlines()[1]
        assert delta_row != tab_row

    def test_estimate_from_events_both_methods(self, tmp_path, config_file, capsys):
        ev, sn = tmp_path / "e.csv", tmp_path / "s.csv"
        cli.main(["simulate", "--config", config_file, "--horizon", "2000000",
                  "--grid", "", "--events", str(ev), "--snapshots", str(sn)])
        out_path = tmp_path / "est.csv"
        code = cli.main(["estimate", "--config", config_file, "--horizon", "2000000",
                         "--events", str(ev), "--method", "both", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("AM,")
        assert lines[2].startswith("MLE,")
        mu_am, mu_mle = float(lines[1].split(",")[1]), float(lines[2].split(",")[1])
        assert abs(mu_am - 1e-3) / 1e-3 < 0.2
        assert abs(mu_mle - 1e-3) / 1e-3 < 0.2

    def test_mle_needs_events(self, config_file, capsys):
        code = cli.main(["estimate", "--config", config_file, "--method", "mle",
                         "--counts", "100", "200", "30", "150000"])
        assert code == 2

    def test_no_inputs_is_config_error(self, config_file):
        assert cli.main(["estimate", "--config", config_file]) == 2

    def test_reproduce_table2_values(self, capsys):
        assert cli.main(["estimate", "--reproduce", "table2"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert abs(float(row[1]) - 0.0010054) / 0.0010054 < 1e-3
        assert abs(float(row[4]) - 0.0004918) / 0.0004918 < 1e-3


class TestConvergenceCommand:
    def test_single_point_grid(self, tmp_path, config_file):
        out = tmp_path / "series.csv"
        code = cli.main(["convergence", "--config", config_file,
                         "--grid", "200000", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mu_hat,lambda_hat,mu_lo,mu_hi,lambda_lo,lambda_hi"
        assert len(lines) == 2
        assert lines[1].count(",") == 6

    def test_infeasible_prefix_has_empty_fields(self, tmp_path, config_file):
        out = tmp_path / "series.csv"
        code = cli.main(["convergence", "--config", config_file,
                         "--grid", "1500, 200000", "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        first = rows[0].split(",")
        # before the first failure only the damage rate (at most) is filled
        assert first[2] == "" and first[5] == "" and first[6] == ""
        last = rows[1].split(",")
        assert all(cell != "" for cell in last)
        # final-row intervals bracket the configured rates (coverage-scale
        # check on this seed)
        assert float(last[3]) < 0.001 < float(last[4])
        assert float(last[5]) < 0.0005 < float(last[6])

    def test_grid_count_flag(self, tmp_path, config_file):
        out = tmp_path / "series.csv"
        code = cli.main(["convergence", "--config", config_file, "--grid-count", "4",
                         "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5

    def test_needs_grid(self, tmp_path, config_file):
        code = cli.main(["convergence", "--config", config_file, "--grid", "",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestVerifyCommand:
    def test_passes_and_writes_report(self, tmp_path, config_file):
        out = tmp_path / "verify.csv"
        code = cli.main(["verify", "--config", config_file,
                         "--samples", "20000", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,closed_form,mc_value,mc_se,z_score,pass"
        assert len(lines) == 17
        assert all(line.endswith(",true") for line in lines[1:])

    def test_corrupted_closed_form_exits_1(self, tmp_path, config_file, monkeypatch):
        def corrupted(config, n_samples, seed):
            return verification_rows(
                config, n_samples, seed, closed_overrides={"mean_cycle": 10.0}
            )

        monkeypatch.setattr(cli, "verification_rows", corrupted)
        code = cli.main(["verify", "--config", config_file,
                         "--samples", "20000", "--out", str(tmp_path / "v.csv")])
        assert code == 1

    def test_missing_seed_exit_2(self, config_file):
        code = cli.main(["verify", "--config", config_file, "--seed", "",
                         "--samples", "20000"])
        assert code == 2


class TestInputErrors:
    """Invalid input exits 2 with a one-line message, never a traceback;
    exit 1 means only that verification failed."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--samples", "100"],
            ["verify", "--samples", "0"],
            ["verify", "--samples", "20000", "--sane.shape", "5"],
            ["estimate", "--counts", "100", "200", "10", "5000", "--sane.shape", "5"],
            ["estimate", "--counts", "100", "200", "10", "-5"],
            ["estimate", "--counts", "100", "200", "ten", "5000"],
        ],
        ids=["samples-100", "samples-0", "verify-shape-5", "estimate-am-shape-5",
             "negative-time", "non-numeric-count"],
    )
    def test_one_line_config_error(self, argv, config_file, capsys):
        code = cli.main(argv + ["--config", config_file])
        self._assert_one_line_config_error(code, capsys)

    def test_shape_beyond_the_closed_forms(self, config_file, tmp_path, capsys):
        # only the commands that evaluate closed forms reject shape 5;
        # simulation and the event-log MLE need no jets of order shape + 4
        shape = ["--config", config_file, "--sane.shape", "5"]
        events = str(tmp_path / "ev.csv")
        code = cli.main(["simulate", *shape, "--events", events,
                         "--snapshots", str(tmp_path / "snap.csv")])
        assert code == 0
        assert cli.main(["estimate", *shape, "--events", events, "--method", "mle"]) == 0
        capsys.readouterr()
        code = cli.main(["convergence", *shape, "--out", str(tmp_path / "conv.csv")])
        self._assert_one_line_config_error(code, capsys)
        assert not (tmp_path / "conv.csv").exists()
        code = cli.main(["estimate", *shape, "--events", events, "--method", "both"])
        self._assert_one_line_config_error(code, capsys)

    @staticmethod
    def _assert_one_line_config_error(code, capsys):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestConfigProperties:
    @given(
        shape=st.integers(1, 4),
        mu=st.floats(1e-6, 1.0),
        lam=st.floats(1e-6, 1.0),
        uniform=st.booleans(),
        spacing=st.floats(1.0, 1e5),
        horizon=st.floats(1.0, 1e9),
        seeded=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity_random_configs(
        self, shape, mu, lam, uniform, spacing, horizon, seeded
    ):
        from cbmkit.config import ModelConfig
        from cbmkit.laws import DamageLaw, InspectionLaw, SaneLaw

        insp = (
            InspectionLaw("uniform", spacing, spacing / 3.0)
            if uniform
            else InspectionLaw("deterministic", spacing)
        )
        cfg = ModelConfig(
            SaneLaw(shape, mu),
            DamageLaw(lam),
            insp,
            horizon,
            seed=7 if seeded else None,
            grid=(horizon / 2.0, horizon),
        )
        assert parse_config(serialize_config(cfg)) == cfg
