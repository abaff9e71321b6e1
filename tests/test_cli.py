import errno
import hashlib
import io
import math
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbmkit import cli
from cbmkit.config import ConfigError, parse_config, serialize_config
from cbmkit.estimators import NonConvergenceError
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

# `estimate --events LOG --method both` on the log of
# TestEstimateCommand.test_events_rows_pinned, by sane shape
PINNED_EVENT_ROWS = {
    1: [
        (
            "AM,0.0002238960911716233,0.00019279205015376477,0.00025500013218948182,"
            "0.00018457449503144979,9.7941490798235186e-05,0.00027120749926466442,"
            "0.94999999999999996,990198,200,997,18,1"
        ),
        (
            "MLE,0.00022396833393440639,0.00019286461676779724,0.00025507205110101552,"
            "0.00018515733666839718,9.8293132176276681e-05,0.00027202154116051766,"
            "0.94999999999999996,990198,200,997,18,1"
        ),
    ],
    2: [
        (
            "AM,0.00044595514670500057,0.0004020569057066139,0.00048985338770338724,"
            "0.00019156513203787392,0.00010155431989780742,0.00028157594417794042,"
            "0.94999999999999996,990198,200,997,18,1"
        ),
        (
            "MLE,0.00044586929271558202,0.00040200286537562792,0.00048973572005553618,"
            "0.00019339430123921193,0.00010259071564213115,0.00028419788683629269,"
            "0.94999999999999996,990198,200,997,18,1"
        ),
    ],
}


# `convergence --grid-count 20` at horizon 2e6, seed 3, base rates: the
# rows of TestConvergenceCommand.test_rows_pinned, by (shape, gap law),
# recorded from the batched count inversion of 0.6.0 (closed forms summed
# in index order, no BLAS); they hold with numpy's AVX-512 loops switched
# off through NPY_DISABLE_CPU_FEATURES
PINNED_CONVERGENCE_ROWS = {
    (1, "deterministic"): [
        (
            "100000,0.00083772840937105305,0.00037253040442375261,0.00061771135139328953,"
            "0.0010577454673488165,0.00014545814869022284,0.00059960266015728243"
        ),
        (
            "200000,0.00081799738343942105,0.00051102199186670103,0.00066605755769273808,"
            "0.00096993720918610402,0.00031550539448155907,0.000706538589251843"
        ),
        (
            "300000,0.00087484197456309386,0.00052911881878664273,0.00074475887484701611,"
            "0.0010049250742791716,0.00037033928572121927,0.00068789835185206619"
        ),
        (
            "400000,0.00085123642396613206,0.00052684769934825107,0.00074077602942492285,"
            "0.00096169681850734128,0.00038821111366424085,0.00066548428503226129"
        ),
        (
            "500000,0.00084035119525630725,0.00051037588503187426,0.0007423860603090422,"
            "0.0009383163302035723,0.00038813681551596403,0.00063261495454778444"
        ),
        (
            "600000,0.00088685405957903091,0.00056572353027094875,0.00079411686651944158,"
            "0.00097959125263862024,0.00044934421806846027,0.00068210284247343723"
        ),
        (
            "700000,0.00092168158050903563,0.00055817345583132779,0.00083332758937909005,"
            "0.0010100355716389812,0.0004529226008853659,0.00066342431077728967"
        ),
        (
            "800000,0.00093110581765929856,0.00055837761336694337,0.00084783338018228917,"
            "0.0010143782551363079,0.00046029156094298492,0.00065646366579090183"
        ),
        (
            "900000,0.00094490953717980917,0.00055885565149149316,0.00086553601774712102,"
            "0.0010242830566124972,0.0004668573362775846,0.00065085396670540167"
        ),
        (
            "1000000,0.00096837579194043971,0.0005646140989639133,0.00089169873326225236,"
            "0.0010450528506186271,0.00047760956025693361,0.00065161863767089305"
        ),
        (
            "1100000,0.00098568016850212703,0.00055979568922031784,0.00091156616222042518,"
            "0.0010597941747838289,0.00047783828059533794,0.00064175309784529773"
        ),
        (
            "1200000,0.00096940055718810353,0.0005561268239842028,0.00089931767007049774,"
            "0.0010394834443057093,0.0004774754668564323,0.00063477818111197331"
        ),
        (
            "1300000,0.00097098168934436934,0.00055129420306605662,0.00090354839951897758,"
            "0.001038414979169761,0.00047618128321004168,0.00062640712292207155"
        ),
        (
            "1400000,0.00098554783271372071,0.00052960274197371543,0.00091975474553352408,"
            "0.0010513409198939173,0.00045938517962277031,0.00059982030432466056"
        ),
        (
            "1500000,0.00097644465469390199,0.0005388225817724335,0.00091335953537925664,"
            "0.0010395297740085473,0.00047002149918367328,0.00060762366436119372"
        ),
        (
            "1600000,0.00097945683832714216,0.0005417419295886169,0.0009182415144391538,"
            "0.0010406721622151305,0.00047498314850336597,0.00060850071067386784"
        ),
        (
            "1700000,0.00097217756535985514,0.0005341051657323676,0.00091310098818208436,"
            "0.0010312541425376259,0.0004697171177299647,0.00059849321373477051"
        ),
        (
            "1800000,0.00097249587145258217,0.00054567947332985034,0.00091510427872852976,"
            "0.0010298874641766346,0.00048228478308969208,0.00060907416357000859"
        ),
        (
            "1900000,0.00097408968611916412,0.00054734758960538557,0.00091816444263266301,"
            "0.0010300149296056653,0.00048556660904691662,0.00060912857016385451"
        ),
        (
            "2000000,0.0009661986418434017,0.00054314873462995791,0.00091201155519853212,"
            "0.0010203857284882712,0.00048302898326828508,0.00060326848599163074"
        ),
    ],
    (2, "uniform"): [
        (
            "100000,0.00093586205324998892,0.00054489372203167226,0.0007243249340031045,"
            "0.0011473991724968732,0.00017067016266721422,0.00091911728139613025"
        ),
        (
            "200000,0.0008760004870551545,0.00077670090544253981,0.000733130865821286,"
            "0.001018870108289023,0.00043368825327277325,0.0011197135576123064"
        ),
        (
            "300000,0.00086343335539081556,0.00086679945495372489,0.00074801405595370627,"
            "0.00097885265482792485,0.00056268095442707305,0.0011709179554803767"
        ),
        (
            "400000,0.00085218017239425004,0.00079768623086406943,0.00075286864575647224,"
            "0.00095149169903202785,0.00054768895099119763,0.0010476835107369412"
        ),
        (
            "500000,0.00089926533510485153,0.00071620687044395091,0.00080733188450821201,"
            "0.00099119878570149106,0.000513131391251771,0.00091928234963613081"
        ),
        (
            "600000,0.00092962546161088331,0.00062870684802663029,0.00084379958604329734,"
            "0.0010154513371784693,0.00046092280439614236,0.00079649089165711822"
        ),
        (
            "700000,0.00095000145316055684,0.00065629667613071338,0.0008695246060657089,"
            "0.0010304783002554048,0.00049804475843555926,0.0008145485938258675"
        ),
        (
            "800000,0.00098036416479475993,0.00064754355205635819,0.00090358242931114175,"
            "0.0010571459002783781,0.0005027541383084193,0.00079233296580429708"
        ),
        (
            "900000,0.0010035822977655193,0.00060343681305390919,0.0009300405393654614,"
            "0.0010771240561655772,0.00047427507834292733,0.00073259854776489106"
        ),
        (
            "1000000,0.00098705637825342537,0.00057661337847390252,0.00091796304801564316,"
            "0.0010561497084912077,0.00045672804701427468,0.0006964987099335304"
        ),
        (
            "1100000,0.00099780927981365911,0.00057717386274706113,0.00093148327514045749,"
            "0.0010641352844868606,0.00046332027270509454,0.00069102745278902772"
        ),
        (
            "1200000,0.00099513799531602111,0.00057900803286417796,0.00093174547241913353,"
            "0.0010585305182129088,0.00046965884448865215,0.00068835722123970376"
        ),
        (
            "1300000,0.00099521323343406787,0.00056309852048192139,0.00093427934647743701,"
            "0.0010561471203906986,0.0004598719350848309,0.00066632510587901188"
        ),
        (
            "1400000,0.00098661347247405956,0.00056929430738503043,0.00092822423630715425,"
            "0.0010450027086409649,0.00046876716537743888,0.00066982144939262199"
        ),
        (
            "1500000,0.00099086612768542665,0.00054575058887693431,0.00093426950740356724,"
            "0.0010474627479672861,0.00045134337330964838,0.00064015780444422025"
        ),
        (
            "1600000,0.00097605181723886829,0.00056071513780086787,0.00092178809234336808,"
            "0.0010303155421343686,0.00046714973022579046,0.00065428054537594528"
        ),
        (
            "1700000,0.00098612566538649549,0.00054469724523394222,0.00093312056593114283,"
            "0.0010391307648418481,0.00045594451322295411,0.00063344997724493028"
        ),
        (
            "1800000,0.00097761014406735208,0.00055916607007769836,0.0009263967181187124,"
            "0.0010288235700159918,0.00047116435109674753,0.00064716778905864918"
        ),
        (
            "1900000,0.00097982809609026755,0.00054190866129274779,0.00092988740938551432,"
            "0.0010297687827950208,0.00045799867034426538,0.0006258186522412302"
        ),
        (
            "2000000,0.00099217611898685552,0.00053742911054999664,0.00094311053457750112,"
            "0.00104124170339621,0.00045649476877293593,0.00061836345232705735"
        ),
    ],
}


# sha256 of the event log and of the snapshot file that `simulate` writes at
# horizon 3e5, seed 5, grid 1e4, 1.5e5, 3e5, base rates: the files of
# TestSimulateCommand.test_csv_bytes_pinned, by (shape, gap law).  Recorded
# on x86-64 Linux, Python 3.11, numpy 2.4; both hold with numpy's AVX-512
# and AVX2 loops switched off through NPY_DISABLE_CPU_FEATURES.
PINNED_SIMULATE_SHA256 = {
    (1, "deterministic"): (
        "b378bbf9e9c6e576fe34f2d5ec44c15fa8c8f5a3f6fe6e39d6676554eb7c69aa",
        "65c2cf18967ba3cfae07f5b85855a7a2dd796b6530e00fd17faa29382e076942",
    ),
    (2, "uniform"): (
        "f1db64ce3d0ee7016ec88c482214fd375b8de8c83096dbb85e116098216203f4",
        "d768c6c564a5cb892059689633e0fc804599fe1624e932133b37c0ff01094641",
    ),
}


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

    @pytest.mark.parametrize("shape, kind", sorted(PINNED_SIMULATE_SHA256))
    def test_csv_bytes_pinned(self, shape, kind, tmp_path):
        ev, sn = tmp_path / "e.csv", tmp_path / "s.csv"
        code = cli.main([
            "simulate", "--sane.shape", str(shape), "--sane.rate", "1e-3",
            "--damage.rate", "5e-4", "--inspection.kind", kind, "--inspection.c", "1000",
            "--inspection.h", "100" if kind == "uniform" else "0", "--horizon", "3e5",
            "--seed", "5", "--grid", "1e4, 1.5e5, 3e5",
            "--events", str(ev), "--snapshots", str(sn),
        ])
        assert code == 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (ev, sn))
        assert digests == PINNED_SIMULATE_SHA256[(shape, kind)]

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

    @pytest.mark.parametrize("shape", [1, 2])
    def test_events_rows_pinned(self, tmp_path, config_file, capsys, shape):
        # a fixed 200-cycle deterministic-gap log built by arithmetic alone;
        # the AM rows are recorded from the count inversion of 0.6.0, the
        # MLE rows from the Newton fit (which the AM estimate starts)
        lines = ["cycle,y_s,y_d,k_r,v_s,z_d,x_r,end"]
        for i in range(200):
            y_s = 45.0 * ((i * 37) % 200) + 7.5
            y_d = 30.0 * ((i * 73) % 200) + 11.0
            k = math.ceil(y_s / 1000.0)
            detect, fail = k * 1000.0, y_s + y_d
            failed = detect >= fail
            lines.append(f"{i + 1},{y_s!r},{y_d!r},{k},{detect!r},{fail!r},"
                         f"{min(detect, fail)!r},{'Failed' if failed else 'Detected'}")
        log = tmp_path / "log.csv"
        log.write_text("\n".join(lines) + "\n")
        code = cli.main(["estimate", "--config", config_file, "--sane.shape", str(shape),
                         "--events", str(log), "--method", "both"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1:] == PINNED_EVENT_ROWS[shape]

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

    @pytest.mark.parametrize("shape, kind", sorted(PINNED_CONVERGENCE_ROWS))
    def test_rows_pinned(self, shape, kind, tmp_path):
        out = tmp_path / "series.csv"
        code = cli.main([
            "convergence", "--sane.shape", str(shape), "--sane.rate", "1e-3",
            "--damage.rate", "5e-4", "--inspection.kind", kind, "--inspection.c", "1000",
            "--inspection.h", "100" if kind == "uniform" else "0", "--horizon", "2e6",
            "--seed", "3", "--grid-count", "20", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mu_hat,lambda_hat,mu_lo,mu_hi,lambda_lo,lambda_hi"
        assert lines[1:] == PINNED_CONVERGENCE_ROWS[(shape, kind)]

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

    def test_stdout_bytes_are_the_report_file(self, tmp_path, config_file, capsysbinary):
        out = tmp_path / "verify.csv"
        argv = ["verify", "--config", config_file, "--samples", "10000"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert cli.main(argv) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()


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

    @pytest.mark.parametrize("count", [-3, 0])
    def test_grid_count_below_one(self, count, config_file, tmp_path, capsys):
        # the config file carries a grid, which --grid-count 0 must not fall
        # back to
        out = tmp_path / "conv.csv"
        code = cli.main(["convergence", "--config", config_file, "--grid-count", str(count),
                         "--out", str(out)])
        err = capsys.readouterr().err
        self._assert_one_line_config_error(code, capsys, err)
        assert err == f"config error: --grid-count must be at least 1, got {count}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "case", ["events-directory", "out-directory", "config-directory", "config-not-utf8"]
    )
    def test_unusable_path(self, case, config_file, tmp_path, capsys):
        # a directory where a file belongs, or a config file that is not
        # UTF-8 text
        not_utf8 = tmp_path / "latin1.cfg"
        not_utf8.write_bytes(b"\xff" + CONFIG_TEXT.encode())
        argv = {
            "events-directory": ["estimate", "--config", config_file, "--events", str(tmp_path),
                                 "--method", "both"],
            "out-directory": ["estimate", "--config", config_file,
                              "--counts", "100", "200", "10", "5000", "--out", str(tmp_path)],
            "config-directory": ["verify", "--config", str(tmp_path), "--samples", "20000"],
            "config-not-utf8": ["verify", "--config", str(not_utf8), "--samples", "20000"],
        }[case]
        code = cli.main(argv)
        err = capsys.readouterr().err
        self._assert_one_line_config_error(code, capsys, err)
        culprit = not_utf8 if case == "config-not-utf8" else tmp_path
        assert str(culprit) in err

    GOOD_ROW = "1,1500.5,800.25,2,2000,2300.75,2000,Detected"

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("cycle,y_s,y_d\n" + GOOD_ROW + "\n", "unexpected event-log header"),
            ("", "unexpected event-log header"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW + "\n1,2,3\n",
             "line 3: expected 8 fields, got 3"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW + ",extra\n",
             "line 2: expected 8 fields, got 9"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW.replace("1500.5", "abc") + "\n",
             "line 2: could not convert"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW.replace(",2,", ",2.5,") + "\n",
             "line 2: invalid literal for int()"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW.replace("Detected", "Lost") + "\n",
             "line 2: end 'Lost' is neither Failed nor Detected"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW + "\n"
             + GOOD_ROW.replace(",2,", ",0,") + "\n",
             "line 3: k_r must be at least 1 and below 2**63, got 0\n"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW.replace(",2,", ",-3,") + "\n",
             "line 2: k_r must be at least 1 and below 2**63, got -3\n"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW.replace(",2,", f",{2**63},") + "\n",
             f"line 2: k_r must be at least 1 and below 2**63, got {2**63}\n"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW.replace("800.25", "nan") + "\n",
             "line 2: y_d must be finite and nonnegative, got nan\n"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW.replace(",2000,D", ",inf,D") + "\n",
             "line 2: x_r must be finite and nonnegative, got inf\n"),
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW.replace("1500.5", "-1500.5") + "\n",
             "line 2: y_s must be finite and nonnegative, got -1500.5\n"),
            # the first offending line is named, whatever is wrong further on
            ("cycle,y_s,y_d,k_r,v_s,z_d,x_r,end\n" + GOOD_ROW.replace("2300.75", "nan") + "\n"
             + GOOD_ROW.replace(",2,", ",x,") + "\n1,2\n",
             "line 2: z_d must be finite and nonnegative, got nan\n"),
        ],
        ids=["header", "empty-file", "short-row", "long-row", "non-numeric", "non-integer-count",
             "unknown-end", "zero-count", "negative-count", "huge-count", "nan-time",
             "infinite-time", "negative-time", "first-bad-line"],
    )
    @pytest.mark.parametrize("method", ["am", "mle", "both"])
    def test_malformed_event_log(self, text, reason, method, config_file, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_text(text)
        code = cli.main(["estimate", "--config", config_file, "--events", str(log),
                         "--method", method])
        err = capsys.readouterr().err
        self._assert_one_line_config_error(code, capsys, err)
        assert err.startswith(f"config error: {log}: {reason}")

    @staticmethod
    def _assert_one_line_config_error(code, capsys, err=None):
        err = capsys.readouterr().err if err is None else err
        assert code == 2
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone, as under ``cbmkit verify | head -1``."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


class TestOutputs:
    """Every output path is opened before the work starts, a failed command
    leaves no partial output, and a closed stdout is not an error."""

    @pytest.mark.parametrize("corrupt, expected", [(False, 0), (True, 1)], ids=["pass", "fail"])
    def test_verify_into_a_closed_pipe(self, corrupt, expected, config_file, monkeypatch, capsys):
        if corrupt:
            rows = verification_rows
            monkeypatch.setattr(cli, "verification_rows", lambda *a: rows(
                *a, closed_overrides={"mean_cycle": 10.0}))
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = cli.main(["verify", "--config", config_file, "--samples", "10000"])
        assert code == expected
        assert capsys.readouterr().err == ""

    def test_estimate_into_a_closed_pipe(self, config_file, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = cli.main(["estimate", "--config", config_file,
                         "--counts", "33501", "53116", "8255", "50001908"])
        assert code == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("case", ["simulate-snapshots", "simulate-events", "convergence",
                                      "verify", "verify-missing-folder"])
    def test_unusable_path_fails_before_the_work(self, case, config_file, tmp_path,
                                                 monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the work started before the output paths were checked")

        monkeypatch.setattr(cli, "simulate_horizon", never)
        monkeypatch.setattr(cli, "verification_rows", never)
        events, snapshots = str(tmp_path / "ev.csv"), str(tmp_path / "sn.csv")
        argv = {
            "simulate-snapshots": ["simulate", "--events", events, "--snapshots", str(tmp_path)],
            "simulate-events": ["simulate", "--events", str(tmp_path), "--snapshots", snapshots],
            "convergence": ["convergence", "--grid-count", "5", "--out", str(tmp_path)],
            "verify": ["verify", "--samples", "20000", "--out", str(tmp_path)],
            "verify-missing-folder": ["verify", "--samples", "20000",
                                      "--out", str(tmp_path / "missing" / "report.csv")],
        }[case]
        code = cli.main(argv + ["--config", config_file])
        err = capsys.readouterr().err
        TestInputErrors._assert_one_line_config_error(code, capsys, err)
        assert str(tmp_path) in err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_check_leaves_no_file_for_the_writer(self, config_file, tmp_path, monkeypatch):
        # the writer creates the file: truncating one the check had created
        # makes ext4 flush it on close
        out = tmp_path / "report.csv"
        rows = verification_rows

        def work(*args):
            assert not out.exists()
            return rows(*args)

        monkeypatch.setattr(cli, "verification_rows", work)
        code = cli.main(["verify", "--config", config_file, "--samples", "10000", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("quantity,")

    def test_failed_command_leaves_outputs_as_they_were(self, config_file, tmp_path,
                                                         monkeypatch):
        def stalls(*args, **kwargs):
            raise NonConvergenceError("stalled")

        monkeypatch.setattr(cli, "simulate_horizon", stalls)
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("old\n")
        code = cli.main(["simulate", "--config", config_file,
                         "--events", str(old), "--snapshots", str(new)])
        assert code == 3
        assert old.read_text() == "old\n"
        assert not new.exists()
        # a dangling symlink stays as it was, and its target is not left behind
        link, target = tmp_path / "link.csv", tmp_path / "target.csv"
        link.symlink_to(target)
        code = cli.main(["simulate", "--config", config_file,
                         "--events", str(old), "--snapshots", str(link)])
        assert code == 3
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert not target.exists()

    def test_rewrites_an_existing_file(self, config_file, tmp_path):
        out = tmp_path / "series.csv"
        out.write_text("x" * 10_000)
        assert cli.main(["convergence", "--config", config_file, "--out", str(out)]) == 0
        assert out.read_text().startswith("t,mu_hat,")
        assert "x" not in out.read_text()


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
