import hashlib
import math

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

# `estimate --events LOG --method both` on the log of
# TestEstimateCommand.test_events_rows_pinned, by sane shape
PINNED_EVENT_ROWS = {
    1: [
        (
            "AM,0.00022389609117167363,0.00019279205015381134,0.00025500013218953592,"
            "0.00018457449503164554,9.7941490798390091e-05,0.00027120749926490099,"
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
            "AM,0.0004459551467051451,0.00040205690570675176,0.00048985338770353838,"
            "0.00019156513203974707,0.00010155431989921405,0.00028157594418028008,"
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
# rows of TestConvergenceCommand.test_rows_pinned, by (shape, gap law)
PINNED_CONVERGENCE_ROWS = {
    (1, "deterministic"): [
        (
            "100000,0.00083772840937107018,0.00037253040442480526,0.00061771135139331479,"
            "0.0010577454673488256,0.00014545814869090692,0.0005996026601587036"
        ),
        (
            "200000,0.00081799738344014042,0.00051102199186689055,0.00066605755769336378,"
            "0.00096993720918691706,0.00031550539448177325,0.00070653858925200791"
        ),
        (
            "300000,0.00087484197456383014,0.00052911881878719654,0.00074475887484767639,"
            "0.0010049250742799839,0.00037033928572172429,0.00068789835185266879"
        ),
        (
            "400000,0.00085123642396724164,0.00052684769934871229,0.00074077602942593127,"
            "0.00096169681850855201,0.00038821111366469947,0.00066548428503272511"
        ),
        (
            "500000,0.00084035119525654209,0.00051037588503209826,0.0007423860603092585,"
            "0.00093831633020382567,0.00038813681551616846,0.00063261495454802806"
        ),
        (
            "600000,0.00088685405957942079,0.00056572353027201973,0.00079411686651980652,"
            "0.00097959125263903505,0.0004493442180694147,0.00068210284247462475"
        ),
        (
            "700000,0.00092168158050940502,0.00055817345583256042,0.00083332758937943862,"
            "0.0010100355716393713,0.00045292260088647114,0.00066342431077864969"
        ),
        (
            "800000,0.00093110581766037625,0.00055837761336812288,0.00084783338018330019,"
            "0.0010143782551374522,0.00046029156094408056,0.00065646366579216525"
        ),
        (
            "900000,0.00094490953718033848,0.0005588556514927285,0.00086553601774762214,"
            "0.0010242830566130549,0.00046685733627871418,0.00065085396670674282"
        ),
        (
            "1000000,0.0009683757919410705,0.00056461409896505855,0.00089169873326284997,"
            "0.001045052850619291,0.00047760956025799135,0.00065161863767212579"
        ),
        (
            "1100000,0.00098568016850253859,0.00055979568922158939,0.00091156616222081821,"
            "0.0010597941747842591,0.00047783828059650758,0.0006417530978466712"
        ),
        (
            "1200000,0.00096940055718879167,0.00055612682398543966,0.00089931767007115292,"
            "0.0010394834443064305,0.00047747546685758269,0.00063477818111329657"
        ),
        (
            "1300000,0.00097098168934515539,0.00055129420306722896,0.00090354839951972644,"
            "0.0010384149791705843,0.00047618128321113889,0.00062640712292331903"
        ),
        (
            "1400000,0.0009855478327141275,0.00052960274197435262,0.00091975474553391244,"
            "0.0010513409198943426,0.00045938517962336705,0.00059982030432533819"
        ),
        (
            "1500000,0.00097644465469512887,0.00053882258177325869,0.00091335953538042628,"
            "0.0010395297740098315,0.00047002149918446697,0.00060762366436205035"
        ),
        (
            "1600000,0.00097945683832869647,0.00054174192958950063,0.0009182415144406372,"
            "0.0010406721622167557,0.00047498314850422346,0.00060850071067477781"
        ),
        (
            "1700000,0.00097217756536072326,0.00053410516573308589,0.00091310098818291475,"
            "0.0010312541425385317,0.00046971711773065192,0.00059849321373551981"
        ),
        (
            "1800000,0.00097249587145347327,0.00054567947333089106,0.00091510427872938422,"
            "0.0010298874641775624,0.00048228478309068066,0.00060907416357110146"
        ),
        (
            "1900000,0.00097408968612017958,0.00054734758960645643,0.00091816444263363749,"
            "0.0010300149296067218,0.00048556660904793783,0.00060912857016497503"
        ),
        (
            "2000000,0.0009661986418439244,0.00054314873463095755,0.00091201155519903552,"
            "0.0010203857284888133,0.00048302898326922921,0.00060326848599268589"
        ),
    ],
    (2, "uniform"): [
        (
            "100000,0.00093586205325086561,0.00054489372203224971,0.00072432493400386181,"
            "0.0011473991724978694,0.00017067016266769685,0.00091911728139680256"
        ),
        (
            "200000,0.00087600048705571644,0.00077670090544327251,0.00073313086582179558,"
            "0.0010188701082896373,0.0004336882532726748,0.0011197135576138703"
        ),
        (
            "300000,0.00086343335539165202,0.00086679945498746699,0.00074801405595471024,"
            "0.0009788526548285938,0.00056268095853000285,0.0011709179514449311"
        ),
        (
            "400000,0.000852180172394274,0.0007976862308650991,0.00075286864575649793,"
            "0.00095149169903205007,0.00054768895099027248,0.0010476835107399258"
        ),
        (
            "500000,0.0008992653351049606,0.0007162068704452874,0.00080733188450831707,"
            "0.00099119878570160425,0.00051313139125284696,0.00091928234963772784"
        ),
        (
            "600000,0.00092962546161134171,0.00062870684802670109,0.00084379958604372993,"
            "0.0010154513371789535,0.00046092280439625295,0.00079649089165714922"
        ),
        (
            "700000,0.00095000145316095875,0.00065629667613166997,0.00086952460606609173,"
            "0.0010304783002558257,0.00049804475843639529,0.00081454859382694466"
        ),
        (
            "800000,0.00098036416479547659,0.00064754355205683491,0.00090358242931182426,"
            "0.001057145900279129,0.00050275413830885873,0.0007923329658048111"
        ),
        (
            "900000,0.0010035822977661332,0.00060343681305398487,0.0009300405393660473,"
            "0.0010771240561662191,0.00047427507834302908,0.00073259854776494071"
        ),
        (
            "1000000,0.00098705637825460455,0.00057661337847593919,0.00091796304801677409,"
            "0.001056149708492435,0.00045672804701610297,0.00069649870993577535"
        ),
        (
            "1100000,0.00099780927981406959,0.00057717386274827674,0.00093148327514085323,"
            "0.0010641352844872861,0.00046332027270618525,0.00069102745279036822"
        ),
        (
            "1200000,0.00099513799531636025,0.00057900803286417481,0.00093174547241945901,"
            "0.0010585305182132614,0.00046965884448866928,0.00068835722123968034"
        ),
        (
            "1300000,0.00099521323343440939,0.00056309852048257365,0.00093427934647776661,"
            "0.0010561471203910523,0.00045987193508542173,0.00066632510587972551"
        ),
        (
            "1400000,0.00098661347247520122,0.00056929430738552657,0.00092822423630825428,"
            "0.0010450027086421482,0.00046876716537792948,0.00066982144939312365"
        ),
        (
            "1500000,0.00099086612768567494,0.00054575058887751339,0.0009342695074038075,"
            "0.0010474627479675424,0.00045134337331017356,0.00064015780444485321"
        ),
        (
            "1600000,0.00097605181723938133,0.00056071513780153314,0.00092178809234386432,"
            "0.0010303155421348984,0.00046714973022641269,0.00065428054537665359"
        ),
        (
            "1700000,0.00098612566538759726,0.0005446972452345059,0.00093312056593220828,"
            "0.0010391307648429863,0.00045594451322350239,0.00063344997724550946"
        ),
        (
            "1800000,0.00097761014406793105,0.00055916607007838205,0.00092639671811927337,"
            "0.0010288235700165887,0.00047116435109738575,0.00064716778905937831"
        ),
        (
            "1900000,0.00097982809609095537,0.00054190866129330279,0.00092988740938618067,"
            "0.0010297687827957301,0.00045799867034478526,0.00062581865224182033"
        ),
        (
            "2000000,0.00099217611898712939,0.00053742911055046068,0.00094311053457776708,"
            "0.0010412417033964917,0.00045649476877336544,0.00061836345232755587"
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
        # the rows are the bytes this log gave before the censoring bounds
        # were hoisted out of the likelihood and the small-|theta*g| series
        # was masked (both must leave every output bit unchanged)
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
