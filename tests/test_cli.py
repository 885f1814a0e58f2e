import csv
import io
import json
import pathlib
import warnings

import pytest

from meshrates import oracle
from meshrates.cli import main, parse_power
from meshrates.oracle import OracleReport

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLEAN = ["--alpha2", "0", "--beta2", "1", "--gamma2", "1", "--eta2", "0",
         "--p1", "0dB", "--p2", "0dB"]
# alpha2 * p1 = 1e400 overflows a float
OVERFLOW = ["--alpha2", "1e200", "--beta2", "1", "--gamma2", "1", "--eta2", "0",
            "--p1", "1e200", "--p2", "1"]


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestParsePower:
    @pytest.mark.parametrize("text,expected", [
        ("1.5", 1.5), ("0dB", 1.0), ("10dB", 10.0), ("3 dB", 1.9952623149688795),
        ("3.01dB", 1.9998618696327441),
    ])
    def test_values(self, text, expected):
        assert parse_power(text) == pytest.approx(expected, rel=1e-12)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_power("loud")


class TestPoint:
    def test_all_schemes_interference_free(self, capsys):
        code, out, _ = run(capsys, "point", *CLEAN, "--schemes", "all", "--json")
        assert code == 0
        payload = json.loads(out)
        rates = {r["scheme"]: r["rate"] for r in payload["results"]}
        assert set(rates) == {"single_rate", "rate_splitting", "coop", "mcp",
                              "first_hop_bound"}
        assert all(abs(rate - 1.0) < 1e-9 for rate in rates.values())

    def test_single_rate_hand_value(self, capsys):
        code, out, _ = run(capsys, "point", "--alpha2", "0.5", "--eta2", "0.5",
                           "--beta2", "1", "--gamma2", "1", "--p1", "3.01dB",
                           "--p2", "0dB", "--schemes", "single", "--json")
        assert code == 0
        rate = json.loads(out)["results"][0]["rate"]
        assert rate == pytest.approx(0.585, abs=5e-4)

    def test_half_duplex_halves_everything(self, capsys):
        code, out, _ = run(capsys, "point", *CLEAN, "--schemes", "all",
                           "--duplex", "half", "--json")
        assert code == 0
        rates = [r["rate"] for r in json.loads(out)["results"]]
        assert all(abs(rate - 0.5) < 1e-9 for rate in rates)

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run(capsys, "point", "--alpha2", "0.4", "--beta2", "1")
        assert code == 1
        assert "gamma2" in err

    def test_unknown_scheme_is_usage_error(self, capsys):
        code, _, err = run(capsys, "point", *CLEAN, "--schemes", "telepathy")
        assert code == 1
        assert "telepathy" in err

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "point", *CLEAN, "--schemes", "single")
        assert code == 0
        assert "single_rate" in out and "1.000000" in out

    @pytest.mark.parametrize("scheme", ["single", "rs", "coop", "mcp", "bound"])
    def test_overflowing_input_is_refused(self, capsys, scheme):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "point", *OVERFLOW, "--schemes", scheme)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestSweep:
    def test_fig3_style_f_hat_column(self, capsys, tmp_path):
        config = tmp_path / "fig3.cfg"
        config.write_text(
            "param=alpha2\nrange=0:1:0.1\nlink=eta2=alpha2\nlink=p2=p1\n"
            "beta2=1\ngamma2=1\np1=10dB\nschemes=rate_splitting\n")
        code, out, _ = run(capsys, "sweep", "--config", str(config))
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "alpha2"
        f_col = header.index("rate_splitting_f1")
        f_values = [float(r[f_col]) for r in rows]
        assert len(rows) == 11
        assert f_values[0] == 1.0
        assert f_values[-1] < 1.0
        threshold_idx = next(i for i, f in enumerate(f_values) if f < 1.0)
        assert all(f == 1.0 for f in f_values[:threshold_idx])

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("param=alpha2\nrange=0:1:0.5\nlink=eta2=alpha2\n"
                          "beta2=1\ngamma2=1\np1=1\np2=1\nschemes=single\n")
        code, out, _ = run(capsys, "sweep", "--config", str(config),
                           "--range", "0:1:1")
        assert code == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["0", "1"]

    def test_empty_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", *CLEAN, "--param", "alpha2",
                           "--range", "1:0:0.1", "--schemes", "single")
        assert code == 1
        assert "range" in err.lower()

    def test_bad_link_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", *CLEAN, "--param", "alpha2",
                           "--range", "0:1:0.5", "--link", "eta2=alpha2+1",
                           "--schemes", "single")
        assert code == 1
        assert "link" in err.lower()

    def test_scaled_link_and_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--alpha2", "0", "--beta2", "1",
                           "--gamma2", "1", "--p1", "4", "--param", "eta2",
                           "--range", "0:0.5:0.25", "--link", "p2=2*p1",
                           "--schemes", "single", "--output", str(target))
        assert code == 0 and out == ""
        header, rows = read_csv(target.read_text())
        assert header == ["eta2", "single_rate", "single_rate_bottleneck"]
        assert len(rows) == 3
        # p2 = 8 and eta2 swept: bottleneck flips to hop 2 once eta2 grows
        assert rows[0][2] == "1" and rows[-1][2] == "2"

    def test_overflowing_point_is_refused(self, capsys):
        code, out, err = run(capsys, "sweep", *OVERFLOW[2:], "--param", "alpha2",
                             "--range", "0:1e200:5e199")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--beta2", "1", "--gamma2", "1", "--p1", "2", "--p2", "1",
                "--param", "alpha2", "--range", "0:0.4:0.2", "--link", "eta2=alpha2",
                "--schemes", "rs,coop")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestConfigKeys:
    @pytest.mark.parametrize("line", ["bogus_key=1", "tol=1e-3", "rate_tol=5", "json=1"])
    def test_unknown_key_is_usage_error(self, capsys, tmp_path, line):
        config = tmp_path / "point.cfg"
        config.write_text(f"beta2=1\n{line}\n")
        code, out, err = run(capsys, "point", "--config", str(config), *CLEAN,
                             "--schemes", "single")
        assert code == 1 and out == ""
        assert f"{config}:2" in err
        assert repr(line.split("=")[0]) in err

    def test_flag_only_option_is_usage_error(self, capsys, tmp_path):
        # threshold has a --method flag, but no subcommand reads it from a file
        config = tmp_path / "threshold.cfg"
        config.write_text("beta2=1\nmethod=paper\n")
        code, out, err = run(capsys, "threshold", "--config", str(config), "--p1", "1")
        assert code == 1 and out == ""
        assert f"{config}:2" in err and "'method'" in err

    @pytest.mark.parametrize("name", ["fig3_p0db", "fig3_p10db", "fig4_p3db", "fig5_p10db"])
    def test_figure_configs_still_sweep(self, capsys, name):
        code, out, _ = run(capsys, "sweep", "--config", str(ROOT / "configs" / f"{name}.cfg"),
                           "--range", "0.5:0.5:1", "--schemes", "single")
        assert code == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["0.5"]

    @pytest.mark.parametrize("value", ["maybe", "2", "yes,yes"])
    def test_invalid_boolean_is_usage_error(self, capsys, tmp_path, value):
        config = tmp_path / "point.cfg"
        config.write_text(f"power_boost={value}\n")
        code, out, err = run(capsys, "point", "--config", str(config), *CLEAN,
                             "--duplex", "half", "--schemes", "single")
        assert code == 1 and out == ""
        assert repr(value) in err and "boolean" in err

    @pytest.mark.parametrize("value,boost", [("yes", True), ("TRUE", True), ("1", True),
                                             ("no", False), ("false", False), ("0", False)])
    def test_boolean_values(self, capsys, tmp_path, value, boost):
        config = tmp_path / "point.cfg"
        config.write_text(f"power_boost={value}\n")
        code, out, _ = run(capsys, "point", "--config", str(config), *CLEAN,
                           "--duplex", "half", "--json")
        assert code == 0
        assert json.loads(out)["params"]["power_boost"] is boost

    @pytest.mark.parametrize("line", ["power_boost=yes", "output={tmp}/a.csv"])
    def test_repeated_key_is_usage_error(self, capsys, tmp_path, line):
        # only link may repeat; a repeated output once wrote to "a.csv,b.csv"
        config = tmp_path / "sweep.cfg"
        repeated = line.format(tmp=tmp_path)
        config.write_text(f"duplex=half\n{repeated}\n{repeated.replace('a.csv', 'b.csv')}\n")
        code, out, err = run(capsys, "sweep", "--config", str(config), *CLEAN,
                             "--param", "alpha2", "--range", "0:1:1", "--schemes", "single")
        assert code == 1 and out == ""
        assert f"{config}:3" in err and repr(line.split("=")[0]) in err
        assert list(tmp_path.iterdir()) == [config]


# Each key some subcommand reads from a file, with a value unlike its
# default: the file must act as the flag does.
NETWORK = {"alpha2": "0.4", "beta2": "1", "gamma2": "1", "eta2": "0.5", "p1": "3dB", "p2": "2"}
FILE_KEYS = {
    "point": ({**NETWORK, "schemes": "all"}, ["--json"]),
    "region": ({**NETWORK, "hop": "2mcp", "f": "0.5"}, ["--json"]),
    "sweep": ({**NETWORK, "param": "alpha2", "range": "0:1:1", "schemes": "single"}, []),
    "threshold": ({"beta2": "1", "p1": "1"}, ["--json"]),
    "optsplit": (NETWORK, ["--json"]),
}


def as_flags(options):
    return [token for key, value in options.items() for token in (f"--{key}", value)]


class TestConfigFileValues:
    @pytest.mark.parametrize("command,key,value", [
        *[("point", name, value) for name, value in [
            ("alpha2", "0.3"), ("beta2", "0.8"), ("gamma2", "0.7"), ("eta2", "0.2"),
            ("p1", "5dB"), ("p2", "0.5")]],
        ("point", "duplex", "half"), ("point", "schemes", "rs,mcp"),
        ("region", "hop", "2coop"), ("region", "f", "0.25"),
        ("sweep", "param", "eta2"), ("sweep", "range", "0:1:0.5"), ("sweep", "link", "p2=p1/2"),
        ("threshold", "beta2", "2"), ("threshold", "p1", "10dB"),
        ("optsplit", "alpha2", "0.9"),
    ])
    def test_file_value_acts_as_flag(self, capsys, tmp_path, command, key, value):
        options, extra = FILE_KEYS[command]
        rest = {k: v for k, v in options.items() if k != key}
        config = tmp_path / "values.cfg"
        config.write_text(f"{key}={value}\n")
        from_file = run(capsys, command, "--config", str(config), *as_flags(rest), *extra)
        from_flag = run(capsys, command, *as_flags(rest), f"--{key}", value, *extra)
        without = run(capsys, command, *as_flags(rest), *extra)
        assert from_file[0] == 0 and from_file[:2] == from_flag[:2]
        assert without[:2] != from_flag[:2]

    def test_power_boost_and_output(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        target = tmp_path / "rates.csv"
        config.write_text(f"power_boost=yes\nduplex=half\noutput={target}\n")
        args = as_flags(FILE_KEYS["sweep"][0])
        code, out, _ = run(capsys, "sweep", "--config", str(config), *args)
        assert code == 0 and out == ""
        _, boosted, _ = run(capsys, "sweep", *args, "--duplex", "half", "--power-boost")
        _, plain, _ = run(capsys, "sweep", *args, "--duplex", "half")
        assert target.read_text() == boosted != plain

    def test_region_reads_hop_and_f(self, capsys, tmp_path):
        config = tmp_path / "region.cfg"
        config.write_text("alpha2=0.4\nbeta2=1\ngamma2=1\neta2=0.5\np1=1\np2=2\n"
                          "hop=2coop\nf=0.25\n")
        code, out, _ = run(capsys, "region", "--config", str(config), "--json")
        assert code == 0
        # p_private = f * p2 = 0.5 on hop 2
        assert json.loads(out)["provenance"] == (
            "hop2-coop(eta2=0.5, gamma2=1, p_private=0.5, p_common=1.5)")

    def test_threshold_ignores_network_alpha2(self, capsys, tmp_path):
        # threshold's --alpha2 is command-line only: a shared network file
        # holding alpha2 must not turn the check on
        config = tmp_path / "net.cfg"
        config.write_text("alpha2=3\nbeta2=1\ngamma2=1\neta2=0\np1=1\np2=1\n")
        code, out, _ = run(capsys, "threshold", "--config", str(config))
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["paper", "exact"]
        code, out, _ = run(capsys, "threshold", "--config", str(config), "--json")
        assert code == 0 and "check" not in json.loads(out)

    @pytest.mark.parametrize("command,given,missing", [
        ("point", ["--alpha2", "0.4", "--beta2", "1"], ["gamma2", "eta2", "p1", "p2"]),
        ("optsplit", ["--gamma2", "1", "--p1", "2"], ["alpha2", "beta2", "eta2", "p2"]),
        ("region", ["--hop", "1", "--eta2", "0.3"], ["alpha2", "beta2", "gamma2", "p1", "p2"]),
        # the swept parameter is never missing
        ("sweep", ["--param", "alpha2", "--range", "0:1:1", "--beta2", "1"],
         ["gamma2", "eta2", "p1", "p2"]),
    ])
    def test_missing_parameters_all_named(self, capsys, command, given, missing):
        code, out, err = run(capsys, command, *given)
        assert code == 1 and out == ""
        assert err == f"error: missing parameter(s): {', '.join(missing)}\n"


class TestRegion:
    def test_hop1_corner_in_dump(self, capsys):
        code, out, _ = run(capsys, "region", "--hop", "1", "--alpha2", "0.4",
                           "--beta2", "1", "--gamma2", "1", "--eta2", "0.4",
                           "--p1", "2", "--p2", "2", "--f", "0.5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["halfspaces"]) == 5
        assert any(abs(v[0] - 0.6374) < 5e-4 and abs(v[1] - 0.1813) < 5e-4
                   for v in payload["vertices"])

    def test_no_cross_gain_degenerates_to_segment(self, capsys):
        code, out, _ = run(capsys, "region", "--hop", "1", "--alpha2", "0",
                           "--beta2", "1", "--gamma2", "1", "--eta2", "0",
                           "--p1", "2", "--p2", "2", "--f", "0.5", "--json")
        assert code == 0
        vertices = json.loads(out)["vertices"]
        assert vertices == [[0.0, 0.0], [1.0, 0.0]]

    def test_mcp_region_without_common_power(self, capsys):
        code, out, _ = run(capsys, "region", "--hop", "2mcp", "--alpha2", "0.4",
                           "--beta2", "1", "--gamma2", "1", "--eta2", "0",
                           "--p1", "2", "--p2", "1", "--f", "1", "--json")
        assert code == 0
        halfspaces = json.loads(out)["halfspaces"]
        assert len(halfspaces) == 3
        assert {h["label"]: h["bound"] for h in halfspaces}["common-joint"] == 0.0

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "region", "--hop", "2coop", "--alpha2", "0.4",
                           "--beta2", "1", "--gamma2", "1", "--eta2", "0.5",
                           "--p1", "2", "--p2", "2", "--f", "0.5")
        assert code == 0
        assert "sum-3" in out and "vertices" in out


class TestThreshold:
    def test_both_methods(self, capsys):
        code, out, _ = run(capsys, "threshold", "--beta2", "1", "--p1", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["paper"] == 6.0
        assert payload["exact"] == pytest.approx(3.0, abs=1e-12)

    def test_check_at_gain(self, capsys):
        code, out, _ = run(capsys, "threshold", "--beta2", "1", "--p1", "1",
                           "--alpha2", "3.0", "--json")
        assert code == 0
        check = json.loads(out)["check"]
        assert check["achieves_single_user"] and check["binding"] == "common-3user"

    def test_rejects_nonpositive(self, capsys):
        code, _, _ = run(capsys, "threshold", "--beta2", "0", "--p1", "1")
        assert code == 1


class TestOptsplit:
    def test_symmetric_fractions(self, capsys):
        code, out, _ = run(capsys, "optsplit", "--alpha2", "0.8", "--beta2", "1",
                           "--gamma2", "1", "--eta2", "0.8", "--p1", "2",
                           "--p2", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["f1"] == payload["f2"] < 1.0


class TestVerify:
    def test_filter_runs_only_matching_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", "7", "--filter", "vsi")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all("vsi" in l for l in lines)

    def test_seeded_runs_byte_identical(self, capsys):
        _, first, _ = run(capsys, "verify", "--seed", "7", "--filter", "vsi")
        _, second, _ = run(capsys, "verify", "--seed", "7", "--filter", "vsi")
        assert first == second

    def test_unmatched_filter_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--filter", "no-such-check")
        assert code == 1

    def test_failing_check_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "run_suite", lambda seed=0, name_filter=None: [
            OracleReport("stub-check", 0.0, 1.0, 1.0, 1e-9, False)])
        code, out, _ = run(capsys, "verify")
        assert code == 3
        assert "FAIL stub-check" in out


class TestExitCodes:
    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0
