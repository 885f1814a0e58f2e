import csv
import io
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import warnings

import pytest

from meshrates import oracle
from meshrates.cli import MAX_SWEEP_POINTS, UsageError, _parse_range, main, parse_power
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

    def test_subnormal_private_power_without_common_power(self, capsys):
        # hop 2 at f2 = 1 sends p_private = 3.08e-311, p_common = 0: its mcp
        # sum bound is the private bound, not the factored quartic's overflow.
        # coop's hop 2 sends all power common, at its two-user bound
        # eta2*p2/(3 ln 2); an absolute tie once gave f2 = 1 and 0.
        code, out, err = run(capsys, "point", "--alpha2", "0.2", "--beta2", "1",
                             "--gamma2", "1.307e-71", "--eta2", "1.588e-4", "--p1", "1",
                             "--p2", "3.08e-311", "--schemes", "all", "--json")
        assert (code, err) == (0, "")
        results = {r["scheme"]: r for r in json.loads(out)["results"]}
        assert (results["mcp"]["rate"], results["mcp"]["f2"]) == (0.0, 1.0)
        assert (results["coop"]["f2"], results["coop"]["r_private"]) == (0.0, 0.0)
        assert results["coop"]["rate"] == pytest.approx(1.588e-4 * 3.08e-311 / (3.0 * math.log(2)),
                                                        rel=1e-8, abs=0.0)

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

    # each of these loops forever, or runs out of memory, without the check
    @pytest.mark.parametrize("text", ["0:1:nan", "nan:1:0.5", "0:1:inf", "0:inf:1", "-inf:1:0.5"])
    def test_non_finite_range_is_usage_error(self, capsys, text):
        code, out, err = run(capsys, "sweep", *CLEAN, "--param", "alpha2",
                             "--range", text, "--schemes", "single")
        assert code == 1 and out == ""
        assert err == f"error: range start, stop and step must be finite, got {text!r}\n"

    def test_range_over_the_point_cap_is_refused_up_front(self, capsys):
        # 1e15 points: building the list first would exhaust memory
        code, out, err = run(capsys, "sweep", *CLEAN, "--param", "alpha2",
                             "--range", "0:1e12:1e-3", "--schemes", "single")
        assert code == 1 and out == ""
        assert err == ("error: range '0:1e12:1e-3' has 1000000000000001 points, "
                       "more than the cap of 1000000\n")

    def test_point_cap_is_inclusive(self):
        assert len(_parse_range(f"0:{MAX_SWEEP_POINTS - 1}:1")) == MAX_SWEEP_POINTS
        with pytest.raises(UsageError, match=f"has {MAX_SWEEP_POINTS + 1} points"):
            _parse_range(f"0:{MAX_SWEEP_POINTS}:1")
        # (stop - start)/step + 1/2 rounds down to 10^6 here, but the points
        # run on to k = 10^6, one past the cap
        with pytest.raises(UsageError, match=f"has {MAX_SWEEP_POINTS + 1} points"):
            _parse_range("0:333333.1666666666:0.3333333333333333")

    def test_range_whose_steps_vanish_is_one_point(self):
        # 1e300 + k is 1e300 for every k: the first point is stop, so the
        # range ends there, however far below the float spacing the step is
        assert _parse_range("1e300:1e300:1") == [1e300]

    def test_range_repeats_no_point(self, capsys):
        # steps below the float spacing of the values: 1e20 + 1 and 1e16 + 1
        # round back onto the start, which is also stop here, so the range
        # ends there; 1e16 + 12 clips onto the kept stop 1e16 + 10
        assert _parse_range("1e16:1e16:1") == [1e16]
        assert _parse_range("1e16:10000000000000010:2") == [1e16 + 2 * k for k in range(6)]
        code, out, err = run(capsys, "sweep", "--param", "p1", "--range", "1e20:1e20:1",
                             "--alpha2", "0.4", "--beta2", "1", "--gamma2", "1",
                             "--eta2", "0.4", "--p2", "1", "--schemes", "single")
        assert (code, err) == (0, "")
        assert read_csv(out)[1] == [["1e+20", "0.637429920615", "2"]]
        # 1e16 + 1 rounds back onto 1e16 below stop: the step cannot move it
        text = "1e16:10000000000000010:1"
        code, out, err = run(capsys, "sweep", *CLEAN, "--param", "alpha2", "--range", text)
        assert code == 1 and out == ""
        assert err == (f"error: range {text!r} repeats the point 1e+16: "
                       "its step is below the float spacing there\n")

    def test_range_whose_span_overflows_is_refused(self, capsys):
        # (stop - start)/step is past the float range: the error names inf
        for text in ("-1e308:1e308:1e-300", "0:1e308:1e-300"):
            code, out, err = run(capsys, "sweep", *CLEAN, "--param", "alpha2",
                                 "--range", text)
            assert code == 1 and out == ""
            assert err == (f"error: range {text!r} has inf points, "
                           "more than the cap of 1000000\n")

    @staticmethod
    def stepping_loop(start, stop, step):
        """The points as sweep once built them, one step at a time."""
        values = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + step / 2.0:
                break
            values.append(min(v, stop) if v > stop else v)
            k += 1
        return values

    def test_points_match_the_stepping_loop(self):
        rng = random.Random(11)
        off_by_rounding = 0
        for trial in range(12000):
            start, step = rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-3.0, 1.0)
            # every other stop sits on a half step, where rounding decides
            # whether the last point is built
            steps = rng.randint(-3, 40) + (0.5 if trial % 2 else rng.random())
            stop = start + steps * step
            want = self.stepping_loop(start, stop, step)
            off_by_rounding += len(want) != max(math.floor((stop - start) / step + 0.5) + 1, 0)
            if want:
                assert _parse_range(f"{start!r}:{stop!r}:{step!r}") == want
            else:
                with pytest.raises(UsageError, match="is empty"):
                    _parse_range(f"{start!r}:{stop!r}:{step!r}")
        assert off_by_rounding > 100

    # bad syntax, a factor the number pattern admits that is not a number,
    # factors that are not finite, a negative factor and a zero power
    @pytest.mark.parametrize("text", ["eta2=alpha2+1", "eta2=alpha2*1e", "eta2=alpha2*.",
                                      "eta2=alpha2*+-", "eta2=alpha2*1e999",
                                      "eta2=alpha2/1e-320", "eta2=alpha2*-1", "p2=-2*p1",
                                      "p2=p1*0"])
    def test_bad_link_is_usage_error(self, capsys, text):
        code, out, err = run(capsys, "sweep", *CLEAN, "--param", "alpha2",
                             "--range", "0:1:0.5", "--link", text, "--schemes", "single")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and text in err

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

    # Each scheme's columns, pinned; schemes come in their fixed order.
    @pytest.mark.parametrize("requested,columns", [
        ("single", ["single_rate", "single_rate_bottleneck"]),
        ("rs", ["rate_splitting", "rate_splitting_f1", "rate_splitting_f2",
                "rate_splitting_bottleneck"]),
        ("coop", ["coop", "coop_f1", "coop_f2"]),
        ("mcp", ["mcp", "mcp_f1", "mcp_f2"]),
        ("bound", ["first_hop_bound", "first_hop_bound_f1"]),
        ("mcp,single", ["single_rate", "single_rate_bottleneck", "mcp", "mcp_f1", "mcp_f2"]),
    ], ids=["single", "rs", "coop", "mcp", "bound", "mcp,single"])
    def test_header_pinned(self, capsys, requested, columns):
        code, out, _ = run(capsys, "sweep", *CLEAN[2:], "--param", "alpha2",
                           "--range", "0:0.5:0.5", "--schemes", requested)
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["alpha2"] + columns
        assert all(len(row) == len(header) and all(row) for row in rows)

    def test_zero_factor_links_a_gain(self, capsys):
        # a gain may be zero, so a zero factor is refused only for a power
        code, out, err = run(capsys, "sweep", *CLEAN[2:], "--param", "alpha2",
                             "--range", "0:1:1", "--link", "eta2=alpha2*0", "--schemes", "single")
        assert code == 0, err
        assert out == run(capsys, "sweep", *CLEAN[2:], "--param", "alpha2",
                          "--range", "0:1:1", "--schemes", "single")[1]

    def test_sweep_leaves_oracle_unimported(self):
        script = ("import sys\n"
                  "import meshrates.cli\n"
                  f"code = meshrates.cli.main(['sweep', *{CLEAN[2:]!r}, '--param', 'alpha2',"
                  " '--range', '0:0:1', '--schemes', 'all'])\n"
                  "print(code, 'meshrates.oracle' in sys.modules)\n")
        path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"

    def test_deterministic_output(self, capsys):
        args = ("sweep", "--beta2", "1", "--gamma2", "1", "--p1", "2", "--p2", "1",
                "--param", "alpha2", "--range", "0:0.4:0.2", "--link", "eta2=alpha2",
                "--schemes", "rs,coop")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestLinkOrder:
    """Links resolve in dependency order, so every link holds in the swept
    network whatever order the links are given in."""

    ARGS = ["sweep", "--beta2", "1", "--p1", "1", "--p2", "1",
            "--param", "alpha2", "--range", "0:1:0.5", "--schemes", "single,rs"]

    def sweep(self, capsys, *extra):
        code, out, err = run(capsys, *self.ARGS, *extra)
        assert code == 0, err
        return out

    def test_order_given_does_not_matter(self, capsys):
        forward = self.sweep(capsys, "--link", "eta2=gamma2", "--link", "gamma2=beta2")
        backward = self.sweep(capsys, "--link", "gamma2=beta2", "--link", "eta2=gamma2")
        assert forward == backward
        assert forward == self.sweep(capsys, "--gamma2", "1", "--eta2", "1")

    def test_link_follows_linked_source_over_fixed_value(self, capsys):
        # gamma2 = beta2 = 1 overrides --gamma2 2, and eta2 reads that 1
        linked = self.sweep(capsys, "--gamma2", "2", "--link", "eta2=gamma2",
                            "--link", "gamma2=beta2")
        assert linked == self.sweep(capsys, "--gamma2", "1", "--eta2", "1")

    @pytest.mark.parametrize("links,cycle", [
        (["eta2=gamma2", "gamma2=eta2*2"], "eta2=gamma2, gamma2=eta2*2"),
        (["eta2=eta2/2"], "eta2=eta2/2"),
        (["p2=eta2", "eta2=gamma2", "gamma2=eta2*2"], "p2=eta2, eta2=gamma2, gamma2=eta2*2"),
    ], ids=["pair", "self", "reader"])
    def test_cycle_is_usage_error(self, capsys, links, cycle):
        code, out, err = run(capsys, *self.ARGS, "--gamma2", "1", "--eta2", "1",
                             *(arg for link in links for arg in ("--link", link)))
        assert code == 1 and out == ""
        assert err == f"error: links in or behind a cycle: {cycle}\n"

    def test_link_to_swept_parameter_is_usage_error(self, capsys):
        # the link would overwrite every swept value, so each row would be
        # labelled with a network that was never evaluated
        code, out, err = run(capsys, *self.ARGS, "--gamma2", "1", "--eta2", "0.2",
                             "--link", "alpha2=beta2")
        assert code == 1 and out == ""
        assert err == "error: --link cannot set the swept parameter alpha2\n"

    def test_parameter_linked_twice_is_usage_error(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--gamma2", "1", "--link", "eta2=alpha2",
                             "--link", "eta2=gamma2")
        assert code == 1 and out == ""
        assert err == "error: parameter(s) linked more than once: eta2\n"


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

    # full duplex has no idle half to borrow power from, so a boost there
    # would change nothing; it is refused wherever it comes from
    BOOST_ERROR = "error: power_boost needs duplex='half', got duplex='full'\n"

    def test_power_boost_without_half_duplex_point(self, capsys):
        code, out, err = run(capsys, "point", "--alpha2", "0.3", "--beta2", "1", "--gamma2", "1",
                             "--eta2", "0.3", "--p1", "2", "--p2", "2", "--schemes", "single",
                             "--power-boost")
        assert (code, out, err) == (1, "", self.BOOST_ERROR)

    def test_power_boost_without_half_duplex_sweep(self, capsys, tmp_path):
        target = tmp_path / "rates.csv"
        code, out, err = run(capsys, "sweep", *as_flags(FILE_KEYS["sweep"][0]),
                             "--power-boost", "--output", str(target))
        assert (code, out, err) == (1, "", self.BOOST_ERROR)
        assert not target.exists()

    def test_power_boost_without_half_duplex_config(self, capsys, tmp_path):
        config = tmp_path / "point.cfg"
        config.write_text("power_boost=yes\n")
        code, out, err = run(capsys, "point", "--config", str(config), *CLEAN, "--json")
        assert (code, out, err) == (1, "", self.BOOST_ERROR)

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

    @pytest.mark.parametrize("links,missing", [
        # a linked parameter is missing only through its source
        (["eta2=gamma2"], ["beta2", "gamma2", "p2"]),
        (["eta2=gamma2", "p2=p1/2"], ["beta2", "gamma2"]),
        # links apply in dependency order: eta2 follows gamma2, which is
        # missing only through beta2
        (["eta2=gamma2", "gamma2=beta2"], ["beta2", "p2"]),
    ])
    def test_missing_link_sources_all_named(self, capsys, tmp_path, links, missing):
        config = tmp_path / "sweep.cfg"
        config.write_text("alpha2=0.3\neta2=0.1\np1=1\n"
                          + "".join(f"link={link}\n" for link in links))
        code, out, err = run(capsys, "sweep", "--config", str(config),
                             "--param", "alpha2", "--range", "0:1:1")
        assert code == 1 and out == ""
        assert err == f"error: missing parameter(s): {', '.join(missing)}\n"

    @pytest.mark.parametrize("command,option,choices", [
        ("region", "--hop", "1, 2coop, 2mcp, 2rs"),
        ("sweep", "--param", "alpha2, beta2, gamma2, eta2, p1, p2"),
    ])
    def test_missing_choice_option_is_one_line(self, capsys, command, option, choices):
        code, out, err = run(capsys, command)
        assert code == 1 and out == ""
        assert err == f"error: Missing option '{option}'. Choose from: {choices}\n"


class TestRegion:
    @pytest.mark.parametrize("hop", ["1", "2rs", "2coop", "2mcp"])
    def test_power_boost_dumps_doubled_powers(self, capsys, hop):
        # a boosted hop is the unboosted hop at twice the power, in bits per
        # use of that hop: the half-duplex 1/2 is for end-to-end rates only
        gains = ["--hop", hop, "--alpha2", "0.3", "--beta2", "1", "--gamma2", "1",
                 "--eta2", "0.3", "--f", "0.5"]
        code, boosted, _ = run(capsys, "region", *gains, "--p1", "2", "--p2", "2",
                               "--duplex", "half", "--power-boost")
        assert code == 0
        code, doubled, _ = run(capsys, "region", *gains, "--p1", "4", "--p2", "4")
        assert code == 0
        assert boosted == doubled

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

    @pytest.mark.parametrize("beta2,p1,message", [
        ("1", "inf", "vsi_threshold needs finite positive beta2 and p1, got beta2=1.0, p1=inf"),
        ("nan", "1", "vsi_threshold needs finite positive beta2 and p1, got beta2=nan, p1=1.0"),
        # beta2 * beta2 in the printed form overflows to inf
        ("1e200", "1e200", "vsi threshold overflows a float at beta2=1e+200, p1=1e+200"),
        ("0", "1", "vsi_threshold needs finite positive beta2 and p1, got beta2=0.0, p1=1.0"),
        ("1", "0", "vsi_threshold needs finite positive beta2 and p1, got beta2=1.0, p1=0.0"),
    ], ids=["infinite-power", "nan-gain", "overflow", "zero-gain", "zero-power"])
    def test_non_finite_is_usage_error(self, capsys, beta2, p1, message):
        code, out, err = run(capsys, "threshold", "--beta2", beta2, "--p1", p1, "--json")
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("alpha2", ["-1", "nan", "inf", "1e308"])
    def test_invalid_check_gain_is_usage_error(self, capsys, alpha2):
        # vsi_check refuses the gain itself; 1e308 overflows (beta2 + 2*alpha2)*p1
        code, out, err = run(capsys, "threshold", "--beta2", "1", "--p1", "1",
                             "--alpha2", alpha2)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "alpha2" in err, err


class TestOptsplit:
    def test_symmetric_fractions(self, capsys):
        code, out, _ = run(capsys, "optsplit", "--alpha2", "0.8", "--beta2", "1",
                           "--gamma2", "1", "--eta2", "0.8", "--p1", "2",
                           "--p2", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["f1"] == payload["f2"] < 1.0


class TestVerify:
    def test_negative_seed_is_usage_error_naming_option(self, capsys):
        code, _, err = run(capsys, "verify", "--seed", "-1")
        assert code == 1
        assert "--seed" in err

    def test_failing_check_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "run_suite", lambda seed=0, name_filter=None: [
            OracleReport("stub-check", 0.0, 1.0, 1.0, 1e-9, False)])
        code, out, _ = run(capsys, "verify")
        assert code == 3
        assert "FAIL stub-check" in out


class TestScripts:
    def test_verification_script_runs_without_pythonpath(self):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_verification.py"),
                               "0", "vsi"], capture_output=True, text=True, env=env,
                              cwd=ROOT / "tests", timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "4/4 checks passed"


class TestExitCodes:
    def test_cli_imports_only_numpy_and_the_standard_library(self):
        # modules loaded before meshrates (site hooks, numpy) are not the CLI's
        script = ("import sys, numpy\n"
                  "before = set(sys.modules)\n"
                  "import meshrates.cli\n"
                  "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
                  "print(sorted(added - set(sys.stdlib_module_names) - {'meshrates'}))\n")
        path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class TestCommandLine:
    """Usage errors are one ``error:`` line naming the option or value, and
    an option takes the next token as its value even when it begins with a
    dash."""

    @pytest.mark.parametrize("args,named", [
        (["--bogus", "1"], "--bogus"),
        (["--duplex", "x"], "'x'"),
        # a prefix of --alpha2 is not --alpha2
        (["--alph", "0.4"], "--alph"),
    ], ids=["unknown-option", "bad-choice", "prefix"])
    def test_usage_error_is_one_line(self, capsys, args, named):
        code, out, err = run(capsys, "point", *CLEAN, *args)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    def test_db_power_past_the_float_range_flag(self, capsys):
        code, out, err = run(capsys, "point", "--alpha2", "0.4", "--beta2", "1", "--gamma2", "1",
                             "--eta2", "0.4", "--p1", "4000dB", "--p2", "1")
        assert code == 1 and out == ""
        assert err == "error: Invalid value for '--p1': 4000dB is past the float range\n"

    def test_db_power_past_the_float_range_config(self, capsys, tmp_path):
        config = tmp_path / "point.cfg"
        config.write_text("p1=4000dB\n")
        code, out, err = run(capsys, "point", "--config", str(config), *CLEAN[:8], "--p2", "1")
        assert code == 1 and out == ""
        assert err == "error: Invalid value for '--p1': 4000dB is past the float range\n"

    def test_power_value_beginning_with_dash(self, capsys):
        code, out, _ = run(capsys, "point", *CLEAN[:8], "--p1", "-3dB", "--p2", "-3dB",
                           "--schemes", "single", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["p1"] == payload["params"]["p2"] == 10.0 ** -0.3
        linear = str(10.0 ** -0.3)
        _, same, _ = run(capsys, "point", *CLEAN[:8], "--p1", linear, "--p2", linear,
                         "--schemes", "single", "--json")
        assert out == same

    def test_range_value_beginning_with_dash(self, capsys):
        code, out, err = run(capsys, "sweep", *CLEAN[:8], "--param", "p1",
                             "--range", "-3:0:3", "--link", "p2=p1", "--schemes", "single")
        assert code == 1 and out == ""
        assert err == "error: power sweep range must contain positive values\n"

    def test_command_line_links_replace_file_links(self, capsys, tmp_path):
        config = tmp_path / "sweep.cfg"
        config.write_text("link=eta2=alpha2\n")
        code, out, err = run(capsys, "sweep", "--config", str(config), "--beta2", "1",
                             "--gamma2", "1", "--p1", "1", "--param", "alpha2",
                             "--range", "0:1:1", "--link", "p2=p1", "--schemes", "single")
        assert code == 1 and out == ""
        assert err == "error: missing parameter(s): eta2\n"
