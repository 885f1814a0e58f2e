"""A frozen corpus of command lines: each one's exit code and stdout.

The corpus covers every subcommand and its ``--help``, config files with
good, bad and overridden values, booleans, links and usage errors. A usage
error (exit 1) prints exactly one ``error:`` line to stderr; its wording is
not frozen. Regenerate the frozen results after an intended output change
with ``PYTHONPATH=src python tests/test_cli_corpus.py``.
"""

import json
import pathlib
import sys

import pytest

from meshrates.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FROZEN = ROOT / "tests" / "golden" / "cli_corpus.json"

NET = ["--alpha2", "0.4", "--beta2", "1", "--gamma2", "1", "--eta2", "0.5",
       "--p1", "3dB", "--p2", "2"]
CLEAN = ["--alpha2", "0", "--beta2", "1", "--gamma2", "1", "--eta2", "0",
         "--p1", "0dB", "--p2", "0dB"]
FIG2 = ["--alpha2", "0.4", "--beta2", "1", "--gamma2", "1", "--eta2", "0.4",
        "--p1", "2", "--p2", "2"]
SWEEP = ["--beta2", "1", "--gamma2", "1", "--p1", "1", "--p2", "1",
         "--param", "alpha2", "--range", "0:1:0.5"]

# Config files, written to a scratch directory; "{dir}" in an argument names it.
CONFIGS = {
    "net.cfg": "alpha2=0.4\nbeta2=1\ngamma2=1\neta2=0.5\np1=3dB\np2=2\n",
    "comments.cfg": "# a network\n\n  alpha2 = 0.3  \nbeta2=1\n# gains\ngamma2=1\neta2=0.2\n"
                    "p1=1\np2=1\n",
    "dashed.cfg": "alpha2=0.4\nbeta2=1\ngamma2=1\neta2=0.5\np1=-3dB\np2=2\npower-boost=yes\n"
                  "duplex=half\n",
    "bad_p1.cfg": "p1=4000dB\n",
    "bad_float.cfg": "alpha2=abc\n",
    "empty_p1.cfg": "p1=\n",
    "boost_yes.cfg": "power_boost=yes\n",
    "boost_no.cfg": "power_boost=No\n",
    "boost_empty.cfg": "power_boost=\n",
    "boost_maybe.cfg": "power_boost=maybe\n",
    "duplex_half.cfg": "duplex=half\n",
    "duplex_bad.cfg": "duplex=simplex\n",
    "schemes.cfg": "schemes=rs,mcp\n",
    "schemes_bad.cfg": "schemes=telepathy\n",
    "unknown.cfg": "beta2=1\nbogus=1\n",
    "flag_only.cfg": "beta2=1\nmethod=paper\n",
    "json.cfg": "json=1\n",
    "duplicate.cfg": "beta2=1\nbeta2=2\n",
    "noeq.cfg": "beta2 1\n",
    "sweep.cfg": "param=alpha2\nrange=0:1:0.5\nlink=eta2=alpha2\nlink=p2=p1/2\n"
                 "beta2=1\ngamma2=1\np1=1\nschemes=single,rs\n",
    "sweep_link.cfg": "link=eta2=alpha2\n",
    "param_bad.cfg": "param=zeta\n",
    "range_bad.cfg": "range=0:1\n",
    "range_dash.cfg": "range=-1:1:1\n",
    "link_bad.cfg": "link=eta2=alpha2*-1\n",
    "output.cfg": "output={dir}/from_file.csv\n",
    "output_twice.cfg": "output={dir}/a.csv\noutput={dir}/b.csv\n",
    "region.cfg": "alpha2=0.4\nbeta2=1\ngamma2=1\neta2=0.5\np1=1\np2=2\nhop=2coop\nf=0.25\n",
    "hop_bad.cfg": "hop=9\n",
    "f_bad.cfg": "f=half\n",
    "threshold.cfg": "alpha2=3\nbeta2=1\np1=1\n",
}

CORPUS = {
    # the top level
    "help": ["--help"],
    "no-command": [],
    "unknown-command": ["bogus"],
    "unknown-command-help": ["bogus", "--help"],
    "unknown-top-option": ["--version"],
    "command-prefix": ["poin"],
    # point
    "point-help": ["point", "--help"],
    "point-json": ["point", *CLEAN, "--schemes", "all", "--json"],
    "point-table": ["point", *NET],
    "point-single": ["point", *NET, "--schemes", "single"],
    "point-short-names": ["point", *NET, "--schemes", "bound,rs"],
    "point-half": ["point", *NET, "--duplex", "half", "--schemes", "rs", "--json"],
    "point-boost": ["point", *NET, "--duplex", "half", "--power-boost", "--schemes", "single"],
    "point-boost-full": ["point", *NET, "--power-boost"],
    "point-dash-power": ["point", *NET[:8], "--p1", "-3dB", "--p2", "-3dB", "--schemes", "single"],
    "point-equals-form": ["point", *NET[:10], "--p2=2", "--schemes=single"],
    "point-repeated-flag": ["point", *NET, "--alpha2", "0.2", "--schemes", "single"],
    "point-missing": ["point", "--alpha2", "0.4", "--beta2", "1"],
    "point-unknown-scheme": ["point", *NET, "--schemes", "telepathy"],
    "point-no-scheme": ["point", *NET, "--schemes", ","],
    "point-bad-duplex": ["point", *NET, "--duplex", "x"],
    "point-unknown-option": ["point", *NET, "--bogus", "1"],
    "point-prefix": ["point", *NET, "--alph", "0.4"],
    "point-stray-word": ["point", *NET, "extra"],
    "point-huge-db": ["point", *NET[:8], "--p1", "4000dB", "--p2", "1"],
    "point-bad-power": ["point", *NET[:8], "--p1", "loud", "--p2", "1"],
    "point-bad-float": ["point", *NET[2:], "--alpha2", "abc"],
    "point-overflow": ["point", "--alpha2", "1e200", "--beta2", "1", "--gamma2", "1",
                       "--eta2", "0", "--p1", "1e200", "--p2", "1", "--schemes", "single"],
    "point-flag-value": ["point", *NET, "--json=1"],
    "point-tiny-power-bottleneck": ["point", "--alpha2", "0.3", "--beta2", "1", "--gamma2", "1",
                                    "--eta2", "0.3", "--p1", "1e-12", "--p2", "2e-12",
                                    "--schemes", "single,rs"],
    "point-tiny-power-ties": ["point", "--alpha2", "0.3", "--beta2", "1", "--gamma2", "0.1",
                              "--eta2", "0.3", "--p1", "1e-15", "--p2", "1e-15",
                              "--schemes", "rs,coop", "--json"],
    # both hop rates subnormal: hop 1's is the smaller, not a tie
    "point-subnormal-power-bottleneck": ["point", "--alpha2", "0.3", "--beta2", "1",
                                         "--gamma2", "2", "--eta2", "0.3", "--p1", "1e-321",
                                         "--p2", "1e-321", "--schemes", "single,rs", "--json"],
    "point-value-missing": ["point", *NET[:10], "--p2"],
    "point-help-after-bad-value": ["point", "--p1", "4000dB", "--help"],
    "point-help-after-bad-choice": ["point", "--duplex", "x", "--help"],
    "point-config": ["point", "--config", "{dir}/net.cfg", "--json"],
    "point-config-equals": ["point", "--config={dir}/net.cfg", "--schemes", "single"],
    "point-config-override": ["point", "--config", "{dir}/net.cfg", "--alpha2", "0.1", "--json"],
    "point-config-comments": ["point", "--config", "{dir}/comments.cfg", "--schemes", "rs"],
    "point-config-dashed-key": ["point", "--config", "{dir}/dashed.cfg", "--schemes", "single",
                                "--json"],
    "point-config-bad-power": ["point", "--config", "{dir}/bad_p1.cfg", *NET[:8], "--p2", "2"],
    "point-config-bad-power-overridden": ["point", "--config", "{dir}/bad_p1.cfg", *NET],
    "point-config-bad-float": ["point", "--config", "{dir}/bad_float.cfg", *NET[2:]],
    "point-config-bad-float-overridden": ["point", "--config", "{dir}/bad_float.cfg", *NET,
                                          "--schemes", "single"],
    "point-config-empty-power": ["point", "--config", "{dir}/empty_p1.cfg", *NET[:8],
                                 "--p2", "2"],
    "point-config-boost-yes": ["point", "--config", "{dir}/boost_yes.cfg", *NET,
                               "--duplex", "half", "--json"],
    "point-config-boost-no": ["point", "--config", "{dir}/boost_no.cfg", *NET,
                              "--duplex", "half", "--json"],
    "point-config-boost-empty": ["point", "--config", "{dir}/boost_empty.cfg", *NET, "--json"],
    "point-config-boost-maybe": ["point", "--config", "{dir}/boost_maybe.cfg", *NET,
                                 "--duplex", "half"],
    "point-config-boost-maybe-overridden": ["point", "--config", "{dir}/boost_maybe.cfg", *NET,
                                            "--duplex", "half", "--power-boost",
                                            "--schemes", "single"],
    "point-config-boost-full": ["point", "--config", "{dir}/boost_yes.cfg", *NET],
    "point-config-duplex": ["point", "--config", "{dir}/duplex_half.cfg", *NET, "--json"],
    "point-config-duplex-overridden": ["point", "--config", "{dir}/duplex_half.cfg", *NET,
                                       "--duplex", "full", "--json"],
    "point-config-bad-duplex": ["point", "--config", "{dir}/duplex_bad.cfg", *NET],
    "point-config-bad-duplex-overridden": ["point", "--config", "{dir}/duplex_bad.cfg", *NET,
                                           "--duplex", "full", "--schemes", "single"],
    "point-config-schemes": ["point", "--config", "{dir}/schemes.cfg", *NET],
    "point-config-bad-schemes": ["point", "--config", "{dir}/schemes_bad.cfg", *NET],
    "point-config-bad-schemes-overridden": ["point", "--config", "{dir}/schemes_bad.cfg", *NET,
                                            "--schemes", "single"],
    "point-config-unknown-key": ["point", "--config", "{dir}/unknown.cfg", *NET],
    "point-config-json-key": ["point", "--config", "{dir}/json.cfg", *NET],
    "point-config-duplicate-key": ["point", "--config", "{dir}/duplicate.cfg", *NET],
    "point-config-no-equals": ["point", "--config", "{dir}/noeq.cfg", *NET],
    "point-config-missing-file": ["point", "--config", "{dir}/absent.cfg", *NET],
    "point-config-no-value": ["point", *NET, "--config"],
    "point-config-sweep-keys": ["point", "--config", "{dir}/sweep.cfg", "--alpha2", "0.3",
                                "--eta2", "0.3", "--p2", "1"],
    "point-config-help": ["point", "--config", "{dir}/net.cfg", "--help"],
    "point-bad-config-help": ["point", "--config", "{dir}/bad_p1.cfg", "--help"],
    # sweep
    "sweep-help": ["sweep", "--help"],
    "sweep-fig3-p0db": ["sweep", "--config", "configs/fig3_p0db.cfg", "--range", "0.5:0.6:0.1"],
    "sweep-fig3-p10db": ["sweep", "--config", "configs/fig3_p10db.cfg", "--range", "0.3:0.3:1"],
    "sweep-fig4-p3db": ["sweep", "--config", "configs/fig4_p3db.cfg", "--range", "0.5:0.5:1"],
    "sweep-fig5-p10db": ["sweep", "--config", "configs/fig5_p10db.cfg", "--range", "0.9:1:0.1"],
    "sweep-flags": ["sweep", *SWEEP, "--link", "eta2=alpha2", "--schemes", "single,rs,bound"],
    "sweep-config": ["sweep", "--config", "{dir}/sweep.cfg"],
    "sweep-config-override": ["sweep", "--config", "{dir}/sweep.cfg", "--range", "0:1:1",
                              "--schemes", "all"],
    "sweep-config-links-replaced": ["sweep", "--config", "{dir}/sweep.cfg",
                                    "--link", "eta2=alpha2", "--p2", "3"],
    "sweep-config-links-replaced-missing": ["sweep", "--config", "{dir}/sweep_link.cfg",
                                            *SWEEP[:6], "--param", "alpha2", "--range", "0:1:1",
                                            "--link", "p2=p1", "--schemes", "single"],
    "sweep-config-bad-param": ["sweep", "--config", "{dir}/param_bad.cfg", *SWEEP[:8],
                               "--range", "0:1:1", "--eta2", "0"],
    "sweep-config-bad-param-overridden": ["sweep", "--config", "{dir}/param_bad.cfg", *SWEEP,
                                          "--eta2", "0", "--schemes", "single"],
    "sweep-config-bad-range": ["sweep", "--config", "{dir}/range_bad.cfg", *SWEEP[:10],
                               "--eta2", "0"],
    "sweep-config-bad-range-overridden": ["sweep", "--config", "{dir}/range_bad.cfg", *SWEEP,
                                          "--eta2", "0", "--schemes", "single"],
    "sweep-config-dash-range": ["sweep", "--config", "{dir}/range_dash.cfg", *SWEEP[:10],
                                "--eta2", "0", "--schemes", "single"],
    "sweep-config-bad-link": ["sweep", "--config", "{dir}/link_bad.cfg", *SWEEP],
    "sweep-config-bad-link-overridden": ["sweep", "--config", "{dir}/link_bad.cfg", *SWEEP,
                                         "--link", "eta2=alpha2", "--schemes", "single"],
    "sweep-config-output": ["sweep", "--config", "{dir}/output.cfg", *SWEEP, "--eta2", "0",
                            "--schemes", "single"],
    "sweep-config-output-overridden": ["sweep", "--config", "{dir}/output.cfg", *SWEEP,
                                       "--eta2", "0", "--schemes", "single", "--output", "-"],
    "sweep-config-output-twice": ["sweep", "--config", "{dir}/output_twice.cfg", *SWEEP,
                                  "--eta2", "0"],
    "sweep-output-file": ["sweep", *SWEEP, "--eta2", "0", "--schemes", "single",
                          "--output", "{dir}/flag.csv"],
    "sweep-output-unwritable": ["sweep", *SWEEP, "--eta2", "0", "--schemes", "single",
                                "--output", "{dir}/no/such/dir.csv"],
    "sweep-missing-param": ["sweep", *SWEEP[:8], "--range", "0:1:1", "--eta2", "0"],
    "sweep-missing-range": ["sweep", *SWEEP[:10], "--eta2", "0"],
    "sweep-no-options": ["sweep"],
    "sweep-bad-param": ["sweep", *SWEEP[:8], "--param", "zeta", "--range", "0:1:1"],
    "sweep-missing-network": ["sweep", "--param", "alpha2", "--range", "0:1:1", "--beta2", "1"],
    "sweep-power-range": ["sweep", *CLEAN[:8], "--param", "p1", "--range", "-3:0:3",
                          "--link", "p2=p1", "--schemes", "single"],
    "sweep-dash-range": ["sweep", *SWEEP[:8], "--eta2", "0", "--param", "alpha2",
                         "--range", "-1:0:0.5", "--schemes", "single"],
    "sweep-empty-range": ["sweep", *SWEEP[:8], "--eta2", "0", "--param", "alpha2",
                          "--range", "1:0:0.1"],
    "sweep-nan-range": ["sweep", *SWEEP[:8], "--eta2", "0", "--param", "alpha2",
                        "--range", "0:1:nan"],
    "sweep-text-range": ["sweep", *SWEEP[:8], "--eta2", "0", "--param", "alpha2",
                         "--range", "a:b:c"],
    "sweep-zero-step": ["sweep", *SWEEP[:8], "--eta2", "0", "--param", "alpha2",
                        "--range", "0:1:0"],
    "sweep-over-cap": ["sweep", *SWEEP[:8], "--eta2", "0", "--param", "alpha2",
                       "--range", "0:1e12:1e-3"],
    "sweep-bad-link": ["sweep", *SWEEP, "--link", "eta2=alpha2*1e"],
    "sweep-unknown-link": ["sweep", *SWEEP, "--link", "zeta=alpha2"],
    "sweep-link-cycle": ["sweep", *SWEEP, "--link", "eta2=gamma2", "--link", "gamma2=eta2*2"],
    "sweep-link-swept": ["sweep", *SWEEP, "--eta2", "0", "--link", "alpha2=beta2"],
    "sweep-linked-twice": ["sweep", *SWEEP, "--link", "eta2=alpha2", "--link", "eta2=gamma2"],
    "sweep-zero-gain-link": ["sweep", *SWEEP, "--link", "eta2=alpha2*0", "--schemes", "single"],
    "sweep-no-schemes": ["sweep", *SWEEP, "--eta2", "0", "--schemes", ""],
    "sweep-boost": ["sweep", *SWEEP, "--eta2", "0", "--duplex", "half", "--power-boost",
                    "--schemes", "rs"],
    # region
    "region-help": ["region", "--help"],
    # the paper's Fig. 2 regions at the default f = 0.5, text and JSON
    "region-hop1": ["region", "--hop", "1", *FIG2],
    "region-hop1-json": ["region", "--hop", "1", *FIG2, "--json"],
    "region-fig2-2rs": ["region", "--hop", "2rs", *FIG2],
    "region-fig2-2rs-json": ["region", "--hop", "2rs", *FIG2, "--json"],
    "region-fig2-2coop": ["region", "--hop", "2coop", *FIG2],
    "region-2coop-json": ["region", "--hop", "2coop", *FIG2, "--json"],
    "region-fig2-2mcp": ["region", "--hop", "2mcp", *FIG2],
    "region-fig2-2mcp-json": ["region", "--hop", "2mcp", *FIG2, "--json"],
    "region-2rs": ["region", "--hop", "2rs", *FIG2, "--f", "0.25"],
    "region-2mcp": ["region", "--hop", "2mcp", *FIG2, "--f", "1"],
    # mcp's scalar path without a cross gain, and with the power-of-4
    # amplitude scaling on (gamma2 = 20, eta2 = 12)
    "region-2mcp-eta0-json": ["region", "--hop", "2mcp", "--json", *FIG2[:6], "--eta2", "0",
                              *FIG2[8:]],
    "region-2mcp-scaled-json": ["region", "--hop", "2mcp", "--json", *FIG2[:4], "--gamma2", "20",
                                "--eta2", "12", *FIG2[8:]],
    "region-boost": ["region", "--hop", "1", *FIG2, "--duplex", "half", "--power-boost"],
    "region-config": ["region", "--config", "{dir}/region.cfg", "--json"],
    "region-config-override": ["region", "--config", "{dir}/region.cfg", "--hop", "1",
                               "--f", "0.75"],
    "region-config-bad-hop": ["region", "--config", "{dir}/hop_bad.cfg", *FIG2],
    "region-config-bad-hop-overridden": ["region", "--config", "{dir}/hop_bad.cfg", *FIG2,
                                         "--hop", "2rs"],
    "region-config-bad-f": ["region", "--config", "{dir}/f_bad.cfg", *FIG2, "--hop", "1"],
    "region-config-bad-f-overridden": ["region", "--config", "{dir}/f_bad.cfg", *FIG2,
                                       "--hop", "1", "--f", "0.5"],
    "region-missing-hop": ["region", *FIG2],
    "region-no-options": ["region"],
    "region-bad-hop": ["region", "--hop", "3", *FIG2],
    "region-bad-f": ["region", "--hop", "1", *FIG2, "--f", "half"],
    "region-missing-network": ["region", "--hop", "1", "--eta2", "0.3"],
    # threshold
    "threshold-help": ["threshold", "--help"],
    "threshold-text": ["threshold", "--beta2", "1", "--p1", "1"],
    "threshold-json": ["threshold", "--beta2", "2", "--p1", "10dB", "--json"],
    "threshold-paper": ["threshold", "--beta2", "1", "--p1", "1", "--method", "paper"],
    "threshold-check": ["threshold", "--beta2", "1", "--p1", "1", "--alpha2", "3"],
    "threshold-check-json": ["threshold", "--beta2", "1", "--p1", "1", "--alpha2", "2",
                             "--json"],
    "threshold-dash-power": ["threshold", "--beta2", "1", "--p1", "-3dB"],
    "threshold-config": ["threshold", "--config", "{dir}/threshold.cfg"],
    "threshold-config-override": ["threshold", "--config", "{dir}/threshold.cfg",
                                  "--p1", "2", "--alpha2", "1", "--json"],
    "threshold-config-network": ["threshold", "--config", "{dir}/net.cfg", "--json"],
    "threshold-config-flag-only": ["threshold", "--config", "{dir}/flag_only.cfg", "--p1", "1"],
    "threshold-bad-method": ["threshold", "--beta2", "1", "--p1", "1", "--method", "guess"],
    "threshold-missing-beta2": ["threshold", "--p1", "1"],
    "threshold-missing-p1": ["threshold", "--beta2", "1"],
    "threshold-no-options": ["threshold"],
    "threshold-zero-gain": ["threshold", "--beta2", "0", "--p1", "1"],
    "threshold-overflow": ["threshold", "--beta2", "1e200", "--p1", "1e200"],
    "threshold-bad-alpha2": ["threshold", "--beta2", "1", "--p1", "1", "--alpha2", "x"],
    "threshold-check-tiny-power": ["threshold", "--beta2", "1", "--p1", "1e-15",
                                   "--alpha2", "0"],
    # beta2 * p1 below the smallest normal float: the check is refused
    "threshold-check-subnormal-target": ["threshold", "--beta2", "1", "--p1", "1e-321",
                                         "--alpha2", "0"],
    # optsplit
    "optsplit-help": ["optsplit", "--help"],
    "optsplit-text": ["optsplit", *NET],
    "optsplit-json": ["optsplit", *FIG2, "--json"],
    "optsplit-half": ["optsplit", *FIG2, "--duplex", "half", "--power-boost"],
    "optsplit-config": ["optsplit", "--config", "{dir}/net.cfg"],
    "optsplit-config-region-keys": ["optsplit", "--config", "{dir}/region.cfg", "--json"],
    "optsplit-missing": ["optsplit", "--gamma2", "1", "--p1", "2"],
    "optsplit-schemes": ["optsplit", *NET, "--schemes", "all"],
    # verify
    "verify-help": ["verify", "--help"],
    # the full suite's stdout, which must stay byte-identical
    "verify-seed0": ["verify", "--seed", "0"],
    "verify-seed7": ["verify", "--seed", "7"],
    "verify-vsi": ["verify", "--seed", "7", "--filter", "vsi"],
    "verify-ordering": ["verify", "--filter", "scheme-ordering"],
    "verify-negative-seed": ["verify", "--seed", "-1"],
    "verify-text-seed": ["verify", "--seed", "one"],
    "verify-unmatched": ["verify", "--filter", "no-such-check"],
    "verify-dash-filter": ["verify", "--filter", "--config"],
    "verify-config": ["verify", "--config", "{dir}/net.cfg"],
    "verify-network": ["verify", "--alpha2", "0.4"],
}


def invoke(args, directory):
    """Run one command line from the repository root, with its config files
    written to ``directory``."""
    for name, text in CONFIGS.items():
        (directory / name).write_text(text.format(dir=directory))
    return main([arg.format(dir=directory) for arg in args])


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


def test_corpus_covers_frozen(frozen):
    assert sorted(frozen) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_invocation(name, frozen, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    code = invoke(CORPUS[name], tmp_path)
    out, err = capsys.readouterr()
    want = frozen[name]
    if sys.version_info >= (3, 13) and "--help" in CORPUS[name]:
        # Python 3.13 lines the command list of --help up in other columns
        out, want = " ".join(out.split()), {**want, "stdout": " ".join(want["stdout"].split())}
    assert {"code": code, "stdout": out} == want
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


if __name__ == "__main__":
    import contextlib
    import io
    import os
    import tempfile

    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    results = {}
    for name, args in sorted(CORPUS.items()):
        with tempfile.TemporaryDirectory() as directory:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = invoke(args, pathlib.Path(directory))
            results[name] = {"code": code, "stdout": out.getvalue()}
    FROZEN.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
