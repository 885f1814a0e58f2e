"""A sweep row and ``point --json`` serialize the same results alike, and
``optsplit --json`` prints rate splitting's splits."""

import csv
import io
import json

import pytest

from meshrates.cli import _fmt, main

SCHEMES = ("single_rate", "rate_splitting", "coop", "mcp", "first_hop_bound")


def network_args(alpha2, beta2, gamma2, eta2, p1, p2):
    return ["--beta2", str(beta2), "--gamma2", str(gamma2), "--eta2", str(eta2),
            "--p1", str(p1), "--p2", str(p2)], str(alpha2)


@pytest.mark.parametrize("network,extra", [
    ((0.3, 1.0, 1.0, 0.2, 2.0, 1.0), []),               # in regime
    ((0.4, 1.0, 1.0, 0.4, 2.0, 2.0), []),               # balanced hops
    ((0.06, 1.0, 1.0, 0.06, 2.0, 1.0), ["--duplex", "half", "--power-boost"]),
    ((1.5, 1.0, 0.7, 1.2, 5.0, 0.3), []),               # both hops out of regime
    ((2.0, 0.5, 2.0, 0.1, 0.05, 20.0), ["--duplex", "half"]),
])
def test_sweep_cells_are_point_fields(capsys, network, extra):
    args, alpha2 = network_args(*network)
    assert main(["sweep", *args, *extra, "--param", "alpha2",
                 "--range", f"{alpha2}:{alpha2}:1"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2
    cells = dict(zip(*rows))
    assert main(["point", *args, *extra, "--alpha2", alpha2, "--json"]) == 0
    results = {r["scheme"]: r for r in json.loads(capsys.readouterr().out)["results"]}
    assert list(results) == list(SCHEMES)
    for name, row in results.items():
        assert cells[name] == _fmt(row["rate"])
        for key in ("f1", "f2", "bottleneck"):
            assert (f"{name}_{key}" in cells) == (key in row), (name, key)
            if key in row:
                expected = row[key] if key == "bottleneck" else _fmt(row[key])
                assert cells[f"{name}_{key}"] == expected, (name, key)
    assert main(["optsplit", *args, *extra, "--alpha2", alpha2, "--json"]) == 0
    splits = json.loads(capsys.readouterr().out)
    rs = results["rate_splitting"]
    assert splits == {"f1": rs["f1"], "f2": rs["f2"]}
