"""The figure sweeps regenerate the checked-in CSVs under out/.

Headers and bottleneck labels must match exactly and every rate column
within 1e-9. Split fractions are not compared: a better split optimizer may
move them without changing any rate. Fresh CSVs go to a temporary directory,
never into out/.
"""

import csv
import pathlib

import pytest

from meshrates.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
RATE_COLUMNS = {"single_rate", "rate_splitting", "coop", "mcp", "first_hop_bound"}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", ["fig3_p0db", "fig3_p10db", "fig4_p3db", "fig5_p10db"])
def test_sweep_reproduces_checked_in_csv(name, tmp_path):
    target = tmp_path / f"{name}.csv"
    assert main(["sweep", "--config", str(ROOT / "configs" / f"{name}.cfg"),
                 "--output", str(target)]) == 0
    golden = read_csv(ROOT / "out" / f"{name}.csv")
    fresh = read_csv(target)
    assert fresh[0] == golden[0]
    assert len(fresh) == len(golden)
    header = golden[0]
    for want, got in zip(golden[1:], fresh[1:]):
        assert got[0] == want[0]
        for column, w, g in zip(header[1:], want[1:], got[1:]):
            if column.endswith("_bottleneck"):
                assert g == w, (column, want[0])
            elif column in RATE_COLUMNS:
                assert float(g) == pytest.approx(float(w), abs=1e-9), (column, want[0])
