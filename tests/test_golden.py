"""The figure sweeps regenerate the checked-in CSVs under out/.

Headers and bottleneck labels must match exactly, and every rate column and
every closed-form per-hop split fraction (the f-hat curves of Fig. 3) within
1e-9. The coop/mcp split fractions are not compared: where the optimal face
is degenerate they are not unique. Where a split reaches the smaller of the
two hops' closed-form optima, the rate is that optimum within 1e-12 (all 102
Fig. 4/5 coop points, at hop 2's, and 88 mcp points, at first_hop_bound).
Elsewhere it comes from a four-pass shrinking grid, which sits up to 9.4e-4
(mcp) below the model's optimum, so an exact joint search moves these rates
too, and out/ must then be regenerated. Fresh CSVs go to a temporary
directory, never into out/.
"""

import csv
import math
import pathlib

import pytest

from meshrates.cli import main, parse_power

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIGURES = ["fig3_p0db", "fig3_p10db", "fig4_p3db", "fig5_p10db"]
RATE_COLUMNS = {"single_rate", "rate_splitting", "coop", "mcp", "first_hop_bound"}
SPLIT_COLUMNS = {"rate_splitting_f1", "rate_splitting_f2", "first_hop_bound_f1"}


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", FIGURES)
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
            elif column in RATE_COLUMNS | SPLIT_COLUMNS:
                assert float(g) == pytest.approx(float(w), abs=1e-9), (column, want[0])


def hop_gains_and_powers(name):
    """Each hop's intra-cell gain and power in a figure config: hop 2's
    inter-cell gain is linked to alpha2, and p2 to p1 or p1/2."""
    entries = [line.split("=", 1) for line in
               (ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8").splitlines()
               if line and not line.startswith("#")]
    values = {key: value for key, value in entries if key != "link"}
    links = dict(value.split("=", 1) for key, value in entries if key == "link")
    assert links["eta2"] == "alpha2" and links["p2"] in ("p1", "p1/2")
    p1 = parse_power(values["p1"])
    p2 = p1 / 2.0 if links["p2"] == "p1/2" else p1
    return (float(values["beta2"]), p1), (float(values["gamma2"]), p2)


@pytest.mark.parametrize("name", FIGURES)
def test_rate_splitting_onset_on_figure_grids(name):
    # A hop's optimal private fraction is 1 exactly where 2*P*a^2 + a - b <= 0,
    # i.e. below a*(b, P) = (sqrt(1 + 8*b*P) - 1)/(4*P), and below 1 above it.
    # Grid points within 1e-9 of a* are skipped: there the criterion is 0
    # or within rounding of 0.
    hop1, hop2 = hop_gains_and_powers(name)
    hops = {"rate_splitting_f1": hop1, "rate_splitting_f2": hop2, "first_hop_bound_f1": hop1}
    rows = read_csv(ROOT / "out" / f"{name}.csv")
    header = rows[0]
    checked = 0
    for column in hops.keys() & set(header):
        b, power = hops[column]
        onset = (math.sqrt(1.0 + 8.0 * b * power) - 1.0) / (4.0 * power)
        k = header.index(column)
        for row in rows[1:]:
            alpha2, f_hat = float(row[0]), float(row[k])
            if abs(alpha2 - onset) <= 1e-9:
                continue
            if alpha2 < onset:
                assert f_hat == 1.0, (column, alpha2, onset)
            else:
                assert f_hat < 1.0, (column, alpha2, onset)
            checked += 1
    assert checked >= 2 * 50
