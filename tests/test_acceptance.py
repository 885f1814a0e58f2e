"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. The
sweep-based criteria share module-scoped fixtures so the two figure grids
are evaluated once.
"""

import math
import time

import numpy as np
import pytest

from meshrates import oracle, schemes
from meshrates.cli import main
from meshrates.model import HopSplit, NetworkParams, RatePair, db_to_linear
from meshrates.oracle import certified_midpoint, full_mac_region_hop1, grid_max_sum
from meshrates.polytope import contains, max_sum_rate, vertices
from meshrates.regions import _corner, _mac_gains, hop1_region, hop2_mcp_region

GRID = [round(0.02 * k, 2) for k in range(51)]  # alpha2 = eta2 in {0, 0.02, ..., 1}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status} {name} {detail}".rstrip())


def corner(params, split, hop):
    cross2, intra2, total = params.hop(hop)
    r_private, rc_two, rc_three = _corner(_mac_gains(cross2, intra2), *split.powers(total))
    return RatePair(float(r_private), float(min(rc_two, rc_three)))


def draw_params(rng, p_hi=20.0):
    beta2 = float(rng.uniform(0.2, 2.5))
    return NetworkParams(
        alpha2=float(rng.uniform(0.0, beta2)),
        beta2=beta2,
        gamma2=float(rng.uniform(0.2, 2.5)),
        eta2=0.0,
        p1=float(np.exp(rng.uniform(math.log(0.05), math.log(p_hi)))),
        p2=1.0,
    )


@pytest.fixture(scope="module")
def fig_sweeps():
    """Fig. 4/5 grids: all five schemes at P1 in {3 dB, 10 dB}, P2 = P1/2."""
    sweeps = {}
    for db in (3.0, 10.0):
        p1 = db_to_linear(db)
        rows = []
        for a2 in GRID:
            params = NetworkParams(alpha2=a2, beta2=1.0, gamma2=1.0, eta2=a2,
                                   p1=p1, p2=p1 / 2.0)
            rows.append({
                "alpha2": a2,
                "single": schemes.single_rate(params).rate,
                "rs": schemes.rate_splitting(params).rate,
                "coop": schemes.coop(params).rate,
                "mcp": schemes.mcp(params).rate,
                "bound": schemes.first_hop_upper_bound(params).rate,
            })
        sweeps[db] = rows
    return sweeps


@pytest.fixture(scope="module")
def fig3_fractions():
    """Fig. 3 grids: optimal private fraction at P1 = P2 in {0 dB, 10 dB}."""
    curves = {}
    for db in (0.0, 10.0):
        p = db_to_linear(db)
        curve = []
        for a2 in GRID:
            params = NetworkParams(alpha2=a2, beta2=1.0, gamma2=1.0, eta2=a2,
                                   p1=p, p2=p)
            result = schemes.rate_splitting(params)
            f1, f2 = result.split_hop1.f_private, result.split_hop2.f_private
            assert f1 == f2
            curve.append((a2, f1))
        curves[db] = curve
    return curves


def stacked_lines(regions):
    """(coefs, bounds) of regions that share their lines' coefficients, as
    ``oracle._crossing_gap`` takes them: one row of bounds per region."""
    [coefs] = {tuple((h.coef_private, h.coef_common) for h in r.halfspaces) for r in regions}
    return coefs, np.array([[h.bound for h in r.halfspaces] for r in regions])


def test_criterion_01_region_reduction():
    # at the vertices of polytope.vertices, and at every feasible line
    # crossing (oracle._crossing_gap), which does not rest on that fast path
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    reduced_regions, full_regions = [], []
    for _ in range(1000):
        params = draw_params(rng)
        split = HopSplit(float(rng.uniform(0.0, 1.0)))
        reduced = hop1_region(params, split)
        full = full_mac_region_hop1(params, split)
        for region, other in ((reduced, full), (full, reduced)):
            for v in vertices(region):
                slack = min(c - (a * v.r_private + b * v.r_common)
                            for a, b, c, _ in other.halfspaces)
                worst = max(worst, max(0.0, -slack))
        reduced_regions.append(reduced)
        full_regions.append(full)
    elapsed = time.perf_counter() - start
    crossing = oracle._crossing_gap(stacked_lines(reduced_regions), stacked_lines(full_regions))
    ok = worst <= 1e-9 and crossing <= 1e-9 and elapsed < 5.0
    report(1, "region reduction (1000 draws, two-sided)", ok,
           f"max violation {worst:.2e}, at crossings {crossing:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert crossing <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_vertex_a_optimality():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        params = draw_params(rng)
        split = HopSplit(float(rng.uniform(0.0, 1.0)))
        corner_sum = corner(params, split, hop=1).total
        worst = max(worst, abs(corner_sum - max_sum_rate(hop1_region(params, split)).value))

    hand = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=1.0)
    split = HopSplit(0.5)
    point = corner(hand, split, hop=1)
    total = point.total
    sum2 = next(h.bound for h in hop1_region(hand, split).halfspaces if h.label == "sum-2")
    tight_gap = abs(point.r_private + 2.0 * point.r_common - sum2)

    ok = worst <= 1e-9 and abs(total - 0.8187) <= 5e-5 and tight_gap <= 1e-12
    report(2, "vertex-A sum optimality (1000 draws + hand case)", ok,
           f"max LP gap {worst:.2e}, hand sum {total:.4f}, sum-2 gap {tight_gap:.2e}")
    assert worst <= 1e-9
    assert abs(total - 0.8187) <= 5e-5
    assert tight_gap <= 1e-12


def test_criterion_03_lp_vs_grid():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        params = draw_params(rng, p_hi=2.0)
        region = hop1_region(params, HopSplit(float(rng.uniform(0.0, 1.0))))
        worst = max(worst, abs(max_sum_rate(region).value - grid_max_sum(region, 1e-3)))
    ok = worst <= 5e-3
    report(3, "LP vs dense lattice (200 draws, step 1e-3)", ok, f"max gap {worst:.2e}")
    assert worst <= 5e-3


def test_criterion_04_quadrature_vs_midpoint_oracle():
    rng = np.random.default_rng(4)
    worst = ref_err = 0.0
    labels = {"private": "private-single", "common": "common-joint", "sum": "sum-joint"}
    # 50 draws in the paper's regime, then 12 at high inter-cell gain
    # (eta2 up to 5) and powers from 1e-3 to 1e3
    for i in range(62):
        gamma2 = float(rng.uniform(0.2, 2.5))
        eta2 = float(rng.uniform(0.0, gamma2 if i < 50 else 5.0))
        lo, hi = (0.05, 20.0) if i < 50 else (1e-3, 1e3)
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=gamma2, eta2=eta2, p1=1.0,
                               p2=float(np.exp(rng.uniform(math.log(lo), math.log(hi)))))
        split = HopSplit(float(rng.uniform(0.0, 1.0)))
        bounds = {h.label: h.bound
                  for h in hop2_mcp_region(params, split).halfspaces}
        p_private, p_common = split.powers(params.p2)
        reference_fns = oracle.mcp_reference_integrands(params.eta2, params.gamma2,
                                                        p_private, p_common)
        for name, label in labels.items():
            reference, err, _ = certified_midpoint(reference_fns[name])
            ref_err = max(ref_err, err)
            worst = max(worst, abs(bounds[label] - reference))
    ok = worst + ref_err <= 1e-12
    report(4, "closed-form MCP bounds vs certified midpoint (62 draws)", ok,
           f"max gap {worst:.2e}, reference error {ref_err:.2e}")
    assert worst + ref_err <= 1e-12


def test_criterion_05_scheme_orderings(fig_sweeps):
    rs_vs_single = mcp_vs_coop = vs_bound = -math.inf
    for rows in fig_sweeps.values():
        for row in rows:
            rs_vs_single = max(rs_vs_single, row["single"] - row["rs"])
            mcp_vs_coop = max(mcp_vs_coop, row["coop"] - row["mcp"])
            vs_bound = max(vs_bound, max(row["rs"], row["coop"], row["mcp"],
                                         row["single"]) - row["bound"])
    ok = rs_vs_single <= 1e-9 and mcp_vs_coop <= 1e-6 and vs_bound <= 1e-9
    report(5, "scheme orderings on the figure grids", ok,
           f"single-rs {rs_vs_single:.2e}, coop-mcp {mcp_vs_coop:.2e}, "
           f"over-bound {vs_bound:.2e}")
    assert rs_vs_single <= 1e-9
    assert mcp_vs_coop <= 1e-6
    assert vs_bound <= 1e-9


def test_criterion_06_optimal_fraction_shape(fig3_fractions):
    thresholds = {}
    rise = {}
    all_one_before = {}
    for db, curve in fig3_fractions.items():
        idx = next(i for i, (_, f) in enumerate(curve) if f < 1.0 - 1e-9)
        thresholds[db] = curve[idx][0]
        all_one_before[db] = all(f == 1.0 for _, f in curve[:idx])
        rise[db] = max(curve[i + 1][1] - curve[i][1] for i in range(idx, len(curve) - 1))

    ok = (all(t > 0.0 for t in thresholds.values())
          and all(all_one_before.values())
          and all(r <= 0.02 for r in rise.values())
          and thresholds[10.0] < thresholds[0.0])
    report(6, "optimal-fraction curve shape", ok,
           f"thresholds {thresholds}, max f-hat rises {{0dB: {rise[0.0]:.4f}, "
           f"10dB: {rise[10.0]:.4f}}} (allowed 0.02)")
    for db in (0.0, 10.0):
        assert thresholds[db] > 0.0
        assert all_one_before[db]
    assert thresholds[10.0] < thresholds[0.0]
    for db in (0.0, 10.0):
        # Known honest failure at 0 dB: the exact optimal fraction rises by
        # 0.0428 in one grid step, from 0.1371 at alpha2=0.64 to 0.1799 at
        # alpha2=0.66 (the corner optimum rides the moving kink between the
        # 2- and 3-user common bounds), which is a genuine non-monotonicity
        # of the model, not grid jitter. See the decisions ledger. The
        # branch-crossing candidate wins on both sides of the step
        # (beta2 = P = 1), so the rise is the crossing point's own slope in
        # alpha2, not a switch between candidates; tests/test_schemes.py
        # pins this in test_crossing_wins_both_sides_of_the_criterion_06_step.
        assert rise[db] <= 0.02, f"f-hat rises by {rise[db]:.4f} at P={db}dB"


def test_criterion_07_figure_gap_claims(fig_sweeps):
    gap3 = max(r["coop"] - r["rs"] for r in fig_sweeps[3.0])
    gap10 = max(r["coop"] - r["rs"] for r in fig_sweeps[10.0])
    mcp_near_bound = any(r["mcp"] >= 0.99 * r["bound"]
                         for r in fig_sweeps[3.0] if r["alpha2"] >= 0.8)
    ok = gap3 > 0.01 and mcp_near_bound and gap10 < gap3
    report(7, "figure-level gap claims", ok,
           f"coop-rs max gap 3dB {gap3:.4f}, 10dB {gap10:.4f}, "
           f"mcp reaches bound at high gain: {mcp_near_bound}")
    assert gap3 > 0.01
    assert mcp_near_bound
    # Known honest failure: the absolute coop-rs gap peaks higher at 10 dB
    # (0.090 vs 0.085); only the gap relative to the achieved rate shrinks.
    # Verified against dense-grid oracles; see the decisions ledger.
    assert gap10 < gap3, f"max coop-rs gap: 3dB {gap3:.4f}, 10dB {gap10:.4f}"


def test_criterion_08_very_strong_interference():
    exact = schemes.vsi_threshold(1.0, 1.0, method="exact")
    paper = schemes.vsi_threshold(1.0, 1.0, method="paper")
    ok_at_exact, _ = schemes.vsi_check(3.0, 1.0, 1.0)
    ok_below, _ = schemes.vsi_check(2.97, 1.0, 1.0)
    ok_at_paper, _ = schemes.vsi_check(paper, 1.0, 1.0)

    a2_dominates = True
    for beta2 in np.linspace(0.1, 3.0, 20):
        for p1 in np.geomspace(0.01, 20.0, 20):
            two_user = beta2 * max(p1 / 2.0 + 1.0, beta2 * p1 + 1.0)
            three_user = beta2 * (2.0 + 3.0 * p1 + beta2 ** 2 * p1)
            a2_dominates &= three_user >= two_user - 1e-12

    ok = (abs(exact - 3.0) <= 1e-9 and paper == 6.0 and ok_at_exact
          and not ok_below and ok_at_paper and a2_dominates)
    report(8, "very-strong-interference thresholds", ok,
           f"exact {exact}, paper {paper}, check@3.0 {ok_at_exact}, "
           f"check@2.97 {ok_below}")
    assert abs(exact - 3.0) <= 1e-9
    assert paper == 6.0
    assert ok_at_exact and not ok_below and ok_at_paper
    assert a2_dominates


def test_criterion_09_half_duplex():
    rng = np.random.default_rng(9)
    evaluators = {
        "single": schemes.single_rate,
        "rs": schemes.rate_splitting,
        "coop": schemes.coop,
        "mcp": schemes.mcp,
        "bound": schemes.first_hop_upper_bound,
    }
    worst = 0.0
    for _ in range(20):
        beta2 = float(rng.uniform(0.2, 2.0))
        gamma2 = float(rng.uniform(0.2, 2.0))
        kwargs = dict(
            alpha2=float(rng.uniform(0.0, beta2)), beta2=beta2,
            gamma2=gamma2, eta2=float(rng.uniform(0.0, gamma2)),
            p1=float(rng.uniform(0.2, 5.0)), p2=float(rng.uniform(0.2, 5.0)),
        )
        full = NetworkParams(**kwargs)
        doubled = NetworkParams(**{**kwargs, "p1": 2.0 * kwargs["p1"],
                                   "p2": 2.0 * kwargs["p2"]})
        half = NetworkParams(**kwargs, duplex="half")
        boosted = NetworkParams(**kwargs, duplex="half", power_boost=True)
        for evaluate in evaluators.values():
            worst = max(worst, abs(evaluate(half).rate - 0.5 * evaluate(full).rate))
            worst = max(worst, abs(evaluate(boosted).rate - 0.5 * evaluate(doubled).rate))
    ok = worst <= 1e-12
    report(9, "half-duplex halving and power boost (20 draws)", ok,
           f"max deviation {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_10_verify_determinism(capsys):
    start = time.perf_counter()
    code_a = main(["verify", "--seed", "7"])
    out_a = capsys.readouterr().out
    first_duration = time.perf_counter() - start
    code_b = main(["verify", "--seed", "7"])
    out_b = capsys.readouterr().out
    ok = code_a == 0 and code_b == 0 and out_a == out_b and first_duration < 10.0
    report(10, "verify suite deterministic and timely", ok,
           f"exit codes ({code_a}, {code_b}), identical: {out_a == out_b}, "
           f"{first_duration:.1f}s")
    assert code_a == 0 and code_b == 0
    assert out_a == out_b
    assert first_duration < 10.0
