import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrates import regions, schemes
from meshrates.cli import main
from meshrates.model import HopSplit, NetworkParams, db_to_linear, split_powers
from meshrates.oracle import dense_split_scan
from meshrates.polytope import max_sum_rate
from meshrates.regions import (
    coop_bounds,
    hop1_region,
    hop2_coop_region,
    hop2_mcp_region,
    mac_bounds,
    mcp_bounds,
)
from meshrates.schemes import (
    _hop_optimum,
    _max_sum_grid,
    _search_joint_splits,
    coop,
    first_hop_upper_bound,
    mcp,
    optimal_private_fraction,
    rate_splitting,
    single_rate,
    vsi_check,
    vsi_threshold,
)

CLEAN = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=1.0, p2=1.0)


def symmetric(a2, p, p2=None):
    return NetworkParams(alpha2=a2, beta2=1.0, gamma2=1.0, eta2=a2,
                         p1=p, p2=p if p2 is None else p2)


@st.composite
def networks(draw):
    beta2 = draw(st.floats(min_value=0.2, max_value=2.5))
    gamma2 = draw(st.floats(min_value=0.2, max_value=2.5))
    return NetworkParams(
        alpha2=draw(st.floats(min_value=0.0, max_value=beta2)),
        beta2=beta2,
        gamma2=gamma2,
        eta2=draw(st.floats(min_value=0.0, max_value=gamma2)),
        p1=draw(st.floats(min_value=0.05, max_value=20.0)),
        p2=draw(st.floats(min_value=0.05, max_value=20.0)),
    )


class TestNoOptimizerKnobs:
    """The per-hop split is exact and the joint grid fixed, so the optimizer
    options are gone from the command line and from config files."""

    ARGS = ["optsplit", "--alpha2", "0.5", "--beta2", "1", "--gamma2", "1",
            "--eta2", "0.5", "--p1", "2", "--p2", "2"]

    def test_flag_is_usage_error(self):
        assert main(self.ARGS + ["--coarse-points", "51"]) == 1

    def test_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "optsplit.cfg"
        config.write_text("coarse_points=51\n")
        assert main(self.ARGS + ["--config", str(config)]) == 1


class TestSingleRate:
    def test_interference_free(self):
        result = single_rate(CLEAN)
        assert result.rate == 1.0
        assert result.bottleneck_hop == "balanced"

    def test_asymmetric_hand_value(self):
        params = NetworkParams(alpha2=0.5, beta2=1.0, gamma2=1.0, eta2=0.5, p1=2.0, p2=1.0)
        result = single_rate(params)
        assert result.rate == pytest.approx(0.5849625007211562, abs=1e-12)
        assert result.bottleneck_hop == 2

    def test_interference_limited_second_hop(self):
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.5, p1=10.0, p2=1e6)
        assert single_rate(params).rate == pytest.approx(1.0, abs=1e-5)


class TestRateSplitting:
    def test_reduces_to_single_rate_without_cross_gains(self):
        result = rate_splitting(CLEAN)
        assert result.rate == single_rate(CLEAN).rate
        assert result.split_hop1.f_private == 1.0
        assert result.split_hop2.f_private == 1.0

    def test_below_threshold_gain_stays_single_rate(self):
        params = symmetric(0.1, 1.0)
        result = rate_splitting(params)
        assert result.split_hop1.f_private == 1.0
        assert result.rate == pytest.approx(single_rate(params).rate, abs=1e-12)

    def test_dense_grid_pin_strong_interference(self):
        # beta2=gamma2=1, alpha2=eta2=0.8, P1=P2=2; pinned by the 1e-3 f-scan
        result = rate_splitting(symmetric(0.8, 2.0))
        assert result.rate == pytest.approx(0.8855905745368178, abs=5e-3)
        assert result.bottleneck_hop == "balanced"
        assert result.split_hop1.f_private == result.split_hop2.f_private

    @given(networks())
    @settings(max_examples=40, deadline=None)
    def test_never_below_single_rate(self, params):
        assert rate_splitting(params).rate >= single_rate(params).rate - 1e-9

    @given(networks())
    @settings(max_examples=25, deadline=None)
    def test_single_user_cap(self, params):
        assert rate_splitting(params).rate <= math.log2(1.0 + params.beta2 * params.p1) + 1e-9


class TestHopSplitOptimum:
    def test_beats_dense_scan_in_and_out_of_regime(self):
        rng = np.random.default_rng(7)
        for k in range(24):
            beta2 = float(rng.uniform(0.2, 2.5))
            alpha2 = float(rng.uniform(0.0, beta2 if k % 2 else 2.0 * beta2))
            p1 = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
            params = NetworkParams(alpha2=alpha2, beta2=beta2, gamma2=beta2, eta2=alpha2,
                                   p1=p1, p2=p1 / 2.0)
            for hop in (1, 2):
                rate = _hop_optimum(*params.hop(hop))[1].total
                _, reference = dense_split_scan(params, hop=hop, step=1e-3)
                assert rate >= reference - 1e-12, (params, hop)

    # (alpha2, beta2, P) -> (f_hat, rate) of the grid/golden/bisection optimizer
    # this closed form replaced. alpha2 = 1e300 with P = 1e300 is left out:
    # alpha2*P overflows a float there, and that optimizer failed too.
    EXTREMES = {
        (5e-324, 0.0, 1e-300): (1.0, 0.0),
        (5e-324, 0.0, 1.0): (1.0, 0.0),
        (5e-324, 0.0, 1e300): (1.0, 0.0),
        (5e-324, 5e-324, 1e-300): (1.0, 0.0),
        (5e-324, 5e-324, 1.0): (1.0, 0.0),
        (5e-324, 5e-324, 1e300): (1.0, 0.0),
        (5e-324, 1.0, 1e-300): (1.0, 0.0),
        (5e-324, 1.0, 1.0): (1.0, 1.0),
        (5e-324, 1.0, 1e300): (1.0, 996.5784284662087),
        (1e300, 0.0, 1e-300): (0.0, 0.5283208335737187),
        (1e300, 0.0, 1.0): (0.0, 332.5261428220696),
        (1e300, 5e-324, 1e-300): (0.0, 0.5283208335737187),
        (1e300, 5e-324, 1.0): (0.0, 332.5261428220696),
        (1e300, 1.0, 1e-300): (0.0, 0.5283208335737187),
        (1e300, 1.0, 1.0): (0.0, 332.5261428220696),
    }

    @pytest.mark.parametrize("terms", sorted(EXTREMES))
    def test_extreme_gains_and_powers(self, terms):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split, corner, _ = _hop_optimum(*terms)
        f_hat, rate = split.f_private, corner.total
        want_f, want_rate = self.EXTREMES[terms]
        assert rate == pytest.approx(want_rate, rel=1e-15, abs=0.0)
        assert f_hat == want_f and math.copysign(1.0, f_hat) == 1.0

    def test_rate_is_operating_point_total(self):
        # The rate and the reported corner come from one evaluation, so they
        # agree to the bit.
        rng = np.random.default_rng(3)
        hop1_bottleneck = 0
        for k in range(2000):
            beta2, gamma2 = (float(g) for g in rng.uniform(0.1, 3.0, size=2))
            lo, hi = (0.0, 1.0) if k % 4 else (1.0, 3.0)  # every fourth out of regime
            p1, p2 = (float(p) for p in np.exp(rng.uniform(math.log(0.01), math.log(100.0),
                                                           size=2)))
            params = NetworkParams(
                alpha2=float(rng.uniform(lo * beta2, hi * beta2)), beta2=beta2, gamma2=gamma2,
                eta2=float(rng.uniform(lo * gamma2, hi * gamma2)), p1=p1, p2=p2,
                duplex="half" if k % 3 == 0 else "full", power_boost=k % 6 == 0)
            bound = first_hop_upper_bound(params)
            assert bound.rate == bound.operating_point.total, params
            result = rate_splitting(params)
            if result.bottleneck_hop == 1:
                hop1_bottleneck += 1
                assert result.rate == result.operating_point.total, params
        assert hop1_bottleneck >= 500


class TestFirstHopUpperBound:
    def test_no_interference(self):
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.3, p1=3.0, p2=1.0)
        assert first_hop_upper_bound(params).rate == pytest.approx(2.0, abs=1e-12)

    def test_dense_grid_pin(self):
        params = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=2.0)
        assert first_hop_upper_bound(params).rate == \
               pytest.approx(0.8241901098274349, abs=5e-3)

    @given(networks())
    @settings(max_examples=40, deadline=None)
    def test_upper_bounds_rate_splitting(self, params):
        assert first_hop_upper_bound(params).rate >= rate_splitting(params).rate - 1e-12


class TestCoop:
    def test_isolated_hops_all_private(self):
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=3.0, p2=1.0)
        result = coop(params)
        assert result.rate == pytest.approx(1.0, abs=1e-9)
        assert result.operating_point.r_common == pytest.approx(0.0, abs=1e-12)

    def test_second_hop_stops_binding_at_large_relay_power(self):
        params = symmetric(0.9, 2.0, p2=1e6)
        assert coop(params).rate == pytest.approx(first_hop_upper_bound(params).rate,
                                                  abs=1e-6)

    def test_beats_plain_rate_splitting_at_low_power(self):
        p1 = db_to_linear(3.0)
        params = symmetric(0.9, p1, p2=p1 / 2.0)
        assert coop(params).rate >= rate_splitting(params).rate + 0.01

    def test_operating_point_feasible_in_both_regions(self):
        from meshrates.model import HopSplit
        from meshrates.polytope import contains
        from meshrates.regions import hop1_region, hop2_coop_region
        params = symmetric(0.7, 2.0, p2=1.0)
        result = coop(params)
        assert contains(hop1_region(params, result.split_hop1), result.operating_point,
                        tol=1e-9)
        assert contains(hop2_coop_region(params, result.split_hop2), result.operating_point,
                        tol=1e-9)


def seeded_networks(seed, n):
    """n seeded networks; every other one lies outside the paper regime
    (alpha2 > beta2 and eta2 > gamma2)."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(n):
        beta2, gamma2 = rng.uniform(0.2, 2.5, 2)
        low, high = (1.0, 2.0) if k % 2 else (0.0, 1.0)
        p1, p2 = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 2))
        draws.append(NetworkParams(alpha2=float(beta2 * rng.uniform(low, high)),
                                   beta2=float(beta2), gamma2=float(gamma2),
                                   eta2=float(gamma2 * rng.uniform(low, high)),
                                   p1=float(p1), p2=float(p2)))
    return draws


def window(centre, half_width):
    """An 11-point split grid as the later search passes build it."""
    return np.clip(np.linspace(centre - half_width, centre + half_width, 11), 0.0, 1.0)


def grid_bounds(work, bounds_fn, f1, f2):
    """Hop 1's MAC bounds on the f1 grid and hop 2's ``bounds_fn`` bounds on
    the f2 grid: the same 1-D arrays the search scores."""
    return (mac_bounds(work.alpha2, work.beta2, *split_powers(f1, work.p1)),
            bounds_fn(work.eta2, work.gamma2, *split_powers(f2, work.p2)))


def uncollapsed_greedy(hop1, hop2):
    """The greedy max-sum LP over every line of both hops on the (f1, f2)
    grid of their bounds, as one broadcast: x = min c/a, then
    y = max(min (c - a*x)/b, 0)."""
    lines = ([(a, b, c[:, None]) for (a, b), c in hop1.items()]
             + [(a, b, c[None, :]) for (a, b), c in hop2.items()])
    x = reduce(np.minimum, [c / a for a, b, c in lines if a > 0])
    y = reduce(np.minimum, [(c - a * x) / b for a, b, c in lines if b > 0])
    return x + np.maximum(y, 0.0)


def bounds_at(bounds_fn, cross2, intra2, total, f):
    """Scalar bounds of one hop at split f, read from a one-split array
    evaluation (the path the search scores)."""
    pw = HopSplit(f).powers(total)
    bounds = bounds_fn(cross2, intra2, np.array([pw.p_private]), np.array([pw.p_common]))
    return {key: c[0] for key, c in bounds.items()}


class TestJointValues:
    @pytest.mark.parametrize("bounds_fn,builder", [
        (coop_bounds, hop2_coop_region), (mcp_bounds, hop2_mcp_region),
    ])
    def test_grid_matches_scalar_lp(self, bounds_fn, builder):
        # the split search scores a cell with the same floats as max_sum_rate
        # on the regions at its splits
        fs = np.array([0.0, 0.13, 0.5, 0.87, 1.0])
        for work in (symmetric(0.4, 2.0, 1.0),
                     NetworkParams(alpha2=1.5, beta2=1.0, gamma2=0.7, eta2=1.2,
                                   p1=5.0, p2=0.3),
                     *seeded_networks(3, 6)):
            values = _max_sum_grid(*grid_bounds(work, bounds_fn, fs, fs))
            for i, f1 in enumerate(fs):
                for j, f2 in enumerate(fs):
                    lp = max_sum_rate(hop1_region(work, HopSplit(float(f1))),
                                      builder(work, HopSplit(float(f2))))
                    assert values[i, j] == lp.value

    @pytest.mark.parametrize("bounds_fn", [coop_bounds, mcp_bounds])
    def test_combine_matches_uncollapsed_greedy(self, bounds_fn):
        # per-hop caps, then one min per quantity: every cell bit for bit
        full = np.linspace(0.0, 1.0, 101)
        grids = [(full, full), (window(0.004, 1e-2), window(0.9996, 1e-3)),
                 (window(1.0, 1e-2), window(0.0, 1e-4)), (window(0.37, 1e-2), full)]
        for work in (symmetric(0.06, db_to_linear(3.0), db_to_linear(3.0) / 2.0),
                     *seeded_networks(11, 8)):
            for f1, f2 in grids:
                bounds = grid_bounds(work, bounds_fn, f1, f2)
                assert np.array_equal(_max_sum_grid(*bounds), uncollapsed_greedy(*bounds))

    @pytest.mark.parametrize("bounds_fn", [coop_bounds, mcp_bounds])
    def test_search_matches_reference_passes(self, bounds_fn, monkeypatch):
        draws = [symmetric(a2, db_to_linear(p), db_to_linear(p) / 2.0)
                 for a2, p in ((0.06, 3.0), (0.56, 10.0))] + seeded_networks(12, 6)
        fast = [_search_joint_splits(work, bounds_fn) for work in draws]
        for work, (f1, f2, bounds1, bounds2) in zip(draws, fast):
            # the returned bounds are each hop's bounds at the returned splits
            assert bounds1 == bounds_at(mac_bounds, work.alpha2, work.beta2, work.p1, f1)
            assert bounds2 == bounds_at(bounds_fn, work.eta2, work.gamma2, work.p2, f2)
        monkeypatch.setattr(schemes, "_max_sum_grid", uncollapsed_greedy)
        assert [_search_joint_splits(work, bounds_fn) for work in draws] == fast

    @pytest.mark.parametrize("scheme,bounds_fn", [(coop, coop_bounds), (mcp, mcp_bounds)])
    def test_rate_is_the_cell_its_search_picked(self, scheme, bounds_fn):
        # The final LP reads the bounds the search scored, so the rate is the
        # winning cell's grid value bit for bit, the half-duplex 1/2 included.
        rng = np.random.default_rng(14)
        for k in range(1500):
            beta2, gamma2 = (float(g) for g in rng.uniform(0.2, 2.5, size=2))
            lo, hi = (0.0, 1.0) if k % 4 else (1.0, 2.0)  # every fourth out of regime
            p1, p2 = (float(p) for p in np.exp(rng.uniform(math.log(0.05), math.log(20.0),
                                                           size=2)))
            params = NetworkParams(
                alpha2=float(rng.uniform(lo * beta2, hi * beta2)), beta2=beta2, gamma2=gamma2,
                eta2=float(rng.uniform(lo * gamma2, hi * gamma2)), p1=p1, p2=p2,
                duplex="half" if k % 3 == 0 else "full", power_boost=k % 6 == 0)
            result = scheme(params)
            work = params.effective()
            f1, f2 = result.split_hop1.f_private, result.split_hop2.f_private
            # The region clamps a bound that rounds below 0, which the grid
            # does not; no winning cell here has one, so the equality is exact.
            hop2 = bounds_at(bounds_fn, work.eta2, work.gamma2, work.p2, f2)
            assert min(hop2.values()) >= 0.0, params
            bounds = grid_bounds(work, bounds_fn, np.array([f1]), np.array([f2]))
            cell = _max_sum_grid(*bounds)[0, 0]
            assert cell * params.rate_scale() == result.rate, params

    @pytest.mark.parametrize("scheme,name", [(coop, "coop_bounds"), (mcp, "mcp_bounds")])
    def test_one_bounds_evaluation_per_pass(self, scheme, name, monkeypatch):
        calls = []

        def counting(fn, label):
            def wrapper(cross2, intra2, p_private, p_common):
                calls.append((label, type(p_private), type(p_common)))
                return fn(cross2, intra2, p_private, p_common)
            return wrapper

        hop1 = counting(regions.mac_bounds, "hop1")
        hop2 = counting(getattr(regions, name), "hop2")
        # in both modules, so a scalar re-evaluation through a region builder counts too
        for module in (schemes, regions):
            monkeypatch.setattr(module, "mac_bounds", hop1)
            monkeypatch.setattr(module, name, hop2)
        scheme(symmetric(0.4, 2.0, p2=1.0))
        passes = len(schemes._JOINT_PASSES)
        assert [label for label, _, _ in calls] == ["hop1", "hop2"] * passes
        assert {(pp, pc) for _, pp, pc in calls} == {(np.ndarray, np.ndarray)}


class TestMcp:
    def test_isolated_hops(self):
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=3.0, p2=1.0)
        assert mcp(params).rate == pytest.approx(1.0, abs=1e-9)

    def test_dominates_per_cell_decoding(self):
        for a2 in (0.2, 0.5, 0.8):
            params = symmetric(a2, 2.0, p2=1.0)
            assert mcp(params).rate >= coop(params).rate - 1e-6

    def test_approaches_first_hop_bound_at_strong_coupling(self):
        p1 = db_to_linear(3.0)
        params = symmetric(0.95, p1, p2=p1 / 2.0)
        assert mcp(params).rate >= 0.99 * first_hop_upper_bound(params).rate

    def test_subnormal_hop2_power(self, capsys):
        # eta2 * p2 is subnormal: the hop-2 bounds are about 1e-320 bits,
        # not NaN, and the point command prints them
        args = ["--alpha2", "0", "--beta2", "1", "--gamma2", "1", "--eta2", "1e-300",
                "--p1", "1", "--p2", "1e-320", "--schemes", "mcp"]
        assert main(["point", *args]) == 0
        assert "mcp" in capsys.readouterr().out
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=1e-300, p1=1.0,
                               p2=1e-320)
        assert 0.0 <= mcp(params).rate < 1e-300


class TestOptimalPrivateFraction:
    def test_no_cross_gain_all_private(self):
        assert optimal_private_fraction(CLEAN) == (1.0, 1.0)

    def test_two_user_branch_stationary_point(self):
        # a = 0.5, b = 1, c = 2, P = 2, D0 = 3: the 2-user branch peaks
        # at x = ((b - 2a) D0 + b) / (2 (a c D0 + a b - b c)) = 1/3, f = 1/6.
        f1, f2 = optimal_private_fraction(symmetric(0.5, 2.0))
        assert f1 == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert f2 == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_symmetric_case_matches_both_hops(self):
        for a2 in (0.2, 0.6, 0.9):
            f1, f2 = optimal_private_fraction(symmetric(a2, 2.0))
            assert f1 == f2

    def test_threshold_shrinks_with_power(self):
        def threshold(p):
            for a2 in np.arange(0.0, 1.0001, 0.02):
                f1, _ = optimal_private_fraction(symmetric(float(a2), p))
                if f1 < 1.0 - 1e-9:
                    return float(a2)
            return math.inf

        assert 0.0 < threshold(10.0) < threshold(1.0) <= 1.0


class TestVsiThreshold:
    def test_printed_form(self):
        assert vsi_threshold(1.0, 1.0, method="paper") == 6.0

    def test_exact_form(self):
        assert vsi_threshold(1.0, 1.0, method="exact") == pytest.approx(3.0, abs=1e-12)

    def test_small_power_limit(self):
        assert vsi_threshold(1.0, 1e-10, method="exact") == pytest.approx(1.0, abs=1e-7)

    def test_exact_never_above_paper_at_small_gain_and_power(self):
        for beta2 in np.linspace(0.1, 1.0, 20):
            for p1 in np.geomspace(0.01, 2.0, 20):
                assert vsi_threshold(float(beta2), float(p1), "exact") <= \
                       vsi_threshold(float(beta2), float(p1), "paper") + 1e-12

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            vsi_threshold(0.0, 1.0)
        with pytest.raises(ValueError):
            vsi_threshold(1.0, 1.0, method="guess")

    @pytest.mark.parametrize("method", ["paper", "exact"])
    @pytest.mark.parametrize("beta2,p1", [(1.0, math.inf), (math.nan, 1.0), (1e200, 1e200)],
                             ids=["infinite-power", "nan-gain", "overflow"])
    def test_non_finite_input_or_result_is_value_error(self, method, beta2, p1):
        with pytest.raises(ValueError, match="finite|overflows"):
            vsi_threshold(beta2, p1, method)


class TestVsiCheck:
    def test_tight_at_exact_threshold(self):
        ok, binding = vsi_check(NetworkParams(alpha2=3.0, beta2=1.0, gamma2=1.0,
                                              eta2=0.0, p1=1.0, p2=1.0))
        assert ok and binding == "common-3user"

    def test_fails_just_below(self):
        ok, binding = vsi_check(NetworkParams(alpha2=2.9, beta2=1.0, gamma2=1.0,
                                              eta2=0.0, p1=1.0, p2=1.0))
        assert not ok and binding == "common-3user"

    def test_fails_without_cross_gain(self):
        ok, _ = vsi_check(NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0,
                                        eta2=0.0, p1=1.0, p2=1.0))
        assert not ok


class TestHalfDuplex:
    @given(networks())
    @settings(max_examples=15, deadline=None)
    def test_exact_halving_cheap_schemes(self, params):
        half = NetworkParams(alpha2=params.alpha2, beta2=params.beta2,
                             gamma2=params.gamma2, eta2=params.eta2,
                             p1=params.p1, p2=params.p2, duplex="half")
        assert single_rate(half).rate == 0.5 * single_rate(params).rate
        assert rate_splitting(half).rate == 0.5 * rate_splitting(params).rate

    def test_power_boost_matches_doubled_full_duplex(self):
        base = symmetric(0.6, 2.0, p2=1.0)
        boosted = NetworkParams(alpha2=0.6, beta2=1.0, gamma2=1.0, eta2=0.6,
                                p1=2.0, p2=1.0, duplex="half", power_boost=True)
        doubled = NetworkParams(alpha2=0.6, beta2=1.0, gamma2=1.0, eta2=0.6,
                                p1=4.0, p2=2.0)
        assert coop(boosted).rate == 0.5 * coop(doubled).rate
        assert single_rate(boosted).rate == 0.5 * single_rate(doubled).rate
        assert base.rate_scale() == 1.0


class TestPowerMonotonicity:
    def test_rates_nondecreasing_in_power(self):
        base = symmetric(0.5, 1.0, p2=0.5)
        last = {"single": -1.0, "rs": -1.0, "coop": -1.0}
        for factor in (1.0, 2.0, 4.0, 8.0):
            params = NetworkParams(alpha2=0.5, beta2=1.0, gamma2=1.0, eta2=0.5,
                                   p1=base.p1 * factor, p2=base.p2 * factor)
            rates = {"single": single_rate(params).rate,
                     "rs": rate_splitting(params).rate,
                     "coop": coop(params).rate}
            for key, value in rates.items():
                assert value >= last[key] - 1e-9
            last = rates
