import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrates.cli import main
from meshrates.model import HopSplit, NetworkParams, db_to_linear
from meshrates.oracle import dense_split_scan
from meshrates.polytope import max_sum_rate
from meshrates.regions import (
    coop_bounds,
    hop1_region,
    hop2_coop_region,
    hop2_mcp_region,
    hop_terms,
    mcp_bounds,
)
from meshrates.schemes import (
    _joint_values,
    _optimize_hop_split,
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
                _, rate = _optimize_hop_split(*hop_terms(params, hop))
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
            f_hat, rate = _optimize_hop_split(*terms)
        want_f, want_rate = self.EXTREMES[terms]
        assert rate == pytest.approx(want_rate, rel=1e-15, abs=0.0)
        assert f_hat == want_f and math.copysign(1.0, f_hat) == 1.0


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


class TestJointValues:
    @pytest.mark.parametrize("bounds_fn,builder", [
        (coop_bounds, hop2_coop_region), (mcp_bounds, hop2_mcp_region),
    ])
    def test_grid_matches_scalar_lp(self, bounds_fn, builder):
        # the split search reads the same greedy LP as max_sum_rate, on arrays
        fs = np.array([0.0, 0.13, 0.5, 0.87, 1.0])
        for work in (symmetric(0.4, 2.0, 1.0),
                     NetworkParams(alpha2=1.5, beta2=1.0, gamma2=0.7, eta2=1.2,
                                   p1=5.0, p2=0.3)):
            values = _joint_values(work, bounds_fn, fs, fs)
            for i, f1 in enumerate(fs):
                for j, f2 in enumerate(fs):
                    lp = max_sum_rate(hop1_region(work, HopSplit(float(f1))),
                                      builder(work, HopSplit(float(f2))))
                    assert abs(values[i, j] - lp.value) <= 1e-12


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
