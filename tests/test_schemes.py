import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrates import regions, schemes
from meshrates.cli import main
from meshrates.model import HopSplit, NetworkParams, RatePair, capacity, db_to_linear, split_powers
from meshrates.oracle import dense_split_scan
from meshrates.polytope import _greedy, max_sum_rate, vertices
from meshrates.regions import (
    _coop_gains,
    _corner,
    _mac_gains,
    _rs_bounds,
    coop_bounds,
    hop1_region,
    hop2_coop_region,
    hop2_mcp_region,
    hop2_rs_region,
    mac_bounds,
    mcp_bounds,
)
from meshrates.schemes import (
    _Hop,
    _hop_split_candidates,
    _pick_last_max,
    _Row,
    coop,
    first_hop_upper_bound,
    mcp,
    rate_splitting,
    single_rate,
    vsi_check,
    vsi_threshold,
)

CLEAN = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=1.0, p2=1.0)


def symmetric(a2, p, p2=None):
    return NetworkParams(alpha2=a2, beta2=1.0, gamma2=1.0, eta2=a2,
                         p1=p, p2=p if p2 is None else p2)


def figure(p1_db, a2):
    """The Fig. 4/5 network at P1 = ``p1_db`` dB: alpha2 = eta2, P2 = P1/2."""
    p1 = db_to_linear(p1_db)
    return symmetric(a2, p1, p2=p1 / 2.0)


# Draws 950 and 928 of seeded_networks(5, 1000, variants=True), both in the
# paper's regime and full duplex: no cap certifies coop at the first or mcp
# at the second.
DRAW_950 = NetworkParams(alpha2=0.5253714259490248, beta2=0.9574730349537732,
                         gamma2=2.0448959856894064, eta2=0.8044076468959427,
                         p1=7.8782264002127, p2=7.4428705031545)
DRAW_928 = NetworkParams(alpha2=0.010463501166988456, beta2=1.7522628825066813,
                         gamma2=0.5247643647193694, eta2=0.18075374183905774,
                         p1=10.397268179137031, p2=10.53898177038379)


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


@pytest.mark.parametrize("p1", [1.0, 1e-12, 1e-15, 1e-100, 1e-300, 1e-318, 1e-321])
def test_bottleneck_relative_at_any_power(p1):
    # hop 2 has twice hop 1's power and SINR at every scale, so hop 1 is the
    # bottleneck also where both rates are far below 1e-12, subnormal included
    params = symmetric(0.3, p1, p2=2.0 * p1)
    assert single_rate(params).bottleneck_hop == 1
    assert rate_splitting(params).bottleneck_hop == 1


class TestRateSplitting:
    def test_reduces_to_single_rate_without_cross_gains(self):
        result = rate_splitting(CLEAN)
        assert result.rate == single_rate(CLEAN).rate
        assert result.split_hop1.f_private == 1.0
        assert result.split_hop2.f_private == 1.0

    def test_below_threshold_gain_stays_single_rate(self):
        # single rate is rate splitting with all power private: wherever both
        # optimal splits are f = 1, the rates and bottlenecks are equal bit for
        # bit; the draws lie in and out of the regime, with half duplex and boost
        params = symmetric(0.1, 1.0)
        assert rate_splitting(params).split_hop1.f_private == 1.0
        matched = set()
        for params in [params, *seeded_networks(5, 1000, variants=True)]:
            result = rate_splitting(params)
            if (result.split_hop1.f_private, result.split_hop2.f_private) != (1.0, 1.0):
                continue
            single = single_rate(params)
            assert (result.rate, result.bottleneck_hop) == (single.rate, single.bottleneck_hop)
            matched.add((params.duplex, params.power_boost))
        assert matched == {("full", False), ("half", True)}

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
        # Both rate-splitting hops against the oracle's 1e-3 scan, and coop's
        # hop 2 against the best max-sum LP of its public region on a
        # 1,001-point split grid. Coop's optimum is also its region's LP at
        # its own split, so the corner reads the same bounds.
        rng = np.random.default_rng(7)
        grid = np.linspace(0.0, 1.0, 1001)
        for k in range(24):
            beta2 = float(rng.uniform(0.2, 2.5))
            alpha2 = float(rng.uniform(0.0, beta2 if k % 2 else 2.0 * beta2))
            p1 = float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))
            params = NetworkParams(alpha2=alpha2, beta2=beta2, gamma2=beta2, eta2=alpha2,
                                   p1=p1, p2=p1 / 2.0)
            for hop in (1, 2):
                rate = _Row(params).hop(hop).value
                _, reference = dense_split_scan(params, hop=hop, step=1e-3)
                assert rate >= reference - 1e-12, (params, hop)
            coop2 = _Row(params).hop(2, _coop_gains)
            reference = max(max_sum_rate(hop2_coop_region(params, HopSplit(float(f)))).value
                            for f in grid)
            assert coop2.value >= reference - 1e-12, params
            assert max_sum_rate(hop2_coop_region(params, coop2.split)).value == \
                   pytest.approx(coop2.value, rel=1e-15, abs=1e-15), params

    # (alpha2, beta2, P) -> (f_hat, rate) of the grid/golden/bisection optimizer
    # this closed form replaced. alpha2 = 1e300 with P = 1e300 is left out:
    # alpha2*P overflows a float there, and that optimizer failed too. Where
    # beta2*P is tiny, the rate is the low-power limit beta2*P/ln 2 (that
    # optimizer's 0.0 there was log2(1 + x) rounding 1 + x to 1). Ties are
    # relative above the smallest normal float: at (5e-324, 0, 1e300) all
    # common power (f = 0) carries 2*alpha2*P/(3 ln 2), where an absolute
    # tie gave f = 1 and 0; at P = 1 that rate is subnormal, so f = 1 ties.
    EXTREMES = {
        (5e-324, 0.0, 1e-300): (1.0, 0.0),
        (5e-324, 0.0, 1.0): (1.0, 0.0),
        (5e-324, 0.0, 1e300): (0.0, 2.0 * 5e-324 * 1e300 / (3.0 * math.log(2))),
        (5e-324, 5e-324, 1e-300): (1.0, 0.0),
        (5e-324, 5e-324, 1.0): (1.0, 5e-324 * 1.0 / math.log(2)),
        (5e-324, 5e-324, 1e300): (1.0, 5e-324 * 1e300 / math.log(2)),
        (5e-324, 1.0, 1e-300): (1.0, 1.0 * 1e-300 / math.log(2)),
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
            hop = _Hop(_mac_gains(*terms[:2]), terms[2])
        f_hat, rate = hop.split.f_private, hop.value
        want_f, want_rate = self.EXTREMES[terms]
        assert rate == pytest.approx(want_rate, rel=1e-15, abs=0.0)
        assert f_hat == want_f and math.copysign(1.0, f_hat) == 1.0

    @pytest.mark.parametrize("a,f_hat", [(0.64, 0.1371), (0.66, 0.1799)])
    def test_crossing_wins_both_sides_of_the_criterion_06_step(self, a, f_hat):
        # beta2 = P = 1 (0 dB). f_hat rises by 0.0428 between these gains
        # (acceptance criterion 06), and on both sides the optimum is the
        # crossing of the 2- and 3-user common bounds: the step is the
        # crossing's own slope in alpha2, not a switch between candidates.
        b, p = 1.0, 1.0
        d0, k = 1.0 + 2.0 * a * p, 1.0 + (2.0 * a + b) * p
        ratio = (math.sqrt(1.0 + 8.0 * a / b) - 1.0) / 2.0  # (D0 + bx)/K at the crossing
        result = first_hop_upper_bound(NetworkParams(alpha2=a, beta2=b, gamma2=1.0, eta2=0.0,
                                                     p1=p, p2=1.0))
        split = result.split_hop1
        assert split.f_private == pytest.approx((k * ratio - d0) / (b * p), rel=1e-12)
        assert split.f_private == pytest.approx(f_hat, abs=5e-5)
        assert result.binding == ("private-single", "sum-2", "sum-3")

    def test_rate_splitting_onset(self):
        # In regime (a <= b) all-private transmission, f_hat = 1, is optimal
        # exactly when 2 P a^2 + a - b <= 0: the left derivative at f = 1 of
        # the 2-user branch, the larger one in regime, is then not negative.
        rng = np.random.default_rng(2)
        b = rng.uniform(0.05, 5.0, size=6000)
        a = b * rng.uniform(0.0, 1.0, size=6000)
        p = np.exp(rng.uniform(math.log(1e-2), math.log(1e3), size=6000))
        onset = 2.0 * p * a * a + a - b <= 0.0
        assert 1000 < onset.sum() < 5000
        for a_k, b_k, p_k, all_private in zip(a, b, p, onset):
            f_hat = _Hop(_mac_gains(float(a_k), float(b_k)), float(p_k)).split.f_private
            assert (f_hat == 1.0) == all_private, (a_k, b_k, p_k, f_hat)

    def test_corner_sum_monotone_between_candidates(self):
        # Global, not only local, optimality: between consecutive candidates
        # the corner sum is monotone, so its maximum over [0, 1] lies at a
        # candidate, and no point of a 2,001-point split grid beats the
        # optimum. Draws alternate in and out of the paper's regime; the
        # gains are a rate-splitting hop's and coop's hop 2.
        rng = np.random.default_rng(24)
        grid = np.linspace(0.0, 1.0, 2001)
        for k in range(2000):
            b = float(rng.uniform(0.05, 5.0))
            a = float(rng.uniform(0.0, b if k % 2 else 2.0 * b))
            p = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e3))))
            for gains in (_mac_gains(a, b), _coop_gains(a, b)):
                candidates = _hop_split_candidates(gains, p)
                fs = np.union1d(grid, candidates)
                r_private, rc_two, rc_three = _corner(gains, *split_powers(fs, p))
                rates = r_private + np.minimum(rc_two, rc_three)
                slack = 1e-14 * np.maximum(1.0, np.abs(rates))
                ends = np.searchsorted(fs, candidates)
                for lo, hi in zip(ends[:-1], ends[1:]):
                    steps = np.diff(rates[lo:hi + 1])
                    assert ((steps >= -slack[lo + 1:hi + 1]).all()
                            or (steps <= slack[lo + 1:hi + 1]).all()), (gains, p, fs[lo], fs[hi])
                best = _Hop(gains, p).value
                assert rates.max() <= best + 1e-14 * max(1.0, abs(best)), (gains, p)

    @staticmethod
    def array_scored(gains, total):
        """A hop's split and value with its candidates scored as one numpy
        array, picked by the array tie rule: the form ``_Hop`` had before it
        scored on Python floats."""
        fs = np.array(_hop_split_candidates(gains, total))
        r_private, rc_two, rc_three = _corner(gains, *split_powers(fs, total))
        values = r_private + np.minimum(rc_two, rc_three)
        top = float(values.max())
        idx = int(np.nonzero(values >= top - 1e-15 * max(top, sys.float_info.min))[0][-1])
        return float(fs[idx]), float(values[idx])

    def test_float_scoring_equals_array_scoring(self):
        # 3,000 seeded (cross2, intra2, power) draws, each a MAC hop and a
        # coop hop. Half are in and out of the paper's regime at powers from
        # 1e-3 to 1e3; the others meet every pair of gain kinds (0,
        # subnormal, tiny, moderate, large) at powers from 1e-300 to 1e300,
        # large gains stopping where gain times power would leave a float,
        # which a network refuses. The split and value are the array form's
        # to the bit, and Python floats.
        rng = np.random.default_rng(49)
        kinds = (lambda cap: 0.0, lambda cap: rng.uniform(0.0, 2.2e-308),
                 lambda cap: 10.0 ** rng.uniform(-320.0, -6.0),
                 lambda cap: 10.0 ** rng.uniform(-6.0, 1.0),
                 lambda cap: 10.0 ** rng.uniform(1.0, min(max(1.0, cap), 300.0)))
        interior = 0
        for k in range(3000):
            if k % 2:
                total = 10.0 ** rng.uniform(-3.0, 3.0)
                intra2 = float(rng.uniform(0.05, 5.0))
                cross2 = float(rng.uniform(0.0, intra2 if k % 4 == 1 else 2.0 * intra2))
            else:
                total = 10.0 ** rng.uniform(-300.0, 300.0)
                cap = 299.0 - math.log10(total)
                cross2 = float(kinds[k // 2 % 5](cap))
                intra2 = float(kinds[k // 10 % 5](cap))
            for gains_fn in (_mac_gains, _coop_gains):
                gains = gains_fn(cross2, intra2)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    hop = _Hop(gains, total)
                    f, value = self.array_scored(gains, total)
                assert type(hop.split.f_private) is float and type(hop.value) is float
                assert (hop.split.f_private.hex(), hop.value.hex()) == (f.hex(), value.hex()), \
                    (gains, total)
                interior += 0.0 < f < 1.0
        assert interior > 500

    @staticmethod
    def draws(seed, n):
        """``n`` seeded networks: every fourth out of the paper's regime,
        every third half duplex, every sixth with power boost."""
        rng = np.random.default_rng(seed)
        for k in range(n):
            beta2, gamma2 = (float(g) for g in rng.uniform(0.1, 3.0, size=2))
            lo, hi = (0.0, 1.0) if k % 4 else (1.0, 3.0)
            p1, p2 = (float(p) for p in np.exp(rng.uniform(math.log(0.01), math.log(100.0),
                                                           size=2)))
            yield NetworkParams(
                alpha2=float(rng.uniform(lo * beta2, hi * beta2)), beta2=beta2, gamma2=gamma2,
                eta2=float(rng.uniform(lo * gamma2, hi * gamma2)), p1=p1, p2=p2,
                duplex="half" if k % 3 == 0 else "full", power_boost=k % 6 == 0)

    def test_rate_is_operating_point_total(self):
        # The rate and the reported corner come from one evaluation, so they
        # agree to the bit, whichever hop's corner rate splitting reports;
        # coop's and mcp's rate is the total of their LP point alike.
        for k, params in enumerate(self.draws(3, 2000)):
            joint = (coop, mcp) if k < 300 else ()
            for scheme in (first_hop_upper_bound, rate_splitting, *joint):
                result = scheme(params)
                assert result.rate == result.operating_point.total, (scheme, params)

    def test_binding_is_the_reported_hops_lp_binding(self):
        # Both name exactly the bounds the max-sum LP finds tight on the
        # reported hop's region at the reported split, and the reported
        # corner is that LP's point. Rate splitting reports the hop whose
        # optimum is the rate, hop 1 on a tie.
        hops = {1: 0, 2: 0}
        for params in self.draws(29, 1500):
            scale = params.rate_scale()
            bound = first_hop_upper_bound(params)
            result = rate_splitting(params)
            hop = 1 if result.rate == bound.rate else 2
            hops[hop] += 1
            for reported, region in (
                    (bound, hop1_region(params, bound.split_hop1)),
                    (result, hop1_region(params, result.split_hop1) if hop == 1
                     else hop2_rs_region(params, result.split_hop2))):
                lp = max_sum_rate(region)
                assert reported.binding == lp.binding, (params, reported)
                point = reported.operating_point
                assert point.r_private == pytest.approx(scale * lp.point.r_private, abs=1e-12)
                assert point.r_common == pytest.approx(scale * lp.point.r_common, abs=1e-12)
        assert min(hops.values()) >= 300, hops


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

    @pytest.mark.parametrize("draws", [
        pytest.param(lambda: seeded_networks(5, 1000, variants=True), id="seeded"),
        # the scheme-ordering check's network where the bound once sat ulps below mcp
        pytest.param(lambda: [NetworkParams(alpha2=0.5, beta2=1.0, gamma2=1.0, eta2=0.5,
                                            p1=10.0 ** 0.3, p2=10.0 ** 0.3 / 2.0)],
                     id="ordering"),
    ])
    def test_caps_every_scheme_bit_for_bit(self, draws):
        # The bound, rate splitting's hop 1 and the joint search's cap cell
        # all take hop 1's max-sum LP greedy on its bounds at its optimum, so
        # no scheme's rate exceeds the bound, not even by an ulp.
        for params in draws():
            *rates, bound = (result.rate for result in schemes.evaluate(params, schemes.SCHEMES))
            assert max(rates) <= bound, params


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


def seeded_networks(seed, n, variants=False):
    """n seeded networks; every other one lies outside the paper regime
    (alpha2 > beta2 and eta2 > gamma2). With ``variants``, every third is
    half duplex and every sixth has power boost."""
    rng = np.random.default_rng(seed)
    draws = []
    for k in range(n):
        beta2, gamma2 = rng.uniform(0.2, 2.5, 2)
        low, high = (1.0, 2.0) if k % 2 else (0.0, 1.0)
        p1, p2 = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 2))
        draws.append(NetworkParams(alpha2=float(beta2 * rng.uniform(low, high)),
                                   beta2=float(beta2), gamma2=float(gamma2),
                                   eta2=float(gamma2 * rng.uniform(low, high)),
                                   p1=float(p1), p2=float(p2),
                                   duplex="half" if variants and k % 3 == 0 else "full",
                                   power_boost=variants and k % 6 == 0))
    return draws


def grid_bounds(params, bounds_fn, f1, f2):
    """Hop 1's MAC bounds on the f1 grid and hop 2's ``bounds_fn`` bounds on
    the f2 grid: the same 1-D arrays the search scores."""
    cross1, intra1, total1 = params.hop(1)
    cross2, intra2, total2 = params.hop(2)
    return (mac_bounds(cross1, intra1, *split_powers(f1, total1)),
            bounds_fn(cross2, intra2, *split_powers(f2, total2)))


def grid_values(bounds1, bounds2):
    """Max-sum LP value of hop 1 at the i-th entries of ``bounds1``
    intersected with hop 2 at the j-th entries of ``bounds2``: the greedy on
    hop 1's lines down the rows and hop 2's across the columns."""
    x, y, _ = _greedy([(a, b, c[:, None], None) for (a, b), c in bounds1.items()]
                      + [(a, b, c[None, :], None) for (a, b), c in bounds2.items()])
    return x + y


def four_passes(params, bounds_fn):
    """The search's fallback written out: every pass a clipped linspace
    around the best cell of the pass before, from (0.5, 0.5)."""
    f1 = f2 = 0.5
    for points, half_width in ((101, 0.5), (11, 1e-2), (11, 1e-3), (11, 1e-4)):
        grid1, grid2 = (np.clip(np.linspace(f - half_width, f + half_width, points), 0.0, 1.0)
                        for f in (f1, f2))
        values = grid_values(*grid_bounds(params, bounds_fn, grid1, grid2))
        i, j = divmod(_pick_last_max(values.ravel()), values.shape[1])
        f1, f2 = float(grid1[i]), float(grid2[j])
    return f1, f2


def full_row(params, bounds_fn, gains_fn):
    """The search with the smaller cap's split scored against all of pass
    1's grid at once: the max-sum rate of the cell it returns, before the
    half-duplex scale, and the capped hop (0 or 1), or None where the row
    misses the cap and the four passes' cell is returned."""
    row = _Row(params)
    caps = [(row.hop(1), 0)]
    if gains_fn:
        caps.append((row.hop(2, gains_fn), 1))
    cap, capped = min(caps, key=lambda cap: cap[0].value)
    fs = [np.linspace(0.0, 1.0, 101)] * 2
    fs[capped] = np.array([cap.split.f_private])
    values = grid_values(*grid_bounds(params, bounds_fn, *fs)).ravel()
    cell = float(values[_pick_last_max(values)])
    if cell >= cap.value - 1e-12 * max(cap.value, sys.float_info.min):
        return cell, capped
    f1, f2 = four_passes(params, bounds_fn)
    values = grid_values(*grid_bounds(params, bounds_fn, np.array([f1]), np.array([f2])))
    return float(values[0, 0]), None


def bounds_at(bounds_fn, cross2, intra2, total, f):
    """Scalar bounds of one hop at split f, read from a one-split array
    evaluation (the path the search scores)."""
    p_private, p_common = HopSplit(f).powers(total)
    bounds = bounds_fn(cross2, intra2, np.array([p_private]), np.array([p_common]))
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
            values = grid_values(*grid_bounds(work, bounds_fn, fs, fs))
            for i, f1 in enumerate(fs):
                for j, f2 in enumerate(fs):
                    lp = max_sum_rate(hop1_region(work, HopSplit(float(f1))),
                                      builder(work, HopSplit(float(f2))))
                    assert values[i, j] == lp.value

    @pytest.mark.parametrize("scheme,bounds_fn,gains_fn", [
        pytest.param(coop, coop_bounds, _coop_gains, id="coop_bounds"),
        pytest.param(mcp, mcp_bounds, None, id="mcp_bounds"),
    ])
    def test_search_matches_reference_passes(self, scheme, bounds_fn, gains_fn):
        # Where no cap settles the search, its splits are the four passes'.
        # The draws include one fallback per scheme (DRAW_950 for coop,
        # Fig. 4 alpha2 = 0.06 for mcp).
        draws = [figure(3.0, 0.06), figure(10.0, 0.56), DRAW_950] + seeded_networks(12, 6)
        fallbacks = 0
        for work in draws:
            result = scheme(work)
            f1, f2 = result.split_hop1.f_private, result.split_hop2.f_private
            caps = [_Row(work).hop(1).value]
            if gains_fn:
                caps.append(_Row(work).hop(2, gains_fn).value)
            cell = float(grid_values(*grid_bounds(work, bounds_fn, np.array([f1]),
                                                    np.array([f2])))[0, 0])
            if cell < min(caps) - 1e-12 * max(min(caps), sys.float_info.min):
                fallbacks += 1
                assert (f1, f2) == four_passes(work, bounds_fn), work
        assert fallbacks >= 1

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
            f1, f2 = result.split_hop1.f_private, result.split_hop2.f_private
            # The region clamps a bound that rounds below 0, which the grid
            # does not; no winning cell here has one, so the equality is exact.
            hop2 = bounds_at(bounds_fn, *params.hop(2), f2)
            assert min(hop2.values()) >= 0.0, params
            bounds = grid_bounds(params, bounds_fn, np.array([f1]), np.array([f2]))
            cell = grid_values(*bounds)[0, 0]
            assert cell * params.rate_scale() == result.rate, params

    # Rows of each bounds evaluation, in order. The smaller cap's bounds come
    # from its hop record, not from these functions; the other hop is
    # evaluated at every tenth pass-1 split, then on a miss at all 101;
    # passes 2-4 evaluate both hops at 11 splits.
    PASSES_2_TO_4 = [("hop1", 11), ("hop2", 11)] * 3

    @pytest.mark.parametrize("scheme,name,cases", [
        pytest.param(coop, "coop_bounds", [
            (symmetric(0.4, 2.0, p2=1.0), [("hop1", 11)]),
            # draw 44 of seeded_networks(5, 1000, variants=True): full duplex, in regime
            (seeded_networks(5, 45, variants=True)[44],
             [("hop2", 11), ("hop2", 101)]),
            (DRAW_950, [("hop1", 11), ("hop1", 101), ("hop2", 101)] + PASSES_2_TO_4),
        ], id="coop-coop_bounds"),
        pytest.param(mcp, "mcp_bounds", [
            (symmetric(0.4, 2.0, p2=1.0), [("hop2", 11)]),
            (figure(3.0, 0.06), [("hop2", 11), ("hop2", 101), ("hop1", 101)] + PASSES_2_TO_4),
        ], id="mcp-mcp_bounds"),
    ])
    def test_one_bounds_evaluation_per_pass(self, scheme, name, cases, monkeypatch):
        calls = []

        def counting(fn, label):
            def wrapper(cross2, intra2, p_private, p_common):
                assert type(p_private) is type(p_common) is np.ndarray
                calls.append((label, len(p_private)))
                return fn(cross2, intra2, p_private, p_common)
            return wrapper

        hop1 = counting(regions.mac_bounds, "hop1")
        hop2 = counting(getattr(regions, name), "hop2")
        # in both modules, so a scalar re-evaluation through a region builder counts too
        for module in (schemes, regions):
            monkeypatch.setattr(module, "mac_bounds", hop1)
            monkeypatch.setattr(module, name, hop2)
        for params, expected in cases:  # probe settles, full row settles, passes run
            calls.clear()
            scheme(params)
            assert calls == expected, params

    @pytest.mark.parametrize("scheme,bounds_fn,gains_fn,certified", [
        pytest.param(coop, coop_bounds, _coop_gains, (102, 102, 931, 913), id="coop"),
        pytest.param(mcp, mcp_bounds, None, (88, 88, 738, 738), id="mcp"),
    ])
    def test_tenth_split_probe_matches_full_row(self, scheme, bounds_fn, gains_fn, certified,
                                                monkeypatch):
        # Against the search that scored the smaller cap's split against all
        # of pass 1's grid at once: the rate is bit-identical, a certified
        # cell's other split is one of that grid's, and a fallback's splits
        # are the four passes'. ``certified`` counts the Fig. 4/5 points that
        # reach the cap, those the probe settles, then the same for the draws.
        grids = []

        def counting(lines):  # counts the scored grids, not the scalar LPs
            if isinstance(lines[0][2], np.ndarray):
                grids.append(lines)
            return _greedy(lines)

        monkeypatch.setattr(schemes, "_greedy", counting)
        figures = [figure(p1_db, k * 0.02) for p1_db in (3.0, 10.0) for k in range(51)]
        row = np.linspace(0.0, 1.0, 101)
        counts = {"figures": [0, 0], "draws": [0, 0]}
        for k, params in enumerate(figures + seeded_networks(5, 1000, variants=True)):
            grids.clear()
            result = scheme(params)
            probe = len(grids) == 1
            f1, f2 = result.split_hop1.f_private, result.split_hop2.f_private
            reference, capped = full_row(params, bounds_fn, gains_fn)
            if capped is None:  # the four passes
                assert (f1, f2) == four_passes(params, bounds_fn), params
            else:
                assert (f2, f1)[capped] in row, params
                tally = counts["draws" if k >= len(figures) else "figures"]
                tally[0] += 1
                tally[1] += probe
            assert result.rate == reference * params.rate_scale(), params
        assert (*counts["figures"], *counts["draws"]) == certified

    @pytest.mark.parametrize("scheme,bounds_fn", [
        pytest.param(coop, coop_bounds, id="coop"), pytest.param(mcp, mcp_bounds, id="mcp"),
    ])
    def test_binding_is_the_returned_split_pairs(self, scheme, bounds_fn):
        # coop's and mcp's binding belongs to the split pair the search
        # returns, not to the rate: another pair of the same rate can bind
        # other lines. It is the greedy's labels on both hops' lines, each
        # hop's bounds rebuilt at its reported split.
        figures = [figure(p1_db, k * 0.02) for p1_db in (3.0, 10.0) for k in range(51)]
        for params in figures + seeded_networks(5, 100, variants=True):
            result = scheme(params)
            lines = []
            for k, name, fn, split in ((1, "hop1", mac_bounds, result.split_hop1),
                                       (2, f"hop2-{result.scheme}", bounds_fn, result.split_hop2)):
                cross2, intra2, total = params.hop(k)
                lines += [(a, b, c, f"{name}:{label}") for a, b, c, label
                          in regions._hop_lines(fn(cross2, intra2, *split.powers(total)))]
            assert result.binding == _greedy(lines)[2], params


    def test_non_finite_bound_is_refused(self):
        # An infinite common bound never binds, so every cell is finite; the
        # final LP refuses it, as the region it stands for would.
        def unbounded_common(*args):
            bounds = mcp_bounds(*args)
            return {**bounds, (0, 1): np.full_like(bounds[(0, 1)], math.inf)}

        with pytest.raises(ValueError, match="must be finite"):
            schemes._joint(schemes.SCHEME_MCP, symmetric(0.4, 2.0, p2=1.0), unbounded_common)

    def test_nan_value_is_refused(self):
        # one NaN makes the maximum NaN, which no value reaches
        with pytest.raises(ValueError, match="NaN"):
            _pick_last_max(np.array([1.0, math.nan, 0.5]))

    @pytest.mark.parametrize("values", [[1.0, math.nan, 0.5], [math.nan, 1.0], [1.0, 0.5, math.nan]])
    def test_nan_in_a_list_is_refused(self, values):
        # a hop's candidates are a list: Python's max() skips a NaN after
        # the first value, so the list is searched for one
        with pytest.raises(ValueError, match="NaN"):
            _pick_last_max(values)

    def test_nan_bound_is_refused(self):
        # a NaN common bound at the last split makes those cells NaN
        def nan_common(*args):
            bounds = mcp_bounds(*args)
            common = bounds[(0, 1)].copy()
            common[-1] = math.nan
            return {**bounds, (0, 1): common}

        with pytest.raises(ValueError, match="NaN"):
            schemes._joint(schemes.SCHEME_MCP, symmetric(0.4, 2.0, p2=1.0), nan_common)


class TestEvaluate:
    """``evaluate`` solves each distinct hop of a row once and returns what
    the one-name calls return."""

    FIG3 = [symmetric(k * 0.02, db_to_linear(p_db)) for p_db in (0.0, 10.0) for k in range(51)]
    FIG45 = [figure(p1_db, k * 0.02) for p1_db in (3.0, 10.0) for k in range(51)]

    def test_equals_one_name_calls(self):
        names = list(schemes.SCHEMES)
        for params in self.FIG3 + self.FIG45 + seeded_networks(5, 1000, variants=True):
            alone = [scheme(params) for scheme in schemes.SCHEMES.values()]
            assert schemes.evaluate(params, names) == alone, params

    def test_order_does_not_matter(self):
        # the bound before rate splitting, mcp before coop: whichever scheme
        # asks first fills the row
        names = list(schemes.SCHEMES)[::-1]
        for params in self.FIG3 + self.FIG45:
            assert schemes.evaluate(params, names) == [schemes.SCHEMES[name](params)
                                                       for name in names], params

    @staticmethod
    def extreme_networks(seed, n):
        """``n`` seeded networks that ``NetworkParams`` accepts, at the ends
        of the float range: each gain 0, 5e-324 or log-uniform on [1e-320,
        1.6e308] and each power log-uniform on [1e-320, 1e308]; every third
        is half duplex and every sixth has power boost."""
        rng = np.random.default_rng(seed)
        top = math.log10(1.6e308)

        def gain():
            kind = rng.integers(4)
            return (0.0, 5e-324)[kind] if kind < 2 else float(10.0 ** rng.uniform(-320, top))

        draws = []
        while len(draws) < n:
            k = len(draws)
            try:
                draws.append(NetworkParams(
                    alpha2=gain(), beta2=gain(), gamma2=gain(), eta2=gain(),
                    p1=float(10.0 ** rng.uniform(-320, 308)),
                    p2=float(10.0 ** rng.uniform(-320, 308)),
                    duplex="half" if k % 3 == 0 else "full", power_boost=k % 6 == 0))
            except ValueError:  # a gain times a power past the float range
                pass
        return draws

    @pytest.mark.parametrize("power", [1e-10, 1e-15, 1e-17, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300])
    def test_low_power_limit(self, power):
        # Every rate tends to its low-power slope times P/ln 2, which is 1
        # here for all five schemes; log2(1 + x) once read 1.11 at
        # P = 1e-15 and 0 from P = 1e-17 down.
        params = NetworkParams(alpha2=0.3, beta2=1.0, gamma2=1.0, eta2=0.3, p1=power, p2=power)
        for result in schemes.evaluate(params, list(schemes.SCHEMES)):
            assert abs(result.rate * math.log(2.0) / power - 1.0) <= 1e-9, result

    def test_ties_do_not_depend_on_the_power_scale(self):
        # gamma2 = 0.1: hop 2 sets both rates, with all its power common.
        # Rate splitting tends to min(2 eta2/2, (2 eta2 + gamma2)/3) P/ln 2 and
        # coop to (gamma + eta)^2/3 P/ln 2. Absolute ties once read 0.1 P/ln 2
        # (f2 = 1) for rate splitting from P = 1e-15 down and 0 for coop from
        # P = 1e-12 down.
        for power in (1e-10, 1e-12, 1e-15, 1e-17, 1e-50, 1e-100, 1e-200, 1e-300):
            params = NetworkParams(alpha2=0.3, beta2=1.0, gamma2=0.1, eta2=0.3, p1=power,
                                   p2=power)
            rs, co = schemes.evaluate(params, [schemes.SCHEME_RS, schemes.SCHEME_COOP])
            assert (rs.split_hop2.f_private, co.split_hop2.f_private, rs.bottleneck_hop) == \
                   (0.0, 0.0, 2), power
            for result, slope in ((rs, 0.7 / 3.0),
                                  (co, (math.sqrt(0.1) + math.sqrt(0.3)) ** 2 / 3.0)):
                assert abs(result.rate * math.log(2.0) / (slope * power) - 1.0) <= 1e-9, result

    def test_extreme_networks(self):
        # Warnings are errors here. Hop 2 at a tiny gain and a power past
        # about 1e290 once gave the mcp sum bound a NaN or an overflow
        # warning, and so did a gain past about 1e300 at a tiny power.
        names = list(schemes.SCHEMES)
        splits = np.random.default_rng(31)
        for params in self.extreme_networks(29, 1000):
            for result in schemes.evaluate(params, names):
                assert math.isfinite(result.rate) and result.rate >= 0.0, (params, result)
            split = HopSplit(float(splits.uniform()))
            for builder in (hop1_region, hop2_rs_region, hop2_coop_region, hop2_mcp_region):
                region = builder(params, split)
                assert vertices(region)[0] == RatePair(0.0, 0.0), (params, builder)
                assert math.isfinite(max_sum_rate(region).value), (params, builder)

    @pytest.mark.parametrize("params,names,solves", [
        # hop 1, hop 2 and hop 2 with coop's gains, each hop's scalar bounds
        # at its optimum read once: hop 1's by the bound's binding and mcp's
        # cap, hop 2's by rate splitting's binding (hop 2 sets its rate) and
        # coop's hop 2's by its cap
        (figure(3.0, 0.4), list(schemes.SCHEMES), 3),
        # eta2 = alpha2, gamma2 = beta2 and p2 = p1: hop 2 is hop 1
        (symmetric(0.4, db_to_linear(10.0)), [schemes.SCHEME_RS], 1),
    ])
    def test_each_distinct_hop_solved_once(self, params, names, solves, monkeypatch):
        calls, bounds_calls = [], []

        def counting(gains, total):
            calls.append((gains, total))
            return _hop_split_candidates(gains, total)

        def counting_bounds(gains, p_private, p_common):
            assert np.ndim(p_private) == np.ndim(p_common) == 0
            bounds_calls.append((gains, p_private, p_common))
            return _rs_bounds(gains, p_private, p_common)

        monkeypatch.setattr(schemes, "_hop_split_candidates", counting)
        monkeypatch.setattr(schemes, "_rs_bounds", counting_bounds)
        for network in (params, replace(params)):  # nothing outlives a row
            calls.clear()
            bounds_calls.clear()
            schemes.evaluate(network, names)
            assert len(calls) == len(set(calls)) == solves, network
            assert len(bounds_calls) == len(set(bounds_calls)) == solves, network


class TestFirstHopCertificate:
    """A rate-splitting hop's max-sum LP at any split caps the joint rate,
    and its maximum over splits is the hop's closed-form optimum: hop 1's
    (the first-hop bound) for both schemes, and hop 2's for coop. A cell
    reaching the smaller cap is optimal."""

    @staticmethod
    def certified(scheme, monkeypatch):
        """How many of the 102 Fig. 4/5 points the search settles at the
        smaller cap. On them and on 600 seeded draws the rate never exceeds
        that cap, and a settled rate is the cap, at the cap's split."""
        grids = []

        def counting(lines):  # counts the scored grids, not the scalar LPs
            if isinstance(lines[0][2], np.ndarray):
                grids.append(lines)
            return _greedy(lines)

        monkeypatch.setattr(schemes, "_greedy", counting)
        # the 102 Fig. 4/5 networks: alpha2 = eta2 on 0:1:0.02, P2 = P1/2
        figures = [figure(p1_db, k * 0.02) for p1_db in (3.0, 10.0) for k in range(51)]
        certified = 0
        for k, params in enumerate(figures + seeded_networks(5, 600, variants=True)):
            grids.clear()
            result = scheme(params)
            bound = first_hop_upper_bound(params)
            coop2 = _Row(params).hop(2, _coop_gains)
            cap2 = coop2.value * params.rate_scale() if scheme is coop else math.inf
            assert result.rate <= min(bound.rate, cap2) + 1e-12, params
            if len(grids) <= 2:  # the probe or the full row reached the smaller cap
                assert result.rate == pytest.approx(min(bound.rate, cap2), abs=1e-12), params
                if bound.rate <= cap2:
                    assert result.split_hop1 == bound.split_hop1, params
                else:
                    assert result.split_hop2 == coop2.split, params
                certified += k < len(figures)
        return certified

    @pytest.mark.parametrize("scheme,expected", [(mcp, 88)])
    def test_capped_by_and_certified_at_first_hop_bound(self, scheme, expected, monkeypatch):
        assert self.certified(scheme, monkeypatch) == expected

    def test_coop_capped_by_and_certified_at_either_hop_optimum(self, monkeypatch):
        # hop 2's optimum is the smaller cap at all 102 points
        assert self.certified(coop, monkeypatch) == 102

    @pytest.mark.parametrize("p1_db,a2,grid_rate,rise", [
        (10.0, 0.38, 1.5655020171308842, 4.01e-5),
        (3.0, 0.54, 0.8418134148181078, 2.35e-7),
    ])
    def test_mcp_reaches_first_hop_bound_above_the_grid(self, p1_db, a2, grid_rate, rise):
        # Fig. 5 alpha2 = 0.38 and Fig. 4 alpha2 = 0.54: the two largest
        # moves on the figure grids, pinned against the four-pass grid's rate
        params = figure(p1_db, a2)
        rate = mcp(params).rate
        assert rate == pytest.approx(first_hop_upper_bound(params).rate, abs=1e-12)
        assert rate - grid_rate == pytest.approx(rise, rel=1e-2)

    @pytest.mark.parametrize("a2,grid_rate,rise", [
        (0.56, 1.083653035078973, 1.91e-5),
        (0.34, 1.2347234608643762, 1.31e-5),
    ])
    def test_coop_reaches_hop_2_optimum_above_the_grid(self, a2, grid_rate, rise):
        # Fig. 5 alpha2 = 0.56 and 0.34: the two largest coop moves on the
        # figure grids, pinned against the four-pass grid's rate
        params = figure(10.0, a2)
        rate = coop(params).rate
        assert rate == pytest.approx(_Row(params).hop(2, _coop_gains).value, abs=1e-12)
        assert rate - grid_rate == pytest.approx(rise, rel=1e-2)


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


def _short(points):
    return pytest.mark.xfail(strict=True, raises=AssertionError,
                             reason=f"the joint split grid falls {points} short of the "
                                    "model's optimum")


@pytest.mark.parametrize("scheme,hop2_region,params,f1,f2", [
    pytest.param(mcp, hop2_mcp_region, figure(3.0, 0.06), 0.5834042652180698,
                 0.9325636739663352, marks=_short("9.37e-4"), id="mcp-3dB"),
    pytest.param(mcp, hop2_mcp_region, figure(10.0, 0.04), 0.812351807340506,
                 0.9503666416569473, marks=_short("2.88e-4"), id="mcp-10dB"),
    pytest.param(coop, hop2_coop_region, figure(10.0, 0.56), 0.231, 0.21367666971312876,
                 id="coop-10dB"),
    pytest.param(coop, hop2_coop_region, DRAW_950, 0.14932949536, 0.22451997922,
                 marks=_short("7.45e-4"), id="coop-draw950"),
    pytest.param(mcp, hop2_mcp_region, DRAW_928, 0.27676951012, 0.92233951828,
                 marks=_short("1.885e-3"), id="mcp-draw928"),
])
def test_joint_split_reaches_witness(scheme, hop2_region, params, f1, f2):
    # any split pair's max sum rate is a lower bound on the scheme's optimum;
    # the pairs come from a multi-start refined scan, on the Fig. 4/5 configs
    # and on seeded draws
    witness = max_sum_rate(hop1_region(params, HopSplit(f1)),
                           hop2_region(params, HopSplit(f2))).value
    assert scheme(params).rate >= witness - 1e-12


def rs_fractions(params):
    """The private fractions (f1, f2) of rate splitting's two hop splits."""
    result = rate_splitting(params)
    return result.split_hop1.f_private, result.split_hop2.f_private


class TestOptimalPrivateFraction:
    def test_no_cross_gain_all_private(self):
        assert rs_fractions(CLEAN) == (1.0, 1.0)

    def test_two_user_branch_stationary_point(self):
        # a = 0.5, b = 1, c = 2, P = 2, D0 = 3: the 2-user branch peaks
        # at x = ((b - 2a) D0 + b) / (2 (a c D0 + a b - b c)) = 1/3, f = 1/6.
        f1, f2 = rs_fractions(symmetric(0.5, 2.0))
        assert f1 == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert f2 == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_symmetric_case_matches_both_hops(self):
        for a2 in (0.2, 0.6, 0.9):
            f1, f2 = rs_fractions(symmetric(a2, 2.0))
            assert f1 == f2

    def test_threshold_shrinks_with_power(self):
        def threshold(p):
            for a2 in np.arange(0.0, 1.0001, 0.02):
                f1, _ = rs_fractions(symmetric(float(a2), p))
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


def max_over_roots_vsi_threshold(beta2, p1, method):
    """``vsi_threshold`` in its former form, kept as a reference: the largest
    of every inequality's root, the printed terms and the beta2 floor."""
    if not (math.isfinite(beta2) and math.isfinite(p1) and beta2 > 0.0 and p1 > 0.0):
        raise ValueError(f"vsi_threshold needs finite positive beta2 and p1, "
                         f"got beta2={beta2!r}, p1={p1!r}")
    if method == "paper":
        two_user = beta2 * max(p1 / 2.0 + 1.0, beta2 * p1 + 1.0)
        three_user = beta2 * (2.0 + 3.0 * p1 + beta2 * beta2 * p1)
        threshold = max(beta2, two_user, three_user)
    else:
        x = beta2 * p1
        threshold = max(beta2, beta2 * (1.0 + x), beta2 * (1.0 + 0.5 * x),
                        beta2 * (1.0 + 1.5 * x + 0.5 * x * x))
    if not math.isfinite(threshold):
        raise ValueError(f"vsi threshold overflows a float at beta2={beta2!r}, p1={p1!r}")
    return threshold


def own_pattern_vsi_check(alpha2, beta2, p1):
    """``vsi_check`` in its former form, kept as a reference: it also tests
    the own-codeword bound and reports only cross-involving ones."""
    target = capacity(beta2 * p1)
    ok, binding, worst = True, "", math.inf
    for n_own, n_cross, label in ((1, 0, "common-1user-own"), (0, 1, "common-1user-cross"),
                                  (1, 1, "common-2user-mixed"), (0, 2, "common-2user-cross"),
                                  (1, 2, "common-3user")):
        slack = capacity((n_own * beta2 + n_cross * alpha2) * p1) / (n_own + n_cross) - target
        if slack < -1e-12:
            ok = False
        if n_cross >= 1 and slack < worst:
            worst, binding = slack, label
    return ok, binding


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestVsiClosedForms:
    def test_match_max_over_roots_forms_on_seeded_draws(self):
        # half the draws uniform, half log-uniform over 1e-300..1e150 (where
        # thresholds and gain-times-power sums overflow); vsi_check at, one
        # ulp below and one ulp above each threshold, refused where the
        # three-user sum overflows or beta2 * p1 is below the smallest normal float
        rng = np.random.default_rng(24)
        checked = refused = 0
        for k in range(10000):
            if k % 2:
                beta2, p1 = (float(10.0 ** rng.uniform(-300.0, 150.0)) for _ in range(2))
            else:
                beta2, p1 = float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 20.0))
            for method in ("exact", "paper"):
                want = outcome(max_over_roots_vsi_threshold, beta2, p1, method)
                assert outcome(vsi_threshold, beta2, p1, method) == want, (beta2, p1, method)
                if want.startswith("ValueError"):
                    continue
                t = float(want)
                for alpha2 in (t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)):
                    if not math.isfinite((2.0 * alpha2 + beta2) * p1):
                        with pytest.raises(ValueError, match="alpha2"):
                            vsi_check(alpha2, beta2, p1)
                        continue
                    if beta2 * p1 < sys.float_info.min:
                        with pytest.raises(ValueError, match="vsi check: beta2"):
                            vsi_check(alpha2, beta2, p1)
                        refused += 1
                        continue
                    hop = (alpha2, beta2, p1)
                    assert vsi_check(*hop) == own_pattern_vsi_check(*hop), hop
                    checked += 1
        assert checked > 30000 and refused > 0


class TestVsiCheck:
    def test_tight_at_exact_threshold(self):
        ok, binding = vsi_check(3.0, 1.0, 1.0)
        assert ok and binding == "common-3user"

    def test_fails_just_below(self):
        ok, binding = vsi_check(2.9, 1.0, 1.0)
        assert not ok and binding == "common-3user"

    def test_fails_without_cross_gain(self):
        ok, _ = vsi_check(0.0, 1.0, 1.0)
        assert not ok

    @pytest.mark.parametrize("p1", [1.0, 1e-15, 1e-100, 1e-300, sys.float_info.min])
    def test_verdict_relative_to_target_at_any_power(self, p1):
        # the verdict is relative to the target rate C(beta2 * p1), so it
        # holds also where that rate is far below 1e-12
        t = vsi_threshold(1.0, p1, method="exact")
        for alpha2, want in ((0.0, False), (0.5 * t, False), (0.99 * t, False),
                             (t, True), (t * (1.0 + 1e-12), True)):
            assert vsi_check(alpha2, 1.0, p1)[0] is want, (p1, alpha2)

    @pytest.mark.parametrize("beta2,p1", [(1.0, 1e-321), (1.0, 1e-323), (1e-200, 1e-200),
                                          (1.0, math.nextafter(sys.float_info.min, 0.0))])
    def test_subnormal_target_is_refused(self, beta2, p1):
        # below the smallest normal float the products lose their relative
        # precision: at beta2 = 1 and p1 = 1e-323, 0.99 * p1 rounds to p1
        for alpha2 in (0.0, 0.99 * beta2, 1e300):
            with pytest.raises(ValueError, match="is below 2.22507e-308"):
                vsi_check(alpha2, beta2, p1)

    @pytest.mark.parametrize("alpha2,beta2,p1,match", [
        (-1.0, 1.0, 1.0, "alpha2 must be"), (math.nan, 1.0, 1.0, "alpha2 must be"),
        (math.inf, 1.0, 1.0, "alpha2 must be"), (1.0, 0.0, 1.0, r"beta2\*p1 = 0.0\*1.0 is below"),
        (1.0, -1.0, 1.0, "beta2 must be"), (1.0, math.inf, 1.0, "beta2 must be"),
        (1.0, 1.0, 0.0, r"beta2\*p1 = 1.0\*0.0 is below"), (1.0, 1.0, -1.0, "p1 must be"),
        (1.0, 1.0, math.nan, "p1 must be"), (1.0, -1.0, -1.0, "beta2 must be"),
        (1e308, 1.0, 1.0, r"overflows a float at alpha2=1e\+308"),
        (0.0, 1e308, 10.0, r"overflows a float at alpha2=0.0, beta2=1e\+308")],
        ids=["alpha2-negative", "alpha2-nan", "alpha2-inf", "beta2-zero", "beta2-negative",
             "beta2-inf", "p1-zero", "p1-negative", "p1-nan", "both-negative",
             "sum-overflow-alpha2", "sum-overflow-beta2"])
    def test_invalid_hop_is_refused(self, alpha2, beta2, p1, match):
        # the refusals a network made for vsi_check; with both negative the
        # product beta2 * p1 = 1 would pass the subnormal-target check
        with pytest.raises(ValueError, match=match):
            vsi_check(alpha2, beta2, p1)


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
        # Every scheme on seeded draws: half duplex is exactly half of full
        # duplex, and with power boost exactly half of it at doubled powers.
        for params in seeded_networks(31, 60):
            half = replace(params, duplex="half")
            boosted = replace(half, power_boost=True)
            doubled = replace(params, p1=2.0 * params.p1, p2=2.0 * params.p2)
            for scheme in (single_rate, rate_splitting, coop, mcp, first_hop_upper_bound):
                assert scheme(half).rate == 0.5 * scheme(params).rate, (scheme, params)
                assert scheme(boosted).rate == 0.5 * scheme(doubled).rate, (scheme, params)


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
