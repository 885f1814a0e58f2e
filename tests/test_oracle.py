import functools
import math
import sys
from collections.abc import Callable
from dataclasses import astuple, replace
from fractions import Fraction
from itertools import combinations, product
from typing import NamedTuple

import mpmath
import numpy as np
import pytest

from meshrates import oracle, polytope, regions, schemes
from meshrates.model import HopSplit, NetworkParams
from meshrates.oracle import (
    certified_midpoint,
    dense_split_scan,
    full_mac_region_hop1,
    grid_max_sum,
    mcp_reference_integrands,
    riemann_integral,
    run_suite,
    subset_bounds,
    vsi_exact_solve,
)
from meshrates.polytope import contains, max_sum_rate, vertices
from meshrates.regions import (
    Halfspace,
    RateRegion,
    hop1_region,
    hop2_coop_region,
    hop2_rs_region,
    mac_bounds,
)

FIG2 = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=2.0)
HALF = HopSplit(0.5)


class TestFullMacRegion:
    def test_fifteen_subset_inequalities(self):
        region = full_mac_region_hop1(FIG2, HALF)
        assert len(region.halfspaces) == 15

    def test_subsets_in_combinations_order(self):
        region = full_mac_region_hop1(FIG2, HALF)
        assert [(h.coef_private, h.coef_common, h.label) for h in region.halfspaces] == [
            (1, 0, "mac:p"), (0, 1, "mac:cm"), (0, 1, "mac:cm-1"), (0, 1, "mac:cm+1"),
            (1, 1, "mac:p+cm"), (1, 1, "mac:p+cm-1"), (1, 1, "mac:p+cm+1"),
            (0, 2, "mac:cm+cm-1"), (0, 2, "mac:cm+cm+1"), (0, 2, "mac:cm-1+cm+1"),
            (1, 2, "mac:p+cm+cm-1"), (1, 2, "mac:p+cm+cm+1"), (1, 2, "mac:p+cm-1+cm+1"),
            (0, 3, "mac:cm+cm-1+cm+1"), (1, 3, "mac:p+cm+cm-1+cm+1")]
        assert region.provenance == "mac15(alpha2=0.4, beta2=1, p_private=1, p_common=1)"

    def test_matches_reduced_region_in_paper_regime(self):
        rng = np.random.default_rng(12)
        for k in range(50):
            beta2 = float(rng.uniform(0.2, 2.5))
            kwargs = dict(alpha2=float(rng.uniform(0.0, beta2)), beta2=beta2,
                          gamma2=1.0, eta2=0.0, p1=float(rng.uniform(0.05, 20.0)), p2=1.0)
            split = HopSplit(float(rng.uniform(0.0, 1.0)))
            # every other draw also as a boosted half-duplex network, whose
            # reference must see the doubled power too
            boosted = [NetworkParams(**kwargs, duplex="half", power_boost=True)] if k % 2 else []
            for params in [NetworkParams(**kwargs), *boosted]:
                fast = hop1_region(params, split)
                reference = full_mac_region_hop1(params, split)
                for v in vertices(fast):
                    assert contains(reference, v, tol=1e-9)
                for v in vertices(reference):
                    assert contains(fast, v, tol=1e-9)

    def test_zero_cross_gain_forces_common_to_zero(self):
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=1.0)
        region = full_mac_region_hop1(params, HALF)
        assert max(v.r_common for v in vertices(region)) == 0.0

    def test_strictly_smaller_outside_paper_regime(self):
        # alpha2 > beta2: the adjacent-cell single-common bound cuts into the
        # reduced region, so some reduced-region vertex falls outside.
        params = NetworkParams(alpha2=3.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=1.0)
        fast = hop1_region(params, HALF)
        reference = full_mac_region_hop1(params, HALF)
        assert any(not contains(reference, v, tol=1e-9) for v in vertices(fast))


# Each weight set of ``subset_bounds`` with the number of codewords, and so
# of shares of its common power, that each sender transmits.
WEIGHTS = {"own": ((1,), 1), "coop": ((1, 1), 3)}


def _domain():
    """(cross2, intra2, p_private, p_common) columns over every gain pair of
    {0, 5e-324, 1e-310, 1e-300, 0.3, 2, 1e100}, power in {5e-324, 1e-300,
    1e-20, 1e-10, 1, 1e100, 1e200} and split f in {0, 0.3, 1}. Each row is a
    network that ``NetworkParams`` accepts, with both hops alike."""
    gains = (0.0, 5e-324, 1e-310, 1e-300, 0.3, 2.0, 1e100)
    powers = (5e-324, 1e-300, 1e-20, 1e-10, 1.0, 1e100, 1e200)
    rows = []
    for cross2, intra2, power, f in product(gains, gains, powers, (0.0, 0.3, 1.0)):
        params = NetworkParams(alpha2=cross2, beta2=intra2, gamma2=intra2, eta2=cross2,
                               p1=power, p2=power)
        cross2, intra2, total = params.hop(1)
        rows.append((cross2, intra2, *HopSplit(f).powers(total)))
    return np.array(rows).T


def _mp_subset_bounds(cross2, intra2, p_private, p_common, weights, shares):
    """``subset_bounds``' fifteen bounds at 40 digits, from the exact values
    of the float inputs: log1p, since log(1 + x) loses an x below 1e-40."""
    with mpmath.workdps(40):
        g, e = mpmath.sqrt(intra2), mpmath.sqrt(cross2)
        private, common = oracle._amplitudes(g, e, (1,)), oracle._amplitudes(g, e, weights)
        p_private, p_common = mpmath.mpf(p_private), mpmath.mpf(p_common)
        noise = 1 + 2 * (private[1] ** 2 * p_private + common[2] ** 2 * p_common / shares)
        signals = (private[0] ** 2 * p_private, common[0] ** 2 * p_common / shares,
                   common[1] ** 2 * p_common / shares, common[1] ** 2 * p_common / shares)
        subsets = [s for k in range(1, 5) for s in combinations(range(4), k)]
        return [float(mpmath.log1p(mpmath.fsum(signals[i] for i in s) / noise) / mpmath.ln(2))
                for s in subsets]


def _relative_errors(got, want):
    """|got - want| relative to want, floored at the smallest normal float."""
    return np.abs(got - want) / np.maximum(np.abs(want), sys.float_info.min)


class TestSubsetBounds:
    """``subset_bounds`` over gains and powers from 0 and subnormals to 1e100
    and 1e200: within 1e-15 relative of a 40-digit evaluation, and its five
    reduced hop-1 subsets equal ``mac_bounds``."""

    @pytest.mark.parametrize("name", WEIGHTS)
    def test_within_1e_15_of_40_digits(self, name):
        weights, shares = WEIGHTS[name]
        columns = _domain()
        _, _, bounds = subset_bounds(*columns, weights)
        exact = np.array([_mp_subset_bounds(*row, weights, shares) for row in columns.T.tolist()])
        assert _relative_errors(bounds, exact).max() <= 1e-15

    def test_hop1_reduction_equals_mac_bounds(self):
        columns = _domain()
        _, labels, bounds = subset_bounds(*columns, (1,))
        reduced = {(1, 0): "mac:p", (0, 2): "mac:cm-1+cm+1", (0, 3): "mac:cm+cm-1+cm+1",
                   (1, 2): "mac:p+cm-1+cm+1", (1, 3): "mac:p+cm+cm-1+cm+1"}
        fast = mac_bounds(*columns)
        assert fast.keys() == reduced.keys()
        for key, label in reduced.items():
            assert _relative_errors(bounds[:, labels.index(label)], fast[key]).max() <= 1e-15

    def test_one_row_per_batch_row(self):
        columns = _domain()[:, ::37]
        for weights, _ in WEIGHTS.values():
            coefs, labels, batch = subset_bounds(*columns, weights)
            assert batch.shape == (columns.shape[1], 15) == (columns.shape[1], len(coefs))
            for row, bounds in zip(columns.T.tolist(), batch):
                assert subset_bounds(*row, weights)[2].tolist() == bounds.tolist()


class TestGridMaxSum:
    def test_unit_box_coarse(self):
        from meshrates.regions import Halfspace, RateRegion
        box = RateRegion(halfspaces=(Halfspace(1, 0, 1.0, "p"), Halfspace(0, 1, 1.0, "c")),
                         provenance="custom()")
        assert grid_max_sum(box, step=0.5) == 2.0

    def test_hand_lp_example_within_grid_resolution(self):
        from meshrates.regions import Halfspace, RateRegion
        region = RateRegion(halfspaces=(
            Halfspace(1, 0, 1.0, "p"), Halfspace(0, 1, 0.5, "c"),
            Halfspace(1, 2, 1.5, "s2"), Halfspace(1, 3, 1.8, "s3")),
            provenance="custom()")
        step = 1e-3
        assert abs(grid_max_sum(region, step) - 1.25) <= 2 * step

    def test_random_regions_gap_bound(self):
        rng = np.random.default_rng(5)
        step = 2e-3
        for _ in range(10):
            params = NetworkParams(alpha2=float(rng.uniform(0.0, 1.0)), beta2=1.0,
                                   gamma2=1.0, eta2=0.0,
                                   p1=float(rng.uniform(0.1, 10.0)), p2=1.0)
            region = hop1_region(params, HopSplit(float(rng.uniform(0.0, 1.0))))
            gap = max_sum_rate(region).value - grid_max_sum(region, step)
            assert 0.0 <= gap <= 5 * step

    def test_bad_step(self):
        with pytest.raises(ValueError):
            grid_max_sum(hop1_region(FIG2, HALF), step=0.0)

    @pytest.mark.parametrize("lines,step,expected", [
        # every line passes through lattice points
        ([(1, 0, 1.0), (0, 1, 0.75), (1, 1, 1.5), (1, 2, 2.0)], 0.25, 1.5),
        # zero common bound: the lattice is one column, rc == [0.0]
        ([(1, 0, 1.3), (0, 1, 0.0), (1, 1, 2.0)], 0.1, 1.3),
        # the last lattice row, 1.2, lies past the private bound 1.1
        ([(1, 0, 1.1), (0, 1, 1.0), (1, 2, 2.0)], 0.4, 1.2),
        # bounds 1e-12 under lattice sums: with the test's 1e-12 slack, a
        # point on the line passes or fails by rounding alone
        ([(1, 0, 3.9 - 1e-12), (0, 1, 3.9 - 1e-12), (3, 3, 3.9 - 1e-12)], 0.1, 1.2),
        ([(1, 0, 2.8 - 1e-12), (0, 1, 2.8 - 1e-12), (2, 2, 2.8 - 1e-12)], 0.1, 1.4),
        # a subnormal common coefficient: the line's intercept lies past the
        # float range, and every lattice point passes it
        ([(1, 0, 1.0), (0, 1, 1.0), (1, 1e-320, 1.5)], 0.01, 2.0),
    ], ids=["through-lattice-points", "zero-common-bound", "row-past-bound",
            "seed-column-over", "seed-column-short", "subnormal-coefficient"])
    def test_same_float_as_mask_on_hand_regions(self, lines, step, expected):
        region = RateRegion(halfspaces=tuple(Halfspace(a, b, c, f"h{i}")
                                             for i, (a, b, c) in enumerate(lines)),
                            provenance="custom()")
        assert grid_max_sum(region, step) == pytest.approx(expected, abs=1e-12)

    def test_negative_coefficient_is_refused(self):
        # the lattice spans the axes' smallest intercepts, which bound only a
        # down-closed region, and a halfspace outside that domain cannot be built
        with pytest.raises(ValueError, match="non-negative"):
            Halfspace(1, -1, 0.5, "tilt")


class TestRiemannIntegral:
    def test_constant(self):
        assert riemann_integral(lambda f: np.ones_like(f), 10) == 1.0

    def test_full_period_cosine(self):
        assert abs(riemann_integral(lambda f: np.cos(2 * np.pi * f), 1_000_000)) < 1e-10

    def test_reference_integrand_value(self):
        fns = mcp_reference_integrands(0.25, 1.0, 1.0, 0.0)
        value, ref_err, _ = certified_midpoint(fns["private"])
        assert ref_err <= 1e-14
        assert value == pytest.approx(1.0621925376590453, abs=1e-10)

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            riemann_integral(lambda f: f, 1)


class TestCertifiedMidpoint:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_low_cosine_stops_at_first_doubling(self, k):
        value, ref_err, n_nodes = certified_midpoint(lambda f: np.cos(2 * np.pi * k * f))
        assert n_nodes == 2 * oracle.MIDPOINT_FIRST_NODES
        assert abs(value) <= 1e-16
        assert ref_err <= oracle.MIDPOINT_AGREEMENT

    def test_non_smooth_integrand_hits_cap_and_reports_error(self):
        _, ref_err, n_nodes = certified_midpoint(lambda f: np.abs(f - 0.3) ** 0.5)
        assert n_nodes == oracle.MIDPOINT_MAX_NODES
        assert ref_err > oracle.MIDPOINT_AGREEMENT

    def test_matches_million_node_rule_on_mcp_draws(self):
        rng = np.random.default_rng(41)
        for _ in range(2):
            params = oracle._draw_params(rng)
            p_private, p_common = HopSplit(float(rng.uniform(0.0, 1.0))).powers(params.p2)
            fns = mcp_reference_integrands(params.eta2, params.gamma2, p_private, p_common)
            for fn in fns.values():
                value, ref_err, _ = certified_midpoint(fn)
                assert ref_err <= oracle.MIDPOINT_AGREEMENT
                assert abs(value - riemann_integral(fn, 1_000_000)) <= 1e-15


class TestMcpReferenceIntegrands:
    @staticmethod
    def complex_integrands(cross2, intra2, p_private, p_common):
        """The responses as sums of complex exponentials over the taps: the
        reference for the cosine series."""
        g = math.sqrt(intra2)
        e = math.sqrt(cross2)
        per_code = p_common / 3.0

        def h_private(f):
            return g + e * (np.exp(2j * np.pi * f) + np.exp(-2j * np.pi * f)).real

        def h_common(f):
            phases = [np.exp(2j * np.pi * k * f) for k in (-2, -1, 0, 1, 2)]
            taps = [e, g + e, g + 2 * e, g + e, e]
            return sum(t * p for t, p in zip(taps, phases)).real

        ln2 = math.log(2.0)
        return {
            "private": lambda f: np.log1p(p_private * h_private(f) ** 2) / ln2,
            "common": lambda f: np.log1p(per_code * h_common(f) ** 2) / ln2,
            "sum": lambda f: np.log1p(p_private * h_private(f) ** 2
                                      + per_code * h_common(f) ** 2) / ln2,
        }

    def test_cosine_series_matches_complex_exponentials(self):
        # 1e-14 of the integrand's largest value at the nodes
        nodes = (np.arange(2 ** 11) + 0.5) / 2 ** 11
        rng = np.random.default_rng(44)
        for _ in range(200):
            gamma2 = float(rng.uniform(0.2, 2.5))
            eta2 = float(rng.uniform(0.0, 5.0))
            power = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
            p_private, p_common = HopSplit(float(rng.uniform(0.0, 1.0))).powers(power)
            args = (eta2, gamma2, p_private, p_common)
            fast, reference = mcp_reference_integrands(*args), self.complex_integrands(*args)
            for name in ("private", "common", "sum"):
                got, want = fast[name](nodes), reference[name](nodes)
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), (name, args)

    @pytest.mark.parametrize("power", [1e-16, 1e-100, 1e-300])
    def test_low_power_sums_meet_their_parseval_slopes(self, power):
        # At x far below 1, log2(1 + x) is x/ln 2, and |H(f)|^2 is a cosine
        # series whose mean over [0, 1] is the taps' energy (Parseval), which
        # the midpoint rule sums exactly. Each integral is then its power
        # times that energy over ln 2, within a few ulps of rounding, where
        # forming 1 + x would round x away.
        eta2, gamma2 = 0.3, 0.1
        g, e = math.sqrt(gamma2), math.sqrt(eta2)
        private = math.fsum(t * t for t in (e, g, e))
        common = math.fsum(t * t for t in (e, g + e, g + 2 * e, g + e, e)) / 3.0
        fns = mcp_reference_integrands(eta2, gamma2, power, power)
        slopes = {"private": private, "common": common, "sum": private + common}
        for name, energy in slopes.items():
            value, _, _ = certified_midpoint(fns[name])
            slope = power * energy / math.log(2.0)
            assert abs(value - slope) <= 1e-15 * slope, (name, value, slope)


class TestDenseSplitScan:
    def test_matches_optimizer(self):
        f, rate = dense_split_scan(FIG2, hop=1, step=1e-3)
        assert rate == pytest.approx(0.8241901098274349, abs=1e-12)
        assert f == pytest.approx(0.805, abs=1e-9)
        assert schemes.first_hop_upper_bound(FIG2).rate == pytest.approx(rate, abs=5e-3)

    def test_bad_hop(self):
        with pytest.raises(ValueError):
            dense_split_scan(FIG2, hop=0)

    @staticmethod
    def loop_scan(params, hop, step):
        """One fraction at a time, in scalar ``np.log1p`` calls, keeping the
        last maximum: the reference for the array scan."""
        if hop == 1:
            cross2, intra2, total = params.alpha2, params.beta2, params.p1
        else:
            cross2, intra2, total = params.eta2, params.gamma2, params.p2
        best_f, best_v = 0.0, -math.inf
        ln2 = math.log(2.0)
        n = round(1.0 / step)
        for i in range(n + 1):
            f = i / n
            pp = f * total
            pc = total - pp
            private_noise = 1.0 + 2.0 * cross2 * pp
            common_noise = private_noise + intra2 * pp
            stage1 = min(
                np.log1p(2.0 * cross2 * pc / common_noise) / ln2 / 2.0,
                np.log1p((2.0 * cross2 + intra2) * pc / common_noise) / ln2 / 3.0,
            )
            stage2 = np.log1p(intra2 * pp / private_noise) / ln2
            v = stage1 + stage2
            if v >= best_v:
                best_f, best_v = f, v
        return best_f, best_v

    @pytest.mark.parametrize("step", [1e-3, 1e-2])
    @pytest.mark.parametrize("paper_regime", [True, False], ids=["in-regime", "out-of-regime"])
    def test_same_floats_as_loop(self, paper_regime, step):
        for seed in range(100):
            params = oracle._draw_params(np.random.default_rng([seed, 99]), paper_regime)
            for hop in (1, 2):
                assert dense_split_scan(params, hop, step) == self.loop_scan(params, hop, step)

    @pytest.mark.parametrize("power", [1e-10, 1e-16, 1e-100])
    def test_low_power_hop_rate_equals_the_hop_optimum(self, power):
        # log2(1 + x) read 0.0 at P <= 1e-16 here, where the optimum is 1.4427*P
        params = NetworkParams(alpha2=0.3, beta2=1.0, gamma2=0.1, eta2=0.3, p1=power, p2=power)
        _, rate = dense_split_scan(params, hop=1)
        assert rate == pytest.approx(schemes._Row(params).hop(1).value, rel=1e-12, abs=0.0)

    def test_tied_maximum_resolves_to_largest_fraction(self):
        # no gain on hop 1: every fraction gives rate 0
        params = NetworkParams(alpha2=0.0, beta2=0.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=1.0)
        assert dense_split_scan(params, 1, 1e-2) == self.loop_scan(params, 1, 1e-2) == (1.0, 0.0)


class TestVsiExactSolve:
    def test_reference_point(self):
        assert vsi_exact_solve(1.0, 1.0) == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("beta2,p1", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0)])
    def test_non_positive_inputs_refused(self, beta2, p1):
        with pytest.raises(ValueError, match="needs positive beta2 and p1"):
            vsi_exact_solve(beta2, p1)

    def test_small_power_limit(self):
        assert vsi_exact_solve(1.0, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_agrees_with_scheme_threshold(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            beta2 = float(rng.uniform(0.1, 3.0))
            p1 = float(rng.uniform(0.01, 20.0))
            assert vsi_exact_solve(beta2, p1) == pytest.approx(
                schemes.vsi_threshold(beta2, p1, method="exact"), abs=1e-12)

    def test_bisection_certificate(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            beta2 = float(rng.uniform(0.1, 3.0))
            p1 = float(rng.uniform(0.01, 20.0))
            threshold = vsi_exact_solve(beta2, p1)
            assert schemes.vsi_check(threshold, beta2, p1)[0]
            assert not schemes.vsi_check(0.99 * threshold, beta2, p1)[0]

    @staticmethod
    def fraction_threshold(beta2, p1):
        """The threshold in exact rational arithmetic, rounded once to a float."""
        x, p = Fraction(beta2) * Fraction(p1), Fraction(p1)
        exact = max(((1 + x) ** (n_own + n_cross) - 1 - n_own * x) / (n_cross * p)
                    for n_own, n_cross in ((0, 1), (1, 1), (0, 2), (1, 2)))
        try:
            return float(exact)
        except OverflowError:
            return math.inf

    def test_matches_exact_rationals_at_every_power(self):
        # at a fixed 60 digits 1 + beta2*p1 rounded to 1 and these read 0.0
        assert vsi_exact_solve(3.0, 1e-200) == 3.0
        assert vsi_exact_solve(2.0, 5e-324) == 2.0
        rng = np.random.default_rng(21)
        for _ in range(3000):
            beta2, p1 = (float(10.0 ** rng.uniform(-300.0, 100.0)) for _ in range(2))
            assert vsi_exact_solve(beta2, p1) == self.fraction_threshold(beta2, p1), (beta2, p1)

    @pytest.mark.parametrize("seed", [3697, 4135, 4807])
    def test_agree_check_passes_where_float_reference_drifted(self, seed):
        # solved in floats, the reference is up to 214 ulps off at these
        # seeds, past the 1e-12 gate
        report = oracle._check_vsi_exact_agree(seed)
        assert report.passed, report.line()


def _scaled_bounds(region, factor):
    return RateRegion(tuple(h._replace(bound=h.bound * factor) for h in region.halfspaces),
                      region.provenance)


def _scaled(bounds, factor):
    return {key: bound * factor for key, bound in bounds.items()}


def _raise(*_):
    raise AssertionError("a reference called the fast path it certifies")


def _patch(monkeypatch, home, name, value):
    """Set ``name`` to ``value`` in ``home`` and in every module, and every
    ``schemes.SCHEMES`` entry (the ones ``schemes.evaluate`` calls), that
    holds the same object."""
    original = getattr(home, name)
    for target in (home, polytope, regions, schemes, oracle):
        if getattr(target, name, None) is original:
            monkeypatch.setattr(target, name, value)
    for scheme, fn in list(schemes.SCHEMES.items()):
        if fn is original:
            monkeypatch.setitem(schemes.SCHEMES, scheme, value)


def _patch_fast_paths(monkeypatch, fast_paths):
    """Make each (home module, name) raise, in every module that holds it."""
    for home, name in fast_paths:
        _patch(monkeypatch, home, name, _raise)


class Mutant(NamedTuple):
    """A wrong version of one library name: ``patch`` maps its original value
    to the mutant's, which keeps its shapes. ``fails`` lists the checks that
    report FAIL in ``run_suite(seed=0)`` under it, in suite order; where no
    check does, ``unseen`` says why."""

    home: object
    name: str
    patch: Callable
    fails: str
    unseen: str = ""


def _on_result(mutate):
    """A mutant that changes a function's result: ``mutate`` takes the
    result and the call's arguments."""
    return lambda original: lambda *args, **kwargs: mutate(original(*args, **kwargs),
                                                           *args, **kwargs)


def _per_root(phis, factors):
    """``_phi``'s values times one factor per root, for a (5,) or (5, n) array."""
    return phis * np.reshape(factors, (5,) + (1,) * (phis.ndim - 1))


def _dropping(key):
    return _on_result(lambda lines, *_: tuple(h for h in lines if h[:2] != key))


def _vsi(form, formula):
    """``vsi_threshold`` with its ``form`` method replaced by ``formula(beta2, p1)``."""
    return lambda original: lambda beta2, p1, method="exact": (
        formula(beta2, p1) if method == form else original(beta2, p1, method))


def _tie_to_hop2(original):
    """``rate_splitting`` that gives a tie of the two hop values to hop 2."""
    def rate_splitting(params, row=None):
        row = row or schemes._Row(params)
        hop1, hop2 = row.hop(1), row.hop(2)
        return schemes._result(schemes.SCHEME_RS, params,
                               (hop1 if hop1.value < hop2.value else hop2).lp,
                               split_hop1=hop1.split, split_hop2=hop2.split,
                               bottleneck_hop=schemes._bottleneck(hop1.value, hop2.value))
    return rate_splitting


def _unclipped(original):
    """``_greedy`` whose grid form does not clip y at 0."""
    def greedy(lines):
        if not isinstance(lines[0][2], np.ndarray):
            return original(lines)
        x = functools.reduce(np.minimum, [c / a for a, b, c, _ in lines if a > 0])
        y = functools.reduce(np.minimum, [(c - a * x) / b for a, b, c, _ in lines if b > 0])
        return x, y, ()
    return greedy


def _without_boost(original):
    """``NetworkParams.hop`` whose hop 2 ignores power boost."""
    def hop(params, k):
        cross2, intra2, power = original(params, k)
        return cross2, intra2, power / 2.0 if k == 2 and params.power_boost else power
    return hop


# The coverage table: each verify check is worth the mutants it catches.
MUTANTS = {
    # one per check as first written: the wrong result of the fast path it certifies
    "mac_bounds x1.01": Mutant(
        regions, "mac_bounds", _on_result(lambda bounds, *_: _scaled(bounds, 1.01)),
        "region-reduction vertex-a-sum"),
    "max_sum_rate +1e-6": Mutant(
        polytope, "max_sum_rate", _on_result(lambda lp, *_: replace(lp, value=lp.value + 1e-6)),
        "vertex-a-sum"),
    "max_sum_rate +0.1": Mutant(
        polytope, "max_sum_rate", _on_result(lambda lp, *_: replace(lp, value=lp.value + 0.1)),
        "vertex-a-sum"),
    "mcp_bounds x(1 + 1e-9)": Mutant(
        regions, "mcp_bounds", _on_result(lambda bounds, *_: _scaled(bounds, 1.0 + 1e-9)),
        "quadrature-riemann"),
    "hop2_rs_region x(1 + 1e-12)": Mutant(
        regions, "hop2_rs_region",
        _on_result(lambda region, *_: _scaled_bounds(region, 1.0 + 1e-12)),
        "substitution-symmetry"),
    "vsi_threshold x(1 + 1e-9)": Mutant(
        schemes, "vsi_threshold", _on_result(lambda t, *_, **__: t * (1.0 + 1e-9)),
        "vsi-exact-agree"),
    "vsi_check always met": Mutant(
        schemes, "vsi_check", _on_result(lambda verdict, *_: (True, verdict[1])),
        "vsi-certificate"),
    "vsi_threshold paper halved": Mutant(
        schemes, "vsi_threshold",
        _on_result(lambda t, *_, method="exact": 0.5 * t if method == "paper" else t),
        "vsi-paper-sufficient"),
    "vsi_threshold paper 0": Mutant(
        schemes, "vsi_threshold",
        _on_result(lambda t, *_, method="exact": 0.0 if method == "paper" else t),
        "vsi-paper-sufficient vsi-a2-dominates-a1"),
    "rate_splitting +0.01": Mutant(
        schemes, "rate_splitting", _on_result(lambda r, *_: replace(r, rate=r.rate + 0.01)),
        "rs-dense-grid half-duplex-halving"),
    "coop +1": Mutant(
        schemes, "coop", _on_result(lambda r, *_: replace(r, rate=r.rate + 1.0)),
        "scheme-ordering half-duplex-halving"),
    "single_rate doubled in half duplex": Mutant(
        schemes, "single_rate",
        _on_result(lambda r, params, *_: replace(r, rate=2.0 * r.rate)
                   if params.duplex == "half" else r),
        "half-duplex-halving"),
    "mcp_bounds sum 0": Mutant(
        regions, "mcp_bounds",
        _on_result(lambda bounds, *_: {**bounds, (1, 1): 0.0 * bounds[1, 1]}),
        "quadrature-riemann scheme-ordering mcp-sum-dominance"),
    "single_rate 1/p1": Mutant(
        schemes, "single_rate", _on_result(lambda r, params, *_: replace(r, rate=1.0 / params.p1)),
        "half-duplex-halving power-monotonicity"),
    "vertices drops its last": Mutant(
        polytope, "vertices", _on_result(lambda points, *_: points[:-1]),
        "vertex-walk"),
    # the max-sum LP's path
    "_hop_lines drops (1,3)": Mutant(
        regions, "_hop_lines", _dropping((1, 3)), "vertex-a-sum rs-dense-grid"),
    "_hop_lines drops (1,2)": Mutant(
        regions, "_hop_lines", _dropping((1, 2)), "vertex-a-sum rs-dense-grid"),
    "_hop_lines drops (0,2)": Mutant(
        regions, "_hop_lines", _dropping((0, 2)), "",
        "the greedy never reads it: (1,2) - x <= (0,2) at the private x; Tier-1: criterion 01"),
    "_hop_lines drops (0,3)": Mutant(
        regions, "_hop_lines", _dropping((0, 3)), "",
        "the greedy never reads it: (1,3) - x <= (0,3) at the private x; Tier-1: criterion 01"),
    "_hop_lines x1.001": Mutant(
        regions, "_hop_lines",
        _on_result(lambda lines, *_: tuple(h._replace(bound=1.001 * h.bound) for h in lines)),
        "vertex-a-sum"),
    "_hop_lines x0.999": Mutant(
        regions, "_hop_lines",
        _on_result(lambda lines, *_: tuple(h._replace(bound=0.999 * h.bound) for h in lines)),
        "vertex-a-sum rs-dense-grid scheme-ordering"),
    "_rs_bounds (1,2) reads (1,3)": Mutant(
        regions, "_rs_bounds", _on_result(lambda bounds, *_: {**bounds, (1, 2): bounds[1, 3]}),
        "region-reduction vertex-a-sum rs-dense-grid"),
    "_rs_bounds (0,2) reads (0,3)": Mutant(
        regions, "_rs_bounds", _on_result(lambda bounds, *_: {**bounds, (0, 2): bounds[0, 3]}),
        "region-reduction"),
    "_greedy y +1e-6": Mutant(
        polytope, "_greedy", _on_result(lambda point, *_: (point[0], point[1] + 1e-6, point[2])),
        "vertex-a-sum"),
    "max_sum_rate x(1 - 1e-3)": Mutant(
        polytope, "max_sum_rate",
        _on_result(lambda lp, *_: replace(lp, value=lp.value * (1.0 - 1e-3))),
        "vertex-a-sum"),
    "max_sum_rate x1.01": Mutant(
        polytope, "max_sum_rate", _on_result(lambda lp, *_: replace(lp, value=lp.value * 1.01)),
        "vertex-a-sum"),
    "max_sum_rate -0.01": Mutant(
        polytope, "max_sum_rate", _on_result(lambda lp, *_: replace(lp, value=lp.value - 0.01)),
        "vertex-a-sum"),
    "_greedy x +0.01": Mutant(
        polytope, "_greedy", _on_result(lambda point, *_: (point[0] + 0.01, *point[1:])),
        "vertex-a-sum rs-dense-grid"),
    # mcp_bounds' results
    "mcp_bounds common x1.001": Mutant(
        regions, "mcp_bounds",
        _on_result(lambda bounds, *_: {**bounds, (0, 1): 1.001 * bounds[0, 1]}),
        "quadrature-riemann"),
    "mcp_bounds private +1e-6": Mutant(
        regions, "mcp_bounds",
        _on_result(lambda bounds, *_: {**bounds, (1, 0): bounds[1, 0] + 1e-6}),
        "quadrature-riemann"),
    "mcp_bounds sum is the larger single": Mutant(
        regions, "mcp_bounds",
        _on_result(lambda bounds, *_: {**bounds, (1, 1): np.maximum(bounds[1, 0], bounds[0, 1])}),
        "quadrature-riemann"),
    # single-point edits of the fast paths, each expressed as a patch of one name
    "_mac_gains noise slope x1.01": Mutant(
        regions, "_mac_gains",
        _on_result(lambda gains, *_: gains._replace(noise_private=1.01 * gains.noise_private)),
        "region-reduction vertex-a-sum"),
    "_rs_bounds (1,3) with 0.99 three": Mutant(
        regions, "_rs_bounds",
        lambda original: lambda gains, p_private, p_common: {
            **original(gains, p_private, p_common),
            (1, 3): original(gains._replace(three=0.99 * gains.three), p_private, p_common)[1, 3]},
        "region-reduction vertex-a-sum rs-dense-grid scheme-ordering"),
    "_phi common root terms 2 -> 1.999": Mutant(
        regions, "_phi", _on_result(lambda phis, *_: _per_root(phis, (1, .9995, .9995, 1, 1))),
        "quadrature-riemann"),
    "_phi sum root terms 2 -> 1.999": Mutant(
        regions, "_phi", _on_result(lambda phis, *_: _per_root(phis, (1, 1, 1, .9995, .9995))),
        "quadrature-riemann"),
    "_phi private root x1.001": Mutant(
        regions, "_phi",
        lambda original: lambda roots: original([(1.001 * roots[0][0], 1.001 * roots[0][1]),
                                                 *roots[1:]]),
        "quadrature-riemann"),
    "_hop_split_candidates endpoints only": Mutant(
        schemes, "_hop_split_candidates", _on_result(lambda fs, *_: [fs[0], fs[-1]]),
        "rs-dense-grid"),
    "_hop_split_candidates drops the smallest interior": Mutant(
        schemes, "_hop_split_candidates",
        _on_result(lambda fs, *_: fs[:1] + fs[2:] if len(fs) > 2 else fs),
        "rs-dense-grid"),
    "_hop_split_candidates drops the largest interior": Mutant(
        schemes, "_hop_split_candidates",
        _on_result(lambda fs, *_: fs[:-2] + fs[-1:] if len(fs) > 2 else fs),
        "rs-dense-grid"),
    "vsi_threshold exact x^2 0.5 -> 0.49": Mutant(
        schemes, "vsi_threshold",
        _vsi("exact", lambda b, p: b * (1.0 + 1.5 * (b * p) + 0.49 * (b * p) * (b * p))),
        "vsi-exact-agree"),
    "_coop_gains (g + 1.9e)^2": Mutant(
        regions, "_coop_gains",
        _on_result(lambda gains, cross2, intra2: gains._replace(
            three=gains.two + (math.sqrt(intra2) + 1.9 * math.sqrt(cross2)) ** 2 / 3.0)),
        "", "no check reads coop's bounds; Tier-1: TestCoopRegionReduction"),
    "_coop_gains two-user /2.9": Mutant(
        regions, "_coop_gains",
        _on_result(lambda gains, *_: gains._replace(two=gains.two * 3.0 / 2.9)),
        "", "no check reads coop's bounds; Tier-1: TestCoopRegionReduction"),
    "_coop_gains noise_common /2.9": Mutant(
        regions, "_coop_gains",
        _on_result(lambda gains, *_: gains._replace(noise_common=gains.noise_common * 3.0 / 2.9)),
        "", "no check reads coop's bounds; Tier-1: TestCoopRegionReduction"),
    "_corner three-user /2.99": Mutant(
        regions, "_corner", _on_result(lambda corner, *_: (*corner[:2], corner[2] * 3.0 / 2.99)),
        "", "rs-dense-grid allows 5e-3 above its scan; Tier-1: TestHopSplitOptimum, criterion 02"),
    "_WINDOWS empty": Mutant(
        schemes, "_WINDOWS", lambda original: (), "",
        "no check has an optimum for coop or mcp off the cap; Tier-1: the figure CSVs"),
    "coop without its hop-2 cap": Mutant(
        schemes, "coop",
        lambda original: lambda params, row=None: schemes._joint(
            schemes.SCHEME_COOP, params, schemes.coop_bounds, row=row),
        "", "no check has an optimum for coop off the cap; Tier-1: the coop witness rows"),
    "single_rate bottleneck swapped": Mutant(
        schemes, "single_rate",
        _on_result(lambda r, *_: replace(r, bottleneck_hop={1: 2, 2: 1}.get(r.bottleneck_hop,
                                                                            r.bottleneck_hop))),
        "", "no check reads a bottleneck; Tier-1: test_bottleneck_relative_at_any_power"),
    "NetworkParams.hop(2) without boost": Mutant(
        NetworkParams, "hop", _without_boost, "",
        "verify draws no boosted network; Tier-1: TestHalfDuplex, criterion 09"),
    "_BINDING_TOL 1e-3": Mutant(
        polytope, "_BINDING_TOL", lambda original: 1e-3, "",
        "no check reads a binding; Tier-1: TestMaxSumRate and the CLI corpus"),
    "vsi_threshold paper 3.0 -> 2.9": Mutant(
        schemes, "vsi_threshold",
        _vsi("paper", lambda b, p: b * (2.0 + 2.9 * p + b * b * p)),
        "", "still above the exact root and a1 where the checks draw; Tier-1: test_printed_form"),
    "rate_splitting tie to hop 2": Mutant(
        schemes, "rate_splitting", _tie_to_hop2, "",
        "equivalent: tied hops in two records hold bit-equal LPs; Tier-1: TestRateSplittingTie"),
    "_greedy grid unclipped": Mutant(
        polytope, "_greedy", _unclipped, "",
        "equivalent: every sum bound is at least the private bound, so y >= 0 unclipped"),
}


class TestCoverageTable:
    """Each mutant of ``MUTANTS`` makes exactly its listed checks FAIL."""

    @pytest.mark.parametrize("key", MUTANTS)
    def test_failing_checks(self, monkeypatch, key):
        mutant = MUTANTS[key]
        _patch(monkeypatch, mutant.home, mutant.name,
               mutant.patch(getattr(mutant.home, mutant.name)))
        failed = [report.name for report in run_suite(seed=0) if not report.passed]
        assert failed == mutant.fails.split()
        assert bool(failed) != bool(mutant.unseen)


class TestRateSplittingTie:
    """Hops that tie in value, held in two ``_Hop`` records: with
    eta2 = 2 alpha2, gamma2 = 2 beta2 and p2 = p1/2 every gain-times-power
    product of hop 2 is hop 1's, bit for bit, but the records' keys differ."""

    def test_tie_to_hop2_is_equivalent(self):
        rng = np.random.default_rng(54)
        for k in range(2000):
            drawn = oracle._draw_params(rng, k % 2 == 0)
            params = replace(drawn, gamma2=2.0 * drawn.beta2, eta2=2.0 * drawn.alpha2,
                             p2=drawn.p1 / 2.0, duplex=("full", "half")[k % 3 == 0],
                             power_boost=k % 6 == 0)
            row = schemes._Row(params)
            hop1, hop2 = row.hop(1), row.hop(2)
            assert hop1 is not hop2
            assert ((hop1.value, hop1.split, hop1.bounds, hop1.lp)
                    == (hop2.value, hop2.split, hop2.bounds, hop2.lp)), params
            assert _tie_to_hop2(schemes.rate_splitting)(params) == schemes.rate_splitting(params)


class TestRegionReductionCheck:
    """``region-reduction`` compares each bound set's feasible line crossings
    with the other's lines in one array program."""

    @pytest.mark.parametrize("seed,line", [
        (0, "PASS region-reduction           gap=8.881784e-16 tol=1.0e-09 ref=0 "
            "fast=8.881784197e-16"),
        (1, "PASS region-reduction           gap=8.881784e-16 tol=1.0e-09 ref=0 "
            "fast=8.881784197e-16"),
        (2, "PASS region-reduction           gap=4.440892e-16 tol=1.0e-09 ref=0 "
            "fast=4.4408920985e-16"),
        (3, "PASS region-reduction           gap=1.332268e-15 tol=1.0e-09 ref=0 "
            "fast=1.33226762955e-15"),
    ])
    def test_report_line(self, seed, line):
        assert oracle._check_region_reduction(seed).line() == line

    # A shrunken region lies inside the full one, so only the full region's
    # crossings can catch it; a grown or cut region is caught from its own.
    @pytest.mark.parametrize("mutate,line", [
        (lambda bounds: {key: bound for key, bound in bounds.items() if key != (1, 3)},
         "FAIL region-reduction           gap=3.449930e-01 tol=1.0e-09 ref=0 fast=0.344993041011"),
        (lambda bounds: _scaled(bounds, 1.0 - 1e-6),
         "FAIL region-reduction           gap=4.540387e-06 tol=1.0e-09 ref=0 "
         "fast=4.54038712228e-06"),
        (lambda bounds: _scaled(bounds, 1.0 + 1e-6),
         "FAIL region-reduction           gap=4.540387e-06 tol=1.0e-09 ref=0 "
         "fast=4.54038711961e-06"),
    ], ids=["sum-3-dropped", "shrunken", "grown"])
    def test_fails_on_broken_region(self, monkeypatch, mutate, line):
        original = oracle.mac_bounds
        monkeypatch.setattr(oracle, "mac_bounds", lambda *args: mutate(original(*args)))
        assert oracle._check_region_reduction(0).line() == line

    def test_walks_no_vertices(self, monkeypatch):
        _patch_fast_paths(monkeypatch, [(polytope, "vertices")])
        assert oracle._check_region_reduction(0).passed

    def test_gap_of_stacked_rows_equals_largest_row_gap(self):
        # 40 draws of the fifteen-line MAC against their five-bound regions;
        # f = 0 and f = 1 make zero bounds, alpha2 = 0 parallel crossings
        rng = np.random.default_rng(3)
        fast_rows, hops = [], []
        for k in range(40):
            params = oracle._draw_params(rng, k % 2 == 0)
            if k % 5 == 0:
                params = replace(params, alpha2=0.0)
            split = HopSplit((0.0, 1.0, float(rng.uniform(0.0, 1.0)))[k % 3])
            fast = hop1_region(params, split)
            fast_rows.append([h.bound for h in fast.halfspaces])
            alpha2, beta2, p1 = params.hop(1)
            hops.append((alpha2, beta2, *split.powers(p1)))
        fast_coefs = tuple((h.coef_private, h.coef_common) for h in fast.halfspaces)
        full_coefs, _, full_rows = subset_bounds(*np.array(hops).T, (1,))

        def gap(rows):
            return oracle._crossing_gap((fast_coefs, np.array(fast_rows)[rows]),
                                        (full_coefs, full_rows[rows]))

        largest = max(gap([k]) for k in range(40))
        assert largest > 1e-3  # out of regime the regions differ
        assert gap(slice(None)) == largest


def scalar_params(rng, paper_regime=True):
    """A network from one scalar ``rng.uniform`` call per field: the
    reference for the batched draws."""
    beta2 = float(rng.uniform(0.2, 2.5))
    gamma2 = float(rng.uniform(0.2, 2.5))
    hi1 = beta2 if paper_regime else 2.0 * beta2
    hi2 = gamma2 if paper_regime else 2.0 * gamma2
    return NetworkParams(
        alpha2=float(rng.uniform(0.0, hi1)),
        beta2=beta2,
        gamma2=gamma2,
        eta2=float(rng.uniform(0.0, hi2)),
        p1=float(np.exp(rng.uniform(math.log(0.05), math.log(20.0)))),
        p2=float(np.exp(rng.uniform(math.log(0.05), math.log(20.0)))),
    )


def scalar_draws(rng, count, paper_regime=True):
    """``count`` (network, split) pairs in scalar ``rng.uniform`` calls."""
    return [(scalar_params(rng, paper_regime), HopSplit(float(rng.uniform(0.0, 1.0))))
            for _ in range(count)]


def _bits(records):
    """Every field of the records, each float as its hex form, so that the
    comparison is bit for bit (0.0 and -0.0 differ)."""
    return [value.hex() if isinstance(value, float) else value
            for record in records for value in astuple(record)]


class TestDraws:
    """``_draws`` and ``_draw_params`` take their uniforms as one
    ``rng.random`` block, and give the floats and the generator state of
    the scalar calls."""

    @pytest.mark.parametrize("paper_regime", [True, False], ids=["in-regime", "out-of-regime"])
    def test_same_floats_and_stream_as_scalar_calls(self, paper_regime):
        for seed in range(100):
            for index in range(1, 16):  # every stream index a check has drawn from
                block, scalar = oracle._rng(seed, index), oracle._rng(seed, index)
                count = index % 7  # 0 to 6 pairs
                got = oracle._draws(block, count, paper_regime)
                want = scalar_draws(scalar, count, paper_regime)
                assert _bits(record for pair in got for record in pair) == \
                    _bits(record for pair in want for record in pair)
                assert _bits([oracle._draw_params(block, paper_regime)]) == \
                    _bits([scalar_params(scalar, paper_regime)])
                # what a check draws after them, e.g. quadrature-riemann's
                # high-gain networks and vertex-walk's splits, keeps its stream
                assert block.bit_generator.state == scalar.bit_generator.state


    @staticmethod
    def scalar_vsi(rng, count, beta2_max=3.0, p1_max=20.0):
        """(beta2, p1) pairs in scalar ``rng.uniform`` calls, as
        vsi-exact-agree, vsi-certificate and vsi-paper-sufficient drew them."""
        return [(float(rng.uniform(0.1, beta2_max)),
                 float(np.exp(rng.uniform(math.log(0.01), math.log(p1_max)))))
                for _ in range(count)]

    @staticmethod
    def scalar_high_gain(rng, count):
        """quadrature-riemann's high-gain hops in scalar ``rng.uniform`` calls."""
        cases = []
        for _ in range(count):
            gamma2 = float(rng.uniform(0.2, 2.5))
            eta2 = float(rng.uniform(0.0, 5.0))
            p2 = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
            cases.append((eta2, gamma2, p2, HopSplit(float(rng.uniform(0.0, 1.0)))))
        return cases

    @pytest.mark.parametrize("limits", [(3.0, 20.0), (1.0, 2.0)], ids=["vsi", "vsi-paper"])
    def test_vsi_draws_same_floats_and_stream_as_scalar_calls(self, limits):
        for seed in range(100):
            for index in (6, 7, 8):
                block, scalar = oracle._rng(seed, index), oracle._rng(seed, index)
                count = 50 if seed % 10 == 0 else seed % 7
                got = oracle._draw_vsi(block, count, *limits)
                want = self.scalar_vsi(scalar, count, *limits)
                assert [(b.hex(), p.hex()) for b, p in got] == \
                    [(b.hex(), p.hex()) for b, p in want]
                assert all(type(b) is float and type(p) is float for b, p in got)
                assert block.bit_generator.state == scalar.bit_generator.state

    def test_high_gain_draws_same_floats_and_stream_as_scalar_calls(self):
        for seed in range(100):
            block, scalar = oracle._rng(seed, 4), oracle._rng(seed, 4)
            # after the twelve network draws, as in the check
            oracle._draws(block, 12)
            scalar_draws(scalar, 12)
            count = 12 if seed % 10 == 0 else seed % 7
            got = oracle._draw_high_gain(block, count)
            want = self.scalar_high_gain(scalar, count)
            assert [(*map(float.hex, case[:3]), case[3].f_private.hex()) for case in got] == \
                [(*map(float.hex, case[:3]), case[3].f_private.hex()) for case in want]
            assert block.bit_generator.state == scalar.bit_generator.state


class TestQuadratureRiemannCheck:
    """``quadrature-riemann`` shares each node count's nodes and cosines
    among its 24 cases and three integrands."""

    @staticmethod
    def one_at_a_time(cross2, intra2, p_private, p_common):
        """The certified midpoint value, error and node count of each
        integrand, each cosine and node set evaluated in its own call."""
        g, e = math.sqrt(intra2), math.sqrt(cross2)
        per_code = p_common / 3.0

        def cosine_series(taps):
            return lambda f: taps[0] + 2.0 * sum(t * np.cos(2.0 * np.pi * k * f)
                                                 for k, t in enumerate(taps[1:], 1))

        def midpoint(integrand, n):
            return float(np.mean(integrand((np.arange(n) + 0.5) / n)))

        def certified(integrand):
            n = oracle.MIDPOINT_FIRST_NODES
            coarse = midpoint(integrand, n)
            while True:
                n *= 2
                fine = midpoint(integrand, n)
                err = abs(fine - coarse)
                if err <= oracle.MIDPOINT_AGREEMENT or n >= oracle.MIDPOINT_MAX_NODES:
                    return fine, err, n
                coarse = fine

        h_private = cosine_series((g, e))
        h_common = cosine_series((g + 2 * e, g + e, e))
        ln2 = math.log(2.0)
        return [certified(integrand) for integrand in (
            lambda f: np.log1p(p_private * h_private(f) ** 2) / ln2,
            lambda f: np.log1p(per_code * h_common(f) ** 2) / ln2,
            lambda f: np.log1p(p_private * h_private(f) ** 2 + per_code * h_common(f) ** 2) / ln2,
        )]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_same_sums_as_one_integrand_at_a_time(self, monkeypatch, seed):
        certified, cosines = [], []
        original_certified, original_cosine = oracle.certified_midpoint, oracle._cosine

        def recording_certified(*args):
            certified.append(original_certified(*args))
            return certified[-1]

        def recording_cosine(f, k):
            cosines.append((f.size, k))
            return original_cosine(f, k)

        # every cosine series evaluated calls its ``cosine`` once at k = 1
        series = []
        original_integrands = oracle.mcp_reference_integrands

        def recording_integrands(*args, **kwargs):
            *head, cosine, shared = args

            def counting_cosine(f, k):
                if k == 1:
                    series.append(f.size)
                return cosine(f, k)
            return original_integrands(*head, counting_cosine, shared, **kwargs)

        monkeypatch.setattr(oracle, "certified_midpoint", recording_certified)
        monkeypatch.setattr(oracle, "_cosine", recording_cosine)
        monkeypatch.setattr(oracle, "mcp_reference_integrands", recording_integrands)
        assert oracle._check_quadrature_riemann(seed).passed
        # the parent's cases: twelve (network, split) draws, then twelve at
        # high inter-cell gain, in scalar calls
        rng = oracle._rng(seed, 4)
        cases = [(params.eta2, params.gamma2, params.p2, split)
                 for params, split in scalar_draws(rng, 12)]
        cases += TestDraws.scalar_high_gain(rng, 12)
        expected = [triple for eta2, gamma2, p2, split in cases
                    for triple in self.one_at_a_time(eta2, gamma2, *split.powers(p2))]
        assert len(certified) == 72
        assert [(value.hex(), err.hex(), n) for value, err, n in certified] == \
            [(value.hex(), err.hex(), n) for value, err, n in expected]
        # each node count's two cosines, once for the whole check
        assert sorted(cosines) == sorted(set(cosines))
        assert {k for _, k in cosines} == {1, 2}
        # each case's two squared responses, once per node count that one of
        # its integrands visits: the sum reads the other two's
        def levels(n):  # how many node counts a certified sum ending at n visits
            return round(math.log2(n / oracle.MIDPOINT_FIRST_NODES)) + 1
        shared = one_each = 0
        for case in range(24):
            n_private, n_common, n_sum = (n for _, _, n in certified[3 * case:3 * case + 3])
            shared += levels(max(n_private, n_sum)) + levels(max(n_common, n_sum))
            one_each += levels(n_private) + levels(n_common) + 2 * levels(n_sum)
        assert len(series) == shared < one_each


class TestBatchedReferences:
    """vertex-a-sum takes its 150 corner sums in one array call, and
    vsi-a2-dominates-a1 iterates Python floats: the same floats as the
    per-draw numpy calls they replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
    def test_vertex_a_sum_same_pairs_as_per_draw_calls(self, monkeypatch, seed):
        reported = []
        original_worst = oracle._worst

        def recording_worst(name, pairs, *args):
            reported.extend(pairs)
            return original_worst(name, reported, *args)

        monkeypatch.setattr(oracle, "_worst", recording_worst)
        assert oracle._check_vertex_a_sum(seed).passed
        want = [(float(oracle._two_stage_rate(split.f_private, *params.hop(1))),
                 max_sum_rate(hop1_region(params, split)).value)
                for params, split in scalar_draws(oracle._rng(seed, 2), 150)]
        assert [(a.hex(), b.hex()) for a, b in reported] == [(a.hex(), b.hex()) for a, b in want]

    def test_vsi_a2_dominates_a1_same_report_as_numpy_scalars(self):
        gap = 0.0
        for beta2 in np.linspace(0.1, 3.0, 20):
            for p1 in np.geomspace(0.01, 20.0, 20):
                a1 = beta2 * max(p1 / 2.0 + 1.0, beta2 * p1 + 1.0)
                a2 = schemes.vsi_threshold(float(beta2), float(p1), method="paper")
                gap = max(gap, a1 - a2)
        report = oracle._check_vsi_a2_dominates_a1(0)
        assert type(report.gap) is float
        assert report.gap.hex() == float(gap).hex()
        assert report.line() == oracle._within("vsi-a2-dominates-a1", gap, 1e-12).line()


class TestSubstitutionSymmetryCheck:
    """``substitution-symmetry`` builds its first-hop side from the drawn
    network with the hop-2 fields substituted, not from ``hop(2)``."""

    def test_fails_on_swapped_hop2_gains(self, monkeypatch):
        hop = NetworkParams.hop

        def swapped(params, k):
            cross2, intra2, power = hop(params, k)
            return (intra2, cross2, power) if k == 2 else (cross2, intra2, power)

        monkeypatch.setattr(NetworkParams, "hop", swapped)
        assert oracle._check_substitution_symmetry(0).line() == (
            "FAIL substitution-symmetry      gap=1.985254e+00 tol=1.0e-15 ref=2.00022202878 "
            "fast=0.0149681301896")


class TestVertexWalkCheck:
    @pytest.mark.parametrize("seed,line", [
        (0, "PASS vertex-walk                gap=1.110223e-16 tol=2.0e-10 ref=0 "
            "fast=1.11022302463e-16"),
        (1, "PASS vertex-walk                gap=0.000000e+00 tol=2.0e-10 ref=0 fast=0"),
        (2, "PASS vertex-walk                gap=2.220446e-16 tol=2.0e-10 ref=0 "
            "fast=2.22044604925e-16"),
        (3, "PASS vertex-walk                gap=1.110223e-16 tol=2.0e-10 ref=0 "
            "fast=1.11022302463e-16"),
    ])
    def test_report_line(self, seed, line):
        assert oracle._check_vertex_walk(seed).line() == line


class TestReferencesSkipTheirFastPaths:
    """Each reference runs with the fast path it certifies made to raise."""

    @pytest.mark.parametrize("builder", [hop1_region, hop2_rs_region, hop2_coop_region])
    def test_enumerated_vertices(self, monkeypatch, builder):
        region = builder(FIG2, HALF)
        _patch_fast_paths(monkeypatch, [(polytope, "vertices")])
        assert len(oracle.enumerated_vertices(region)) >= 3

    def test_grid_max_sum(self, monkeypatch):
        region = hop1_region(FIG2, HALF)
        _patch_fast_paths(monkeypatch, [(polytope, "max_sum_rate"), (polytope, "_greedy")])
        assert grid_max_sum(region, 1e-2) > 0.0

    @pytest.mark.parametrize("hop", [1, 2])
    def test_dense_split_scan(self, monkeypatch, hop):
        _patch_fast_paths(monkeypatch, [(schemes, "_hop_split_candidates"), (regions, "_corner")])
        assert dense_split_scan(FIG2, hop)[1] > 0.0

    def test_subset_bounds(self, monkeypatch):
        _patch_fast_paths(monkeypatch, [(regions, name) for name in (
            "mac_bounds", "coop_bounds", "_rs_bounds", "_mac_gains", "_coop_gains", "_corner")])
        p_private, p_common = HALF.powers(FIG2.p2)
        for weights, _ in WEIGHTS.values():
            assert (subset_bounds(FIG2.eta2, FIG2.gamma2, p_private, p_common, weights)[2] > 0.0).all()

    def test_certified_midpoint(self, monkeypatch):
        _patch_fast_paths(monkeypatch, [(regions, "mcp_bounds")])
        p_private, p_common = HALF.powers(FIG2.p2)
        for integrand in mcp_reference_integrands(FIG2.eta2, FIG2.gamma2,
                                                  p_private, p_common).values():
            assert certified_midpoint(integrand)[0] > 0.0


class TestSuite:
    def test_ref_err_appended_only_when_reported(self):
        plain = oracle.OracleReport("x", 1.0, 1.0, 0.0, 1e-12, True)
        certified = oracle.OracleReport("x", 1.0, 1.0, 0.0, 1e-12, True, ref_err=1.8e-15)
        assert "ref_err" not in plain.line()
        assert certified.line() == plain.line() + " ref_err=1.8e-15"

    def test_all_checks_pass(self):
        reports = run_suite(seed=0)
        failing = [r.name for r in reports if not r.passed]
        assert not failing, f"failing checks: {failing}"
        assert tuple(r.name for r in reports) == oracle._CHECK_NAMES

    def test_deterministic_for_fixed_seed(self):
        lines_a = [r.line() for r in run_suite(seed=7)]
        lines_b = [r.line() for r in run_suite(seed=7)]
        assert lines_a == lines_b

    def test_filter_runs_only_matching_checks(self, monkeypatch):
        ran = []

        def stub(name):
            return lambda seed: ran.append(name)

        monkeypatch.setattr(oracle, "_CHECKS",
                            tuple(stub(name) for name in oracle._CHECK_NAMES))
        run_suite(seed=0, name_filter="vsi")
        assert ran and all("vsi" in name for name in ran)
        assert len(ran) == sum("vsi" in name for name in oracle._CHECK_NAMES)

    @pytest.mark.parametrize("name", oracle._CHECK_NAMES)
    def test_check_fails_on_broken_fast_path(self, name):
        # every check FAILs under some mutant of the coverage table
        assert any(name in mutant.fails.split() for mutant in MUTANTS.values())

    @pytest.mark.parametrize("check,solves", [
        # one row per network: each distinct hop of a draw is solved once
        (oracle._check_rs_dense_grid, 24),
        (oracle._check_scheme_ordering, 27),
        (oracle._check_half_duplex_halving, 42),
        (oracle._check_power_monotonicity, 64),
    ])
    def test_hop_solves_per_check(self, monkeypatch, check, solves):
        original = schemes._hop_split_candidates
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(schemes, "_hop_split_candidates", counting)
        assert check(0).passed
        assert len(calls) == solves

    def test_filter_subsets_without_changing_draws(self):
        full = {r.name: r.line() for r in run_suite(seed=1)}
        only_vsi = run_suite(seed=1, name_filter="vsi")
        assert only_vsi and all("vsi" in r.name for r in only_vsi)
        for r in only_vsi:
            assert full[r.name] == r.line()
