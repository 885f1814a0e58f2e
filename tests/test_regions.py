import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrates import oracle
from meshrates.model import HopSplit, NetworkParams, RatePair, split_powers
from meshrates.polytope import contains, max_sum_rate, vertices
from meshrates.regions import (
    Halfspace,
    _coop_gains,
    _mac_gains,
    RateRegion,
    coop_bounds,
    hop1_region,
    hop2_coop_region,
    hop2_mcp_region,
    hop2_rs_region,
    mac_bounds,
    mcp_bounds,
)
from meshrates.schemes import _corner, _rs_optimum

FIG2 = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=2.0)
HALF = HopSplit(0.5)  # P_1p = P_1c = 1 at total power 2


def region_bounds(region):
    return {h.label: h.bound for h in region.halfspaces}


def corner(params, split, hop):
    cross2, intra2, total = params.hop(hop)
    r_private, rc_two, rc_three = _corner(_mac_gains(cross2, intra2), *split.powers(total))
    return RatePair(float(r_private), float(min(rc_two, rc_three)))


gains = st.floats(min_value=0.0, max_value=2.5)
powers = st.floats(min_value=0.05, max_value=20.0)
fractions = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def networks(draw, paper_regime=True):
    beta2 = draw(st.floats(min_value=0.2, max_value=2.5))
    gamma2 = draw(st.floats(min_value=0.2, max_value=2.5))
    alpha2 = draw(st.floats(min_value=0.0, max_value=beta2 if paper_regime else 5.0))
    eta2 = draw(st.floats(min_value=0.0, max_value=gamma2 if paper_regime else 5.0))
    return NetworkParams(alpha2=alpha2, beta2=beta2, gamma2=gamma2, eta2=eta2,
                         p1=draw(powers), p2=draw(powers))


class TestHalfspace:
    def test_needs_a_coefficient(self):
        with pytest.raises(ValueError, match="at least one non-zero coefficient"):
            Halfspace(0, 0, 1.0, "none")

    @pytest.mark.parametrize("bound", [-1e-300, math.nan, math.inf])
    def test_bound_finite_and_non_negative(self, bound):
        with pytest.raises(ValueError, match="must be finite and >= 0"):
            Halfspace(1, 0, bound, "p")


class TestHop1Region:
    def test_no_cross_links_kills_common(self):
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=2.0)
        bounds = region_bounds(hop1_region(params, HALF))
        assert bounds["common-2user"] == 0.0
        assert bounds["private-single"] == pytest.approx(1.0, abs=1e-15)

    def test_fig2_bounds(self):
        bounds = region_bounds(hop1_region(FIG2, HALF))
        assert bounds["private-single"] == pytest.approx(0.6374299206152918, abs=1e-12)
        # per-common-stream values: min(0.5*C, C/3) = min(0.265257, 0.333333)
        assert bounds["common-2user"] / 2 == pytest.approx(0.2652573583493899, abs=1e-12)
        assert bounds["common-3user"] / 3 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert bounds["sum-2"] == pytest.approx(1.0, abs=1e-12)
        assert bounds["sum-3"] == pytest.approx(1.3536369546147005, abs=1e-12)

    def test_cross_gain_changes_vertex_structure(self):
        weak = hop1_region(FIG2, HALF)
        strong = hop1_region(
            NetworkParams(alpha2=0.8, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=2.0), HALF)
        verts_weak = {(round(v.r_private, 6), round(v.r_common, 6)) for v in vertices(weak)}
        verts_strong = {(round(v.r_private, 6), round(v.r_common, 6)) for v in vertices(strong)}
        assert verts_weak != verts_strong

    def test_invalid_split_is_domain_error(self):
        with pytest.raises(ValueError):
            hop1_region(FIG2, HopSplit(1.5))

    @given(networks(paper_regime=False), fractions)
    @settings(max_examples=60)
    def test_degenerate_splits_yield_finite_bounds(self, params, f):
        for split in (HopSplit(0.0), HopSplit(1.0), HopSplit(f)):
            for h in hop1_region(params, split).halfspaces:
                assert math.isfinite(h.bound) and h.bound >= 0.0

    @given(st.floats(min_value=0.0, max_value=2.0), st.floats(min_value=0.0, max_value=2.0),
           powers)
    @settings(max_examples=50)
    def test_common_bounds_nondecreasing_in_cross_gain_without_private(self, a_lo, a_hi, p1):
        lo, hi = sorted((a_lo, a_hi))
        common = HopSplit(0.0)  # all power on the common codebook
        mk = lambda a2: NetworkParams(alpha2=a2, beta2=1.0, gamma2=1.0, eta2=0.0,
                                      p1=p1, p2=1.0)
        b_lo = region_bounds(hop1_region(mk(lo), common))
        b_hi = region_bounds(hop1_region(mk(hi), common))
        for label in ("common-2user", "common-3user"):
            assert b_hi[label] >= b_lo[label] - 1e-12


class TestHop2RsRegion:
    def test_mirrors_hop1_example(self):
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=2.0)
        hop2 = region_bounds(hop2_rs_region(params, HALF))
        hop1 = region_bounds(hop1_region(FIG2, HALF))
        assert hop2 == hop1

    def test_no_cross_gain_kills_common(self):
        params = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=2.0)
        assert region_bounds(hop2_rs_region(params, HALF))["common-2user"] == 0.0

    @given(networks(paper_regime=False), fractions)
    @settings(max_examples=60)
    def test_substitution_symmetry(self, params, f):
        split = HopSplit(f)
        relabeled = NetworkParams(alpha2=params.eta2, beta2=params.gamma2,
                                  gamma2=1.0, eta2=0.0, p1=params.p2, p2=1.0)
        for ha, hb in zip(hop2_rs_region(params, split).halfspaces,
                          hop1_region(relabeled, split).halfspaces):
            assert (ha.coef_private, ha.coef_common, ha.label) == \
                   (hb.coef_private, hb.coef_common, hb.label)
            assert ha.bound == hb.bound

    def test_intermediate_gain_matches_hop1(self):
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.65, p1=2.0, p2=2.0)
        twin = NetworkParams(alpha2=0.65, beta2=1.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=2.0)
        assert region_bounds(hop2_rs_region(params, HALF)) == \
               region_bounds(hop1_region(twin, HALF))


class TestHop2CoopRegion:
    def test_no_common_power_degenerates(self):
        params = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.5, p1=2.0, p2=1.0)
        bounds = region_bounds(hop2_coop_region(params, HopSplit(1.0)))
        assert bounds["common-2user"] == 0.0
        assert bounds["common-3user"] == 0.0
        assert bounds["private-single"] == pytest.approx(math.log2(1 + 1.0 / 2.0), abs=1e-12)

    def test_isolated_cells_with_shared_power(self):
        # gamma2=1, eta2=0, P_2p=1, P_2c=3: per-codeword power 1, unit noise
        params = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=4.0)
        bounds = region_bounds(hop2_coop_region(params, HopSplit(0.25)))
        assert bounds["private-single"] == pytest.approx(1.0, abs=1e-12)
        assert bounds["common-2user"] / 2 == pytest.approx(0.7924812503605781, abs=1e-12)
        assert bounds["common-3user"] / 3 == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert min(bounds["common-2user"] / 2, bounds["common-3user"] / 3) == \
               pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_coherent_combining_beats_plain_resplit(self):
        params = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.5, p1=2.0, p2=2.0)
        coop = region_bounds(hop2_coop_region(params, HALF))
        rs = region_bounds(hop2_rs_region(params, HALF))
        for label in ("common-2user", "common-3user", "sum-2", "sum-3"):
            assert coop[label] > rs[label]


def coop_mac15(params, split):
    """All fifteen subset inequalities of the cooperative second-hop MAC,
    from the tap model: the private codeword arrives with power gamma2*P_p;
    the own-cell common codeword, sent by three relays with P_c/3 each,
    with (g + 2e)^2 * P_c/3, and the two adjacent cells' commons with
    (g + e)^2 * P_c/3 each (g, e the amplitude gains). The two adjacent
    private codewords and the two outer-cell commons that leak in stay in
    the noise, 1 + 2*eta2*(P_p + P_c/3). No dominated inequality is removed."""
    g, e = math.sqrt(params.gamma2), math.sqrt(params.eta2)
    pw = split.powers(params.p2)
    per_code = pw.p_common / 3.0
    noise = 1.0 + 2.0 * params.eta2 * (pw.p_private + per_code)
    users = (("p", 1, 0, params.gamma2 * pw.p_private),
             ("cm", 0, 1, (g + 2.0 * e) ** 2 * per_code),
             ("cm-1", 0, 1, (g + e) ** 2 * per_code),
             ("cm+1", 0, 1, (g + e) ** 2 * per_code))
    halfspaces = tuple(
        Halfspace(sum(u[1] for u in subset), sum(u[2] for u in subset),
                  math.log2(1.0 + math.fsum(u[3] for u in subset) / noise),
                  "+".join(u[0] for u in subset))
        for k in range(1, 5) for subset in combinations(users, k))
    return RateRegion(halfspaces, "coop-mac15")


class TestCoopRegionReduction:
    def test_matches_full_cooperative_mac(self):
        # Every vertex of the five-bound region satisfies all fifteen
        # inequalities and vice versa, in and out of the paper's regime
        # (every other draw has eta2 > gamma2).
        rng = np.random.default_rng(17)
        worst = 0.0
        for k in range(2000):
            gamma2 = float(rng.uniform(0.2, 2.5))
            eta2 = float(rng.uniform(0.0, gamma2) if k % 2 else rng.uniform(gamma2, 3.0 * gamma2))
            p2 = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
            params = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=gamma2, eta2=eta2,
                                   p1=1.0, p2=p2)
            split = HopSplit(float(rng.uniform(0.0, 1.0)))
            fast, reference = hop2_coop_region(params, split), coop_mac15(params, split)
            worst = max([worst] + [oracle._max_violation(reference, v) for v in vertices(fast)]
                        + [oracle._max_violation(fast, v) for v in vertices(reference)])
        assert worst <= 1e-9


class TestHop2McpRegion:
    def test_flat_filter_private_only(self):
        params = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=1.0)
        bounds = region_bounds(hop2_mcp_region(params, HopSplit(1.0)))
        assert bounds["private-single"] == pytest.approx(1.0, abs=1e-9)
        assert bounds["common-joint"] == 0.0
        assert bounds["sum-joint"] == pytest.approx(1.0, abs=1e-9)

    def test_private_bound_matches_riemann_pin(self):
        # gamma2=1, eta2=0.25, P_2p=1, P_2c=0; value pinned by the
        # 1e6-node midpoint oracle before the build
        params = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.25, p1=2.0, p2=1.0)
        bounds = region_bounds(hop2_mcp_region(params, HopSplit(1.0)))
        assert bounds["private-single"] == pytest.approx(1.0621925376590453, abs=1e-8)

    @given(networks(paper_regime=False), fractions)
    @settings(max_examples=25, deadline=None)
    def test_sum_bound_dominates(self, params, f):
        bounds = region_bounds(hop2_mcp_region(params, HopSplit(f)))
        assert bounds["sum-joint"] >= max(bounds["private-single"],
                                          bounds["common-joint"]) - 1e-12



class TestMcpBounds:
    @pytest.mark.parametrize("eta2,p_private,p_common", [
        (1e-12, 2.0, 3.0), (1e-20, 2.0, 3.0), (1e-100, 2.0, 3.0),
        (1e-300, 2.0, 3.0), (5e-324, 2.0, 3.0), (0.0, 2.0, 3.0),
        (0.4, 1e-300, 3.0), (5e-324, 1e-300, 1e-300), (1e-300, 1e-320, 1e-320),
    ])
    def test_tiny_gains_and_powers_match_midpoint(self, eta2, p_private, p_common):
        # Tiny eta2 makes the w^2 .. w^4 coefficients tiny, so the roots in w
        # head towards overflow; the closed forms and the reversed-quartic
        # roots v = 1/w must stay finite and accurate here. With a tiny gain
        # times a tiny power the private response's quadratic has a
        # subnormal root quotient, whose complex division must not overflow.
        for gamma2 in (0.2, 1.0, 2.5):
            for pp, pc in ((p_private, p_common), (0.0, 1.0), (1.0, 1.0), (5.0, 20.0)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    bounds = mcp_bounds(eta2, gamma2, pp, pc)
                reference = oracle.mcp_reference_integrands(gamma2, eta2, pp, pc)
                for key, name in (((1, 0), "private"), ((0, 1), "common"), ((1, 1), "sum")):
                    value = float(bounds[key])
                    assert math.isfinite(value)
                    expected, ref_err, _ = oracle.certified_midpoint(reference[name])
                    assert abs(value - expected) + ref_err <= 1e-13

    def test_array_powers_match_scalar_calls(self):
        # Every bound has the broadcast shape of the two powers, including
        # the private bound when only p_common is an array, and a scalar call
        # gives the batch's floats bit for bit: both run the same array code.
        cases = [
            ([0.0, 0.5, 1.0, 3.0], [3.0, 2.5, 2.0, 0.0]),
            (1.5, [3.0, 2.5, 0.0]),
            ([0.0, 0.5, 3.0], 2.0),
            ([[0.0, 0.5, 1.0], [3.0, 40.0, 1e-3]], [[3.0, 2.5, 2.0], [0.0, 7.0, 1e3]]),
            ([[0.5], [2.0]], [0.0, 1.0, 9.0]),
        ]
        for p_private, p_common in cases:
            batched = mcp_bounds(0.4, 1.0, p_private, p_common)
            pp, pc = np.broadcast_arrays(np.asarray(p_private), np.asarray(p_common))
            for index in np.ndindex(pp.shape):
                scalar = mcp_bounds(0.4, 1.0, float(pp[index]), float(pc[index]))
                for key, value in scalar.items():
                    assert np.shape(batched[key]) == pp.shape
                    assert batched[key][index] == value

    def test_scalar_call_equals_one_row_batch(self):
        # complex arithmetic on numpy scalars rounds differently from the
        # array loops, so a scalar call must not take a path of its own
        rng = np.random.default_rng(19)
        for _ in range(300):
            gamma2, eta2 = 10.0 ** rng.uniform(-6.0, 1.0, size=2)
            p_private, p_common = 10.0 ** rng.uniform(-3.0, 9.0, size=2)
            scalar = mcp_bounds(eta2, gamma2, float(p_private), float(p_common))
            row = mcp_bounds(eta2, gamma2, np.array([p_private]), np.array([p_common]))
            assert all(scalar[key] == row[key][0] for key in scalar)

    HIGH_POWER_GRID = [(gamma2, eta2, pp, pc)
                       for gamma2 in (0.2, 1.0, 2.25, 2.5)
                       for eta2 in (1e-12, 0.25, 1.0, 4.0)
                       for pp, pc in ((0.0, 40.0), (0.0, 1000.0), (1.0, 500.0),
                                      (10.0, 1000.0), (1000.0, 1000.0))]

    def test_high_power_bounds_match_midpoint(self):
        # Companion-matrix roots from rounded monomial coefficients are up to
        # 3e-13 off here: at gamma2 = 2.5, eta2 = 1e-12, p_common = 40 they
        # split a nearly double pair. The closed forms need no roots, and the
        # sum's Newton step evaluates the quartic through h and u.
        for gamma2, eta2, pp, pc in self.HIGH_POWER_GRID:
            bounds = mcp_bounds(eta2, gamma2, pp, pc)
            reference = oracle.mcp_reference_integrands(gamma2, eta2, pp, pc)
            for key, name in (((1, 0), "private"), ((0, 1), "common"), ((1, 1), "sum")):
                expected, ref_err, _ = oracle.certified_midpoint(reference[name])
                assert abs(float(bounds[key]) - expected) + ref_err <= 1e-14, \
                    (gamma2, eta2, pp, pc, name)

    # mcp_bounds(eta2, gamma2, p_private, p_common)[(1, 1)] by 50-digit
    # quadrature of the sum integrand (mpmath, run once and frozen here), with
    # a relative tolerance. At gamma2 = 5e-12 the two root scales of the
    # quartic lie far apart; at P = 1e13 its roots crowd the unit circle. The
    # last two references agree with Jensen's formula over 150-digit roots.
    @pytest.mark.parametrize("gamma2,eta2,p_private,p_common,expected,rel", [
        (1.0, 0.25, 3e4, 7e4, 14.405488646360333833, 1e-13),
        (1.0, 0.25, 3e12, 7e12, 40.792532132650473253, 5e-11),
        (1.0, 0.25, 9e12, 1e12, 41.179049269868761878, 5e-11),
        (5e-12, 4.6, 1e4, 9e4, 18.008059611887099195, 1e-13),
        (5e-12, 4.6, 5e4, 5e4, 18.627953997563170058, 1e-13),
        (5e-12, 4.6, 9e4, 1e4, 18.805809267240124798, 1e-13),
        (1.0, 0.4, 0.3, 1.2, 1.6015047383393075402, 1e-13),
        (0.2, 4.0, 10.0, 1000.0, 10.723380550692905494, 1e-13),
        # Two known defects of the sum bound; strict, so a fix must remove the marker.
        pytest.param(1.0, 1.0, 2.0, 3.0, 3.0621925376590451628, 1e-13,
                     marks=pytest.mark.xfail(strict=True, reason=(
                         "the quartic is (w^2 + 2w + 2)^2; the Newton step splits the "
                         "double pair unevenly, 3.8e-10 relative too high"))),
        pytest.param(0.0, 5.0, 1e100, 1e100, 335.32881231149693864, 1e-13,
                     marks=pytest.mark.xfail(strict=True, reason=(
                         "eigvals returns the small roots as 0 at these powers and the "
                         "Newton step moves them onto v = -1/2, 0.40 bits too low"))),
    ])
    def test_sum_bound_matches_frozen_reference(self, gamma2, eta2, p_private, p_common,
                                                 expected, rel):
        value = float(mcp_bounds(eta2, gamma2, p_private, p_common)[(1, 1)])
        assert abs(value - expected) <= rel * expected

    def test_sum_without_private_power_equals_common(self):
        # The eigenvalue path of the sum bound against the closed form.
        for gamma2, eta2, _, pc in self.HIGH_POWER_GRID:
            bounds = mcp_bounds(eta2, gamma2, 0.0, pc)
            assert abs(float(bounds[(1, 1)]) - float(bounds[(0, 1)])) <= 1e-14

    @pytest.mark.parametrize("gamma2", [0.2, 1.0, 2.5])
    def test_flat_private_response(self, gamma2):
        for p in (1e-300, 1e-3, 1.0, 40.0, 1000.0):
            value = float(mcp_bounds(0.0, gamma2, p, 0.0)[(1, 0)])
            assert value == pytest.approx(math.log1p(p * gamma2) / math.log(2.0), rel=1e-15)

    @pytest.mark.parametrize("p_private,n", [(1.5, 1), (np.linspace(0.0, 3.0, 7), 7)])
    def test_one_eigenvalue_call_per_batch(self, p_private, n, monkeypatch):
        shapes = []
        eigvals = np.linalg.eigvals

        def counting(a):
            shapes.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        mcp_bounds(0.4, 1.0, p_private, 3.0 - p_private)
        assert shapes == [(n, 4, 4)]


class TestHopConvention:
    # eta2 != gamma2, so a formula fed the two gains in the wrong order gives
    # other numbers
    PARAMS = NetworkParams(alpha2=0.3, beta2=1.2, gamma2=0.8, eta2=0.5, p1=2.0, p2=3.0)

    @pytest.mark.parametrize("bounds_fn,builder", [
        (mac_bounds, hop2_rs_region), (coop_bounds, hop2_coop_region),
        (mcp_bounds, hop2_mcp_region),
    ])
    def test_bound_formulas_take_cross_then_intra(self, bounds_fn, builder):
        params = self.PARAMS
        for f in (0.3, 0.7):
            pw = HopSplit(f).powers(params.p2)
            pp, pc = pw.p_private, pw.p_common
            bounds = bounds_fn(cross2=params.eta2, intra2=params.gamma2,
                               p_private=pp, p_common=pc)
            assert [(h.coef_private, h.coef_common, h.bound)
                    for h in builder(params, HopSplit(f)).halfspaces] == \
                   [(*key, float(bound)) for key, bound in bounds.items()]
            swapped = bounds_fn(cross2=params.gamma2, intra2=params.eta2,
                                p_private=pp, p_common=pc)
            assert all(swapped[key] != bound for key, bound in bounds.items())

    def test_split_optimum_takes_cross_then_intra(self):
        # The hop-2 optimum the schemes read is the max-sum LP of the hop-2
        # region at its split, for rate splitting and for coop; the gains in
        # the other order give another corner there.
        params = self.PARAMS
        for gains_fn, builder in ((_mac_gains, hop2_rs_region), (_coop_gains, hop2_coop_region)):
            split, corner, _ = _rs_optimum(params, 2, gains_fn)
            assert max_sum_rate(builder(params, split)).value == \
                   pytest.approx(corner.total, rel=1e-15, abs=0.0)
            r_private, rc_two, rc_three = _corner(gains_fn(cross2=params.gamma2,
                                                            intra2=params.eta2),
                                                   *split.powers(params.p2))
            assert r_private + min(rc_two, rc_three) != pytest.approx(corner.total, rel=1e-6)


class TestVertexA:
    def test_no_interference(self):
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=2.0)
        point = corner(params, HALF, hop=1)
        assert (point.r_private, point.r_common) == (1.0, 0.0)
        assert point.total == 1.0

    def test_fig2_corner(self):
        point = corner(FIG2, HALF, hop=1)
        assert point.r_private == pytest.approx(0.6374299206152918, abs=1e-12)
        assert point.r_common == pytest.approx(0.18128503969235418, abs=1e-12)
        assert point.total == pytest.approx(0.818714960307646, abs=1e-12)
        # successive cancellation is tight on the two-common sum constraint
        sum2 = region_bounds(hop1_region(FIG2, HALF))["sum-2"]
        assert point.r_private + 2.0 * point.r_common == pytest.approx(sum2, abs=1e-12)

    def test_hop2_substitution(self):
        params = NetworkParams(alpha2=0.1, beta2=2.0, gamma2=1.0, eta2=0.4, p1=5.0, p2=2.0)
        point2 = corner(params, HALF, hop=2)
        point1 = corner(FIG2, HALF, hop=1)
        assert (point2.r_private, point2.r_common) == (point1.r_private, point1.r_common)

    @given(networks(), fractions)
    @settings(max_examples=60, deadline=None)
    def test_feasible_and_sum_optimal(self, params, f):
        split = HopSplit(f)
        region = hop1_region(params, split)
        point = corner(params, split, hop=1)
        assert contains(region, point, tol=1e-12)
        assert point.total == pytest.approx(max_sum_rate(region).value, abs=1e-9)


class TestVerticesBC:
    def test_no_cross_gain(self):
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=2.0, p2=2.0)
        named = oracle.vertices_bc(params, HALF)
        assert (named["B"].r_private, named["B"].r_common) == (1.0, 0.0)

    def test_fig2_weak_interference_corner(self):
        named = oracle.vertices_bc(FIG2, HALF)
        assert named["B"].r_private == pytest.approx(0.4694852833012202, abs=1e-12)
        assert named["B"].r_common == pytest.approx(0.2652573583493899, abs=1e-12)

    @pytest.mark.parametrize("alpha2,corner", [(0.4, "B"), (0.65, "C"), (0.8, "B_prime")])
    def test_each_candidate_is_a_corner_in_its_regime(self, alpha2, corner):
        params = NetworkParams(alpha2=alpha2, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=2.0)
        region = hop1_region(params, HALF)
        point = oracle.vertices_bc(params, HALF)[corner]
        assert contains(region, point, tol=1e-9)
        assert any(abs(v.r_private - point.r_private) <= 1e-9
                   and abs(v.r_common - point.r_common) <= 1e-9
                   for v in vertices(region))

    @given(networks(), fractions)
    @settings(max_examples=60, deadline=None)
    def test_feasible_candidates_are_vertices(self, params, f):
        # Candidates outside their own interference regime exit the region;
        # whenever one is feasible it must be an actual corner.
        split = HopSplit(f)
        region = hop1_region(params, split)
        verts = vertices(region)
        for point in oracle.vertices_bc(params, split).values():
            if contains(region, point, tol=1e-9):
                assert any(abs(v.r_private - point.r_private) <= 1e-7
                           and abs(v.r_common - point.r_common) <= 1e-7
                           for v in verts)


def hop_draws(seed, n, regime_only=False):
    """n seeded (cross2, intra2, power) triples: intra2 on [0.2, 2.5], cross2
    on [0, intra2] in regime and on [intra2, 2*intra2] out of it (every other
    draw unless ``regime_only``), power log-uniform on [0.05, 20]."""
    rng = np.random.default_rng(seed)
    for k in range(n):
        intra2 = float(rng.uniform(0.2, 2.5))
        low = 1.0 if k % 2 and not regime_only else 0.0
        cross2 = intra2 * float(rng.uniform(low, low + 1.0))
        yield cross2, intra2, float(np.exp(rng.uniform(math.log(0.05), math.log(20.0))))


class TestSplitMonotonicity:
    """How each bound moves with the private fraction f at fixed hop power:
    the facts a per-hop frontier over the split can rest on. Each draw's
    bounds are taken on evenly spaced fractions from 0 to 1."""

    @pytest.mark.parametrize("bounds_fn", [mac_bounds, coop_bounds])
    def test_mac_and_coop_bounds(self, bounds_fn):
        fractions = np.linspace(0.0, 1.0, 1001)
        rising = []
        for cross2, intra2, total in hop_draws(11, 1000):
            p_private, p_common = split_powers(fractions, total)
            bounds = bounds_fn(cross2, intra2, p_private, p_common)
            steps = {key: np.diff(bound) for key, bound in bounds.items()}
            assert steps[(1, 0)].min() >= -1e-14
            for key in ((0, 2), (0, 3), (1, 3)):
                assert steps[key].max() <= 1e-14, key
            assert steps[(1, 2)].min() >= -1e-14 or steps[(1, 2)].max() <= 1e-14
            if bounds_fn is not mac_bounds or cross2 > intra2:
                continue
            # d/df of the (1, 2) bound has the sign of b - 2a(1 + 2aP)
            rising.append(bounds[(1, 2)][-1] > bounds[(1, 2)][0])
            assert rising[-1] == (intra2 > 2.0 * cross2 * (1.0 + 2.0 * cross2 * total))
            # the private bound x inverts to Pp = (2^x - 1)/(b - 2a(2^x - 1))
            gain = np.exp2(bounds[(1, 0)]) - 1.0
            inverse = gain / (intra2 - 2.0 * cross2 * gain)
            assert np.abs(inverse - p_private).max() <= 1e-13 * total
        # both branches of the (1, 2) rule occur
        assert bounds_fn is not mac_bounds or 0 < sum(rising) < len(rising)

    def test_mcp_bounds(self):
        fractions = np.linspace(0.0, 1.0, 201)
        for cross2, intra2, total in hop_draws(12, 100, regime_only=True):
            bounds = mcp_bounds(cross2, intra2, *split_powers(fractions, total))
            assert np.diff(bounds[(1, 0)]).min() >= -1e-14
            assert np.diff(bounds[(0, 1)]).max() <= 1e-14
            assert np.diff(bounds[(1, 1)], 2).max() <= 1e-12
