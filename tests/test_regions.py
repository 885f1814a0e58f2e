import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meshrates import oracle
from meshrates.model import HopSplit, NetworkParams, RatePair, split_powers
from meshrates.polytope import contains, max_sum_rate, vertices
from meshrates.regions import (
    Halfspace,
    _FLOATS,
    _coop_gains,
    _corner,
    _mac_gains,
    _hop_lines,
    _rs_bounds,
    coop_bounds,
    hop1_region,
    hop2_coop_region,
    hop2_mcp_region,
    hop2_rs_region,
    mac_bounds,
    mcp_bounds,
)
from meshrates.schemes import _Row

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


VALID = Halfspace(1, 1, 1.0, "valid")

# the three ways to build a line, each given all four fields
BUILDS = {
    "constructor": Halfspace,
    "make": lambda *line: Halfspace._make(line),
    "replace": lambda *line: VALID._replace(**dict(zip(Halfspace._fields, line))),
}


def refusal(*line):
    """The one message with which every way of building ``line`` refuses it:
    the tests loop over the ways, so that each keeps its one test id."""
    messages = set()
    for build in BUILDS.values():
        with pytest.raises(ValueError) as excinfo:
            build(*line)
        messages.add(str(excinfo.value))
    [message] = messages
    return message


class TestHalfspace:
    def test_needs_a_coefficient(self):
        assert refusal(0, 0, 1.0, "none") == "halfspace needs at least one non-zero coefficient"

    # (1, -1) <= 0.2 with (1, 0) <= 1 and (0, 1) <= 1 is not down-closed:
    # the greedy LP gave 1.2 at (0.2, 1) on it while (1, 1) was feasible
    @pytest.mark.parametrize("coefs", [(1, -1), (-1, 1), (math.nan, 1), (1, math.inf)])
    def test_coefficients_finite_and_non_negative(self, coefs):
        assert "non-negative" in refusal(*coefs, 0.2, "tilt")

    @pytest.mark.parametrize("bound", [-1e-300, math.nan, math.inf])
    def test_bound_finite_and_non_negative(self, bound):
        assert "must be finite and >= 0" in refusal(1, 0, bound, "p")

    @pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
    def test_a_valid_line_is_the_tuple_it_unpacks_as(self, build):
        line = build(1, 2, 0.5, "sum-2")
        assert type(line) is Halfspace and isinstance(line, tuple)
        a, b, c, label = line
        assert (a, b, c, label) == (line.coef_private, line.coef_common, line.bound,
                                    line.label) == (1, 2, 0.5, "sum-2")
        assert repr(line) == "Halfspace(coef_private=1, coef_common=2, bound=0.5, label='sum-2')"
        with pytest.raises(AttributeError):
            line.bound = 1.0

    def test_hop_lines_are_halfspaces(self):
        lines = _hop_lines(mac_bounds(0.4, 1.0, 1.0, 1.0))
        assert [type(line) for line in lines] == [Halfspace] * 5
        assert [line[:2] for line in lines] == list(mac_bounds(0.4, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize("bound", [math.nan, math.inf])
    def test_hop_lines_refuse_a_non_finite_bound(self, bound):
        # the lines coop and mcp's final LP reads refuse what a halfspace does
        with pytest.raises(ValueError, match="must be finite"):
            _hop_lines({**mac_bounds(0.4, 1.0, 1.0, 1.0), (0, 3): bound})


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
    """The fifteen subset bounds of the cooperative second-hop MAC, in
    ``oracle._MAC15`` order, from the tap model: the private codeword arrives
    with power gamma2*P_p; the own-cell common codeword, sent by three relays
    with P_c/3 each, with (g + 2e)^2 * P_c/3, and the two adjacent cells'
    commons with (g + e)^2 * P_c/3 each (g, e the amplitude gains). The two
    adjacent private codewords and the two outer-cell commons that leak in
    stay in the noise, 1 + 2*eta2*(P_p + P_c/3). No dominated bound is
    removed."""
    g, e = math.sqrt(params.gamma2), math.sqrt(params.eta2)
    p_private, p_common = split.powers(params.p2)
    per_code = p_common / 3.0
    noise = 1.0 + 2.0 * params.eta2 * (p_private + per_code)
    signals = (params.gamma2 * p_private, (g + 2.0 * e) ** 2 * per_code,
               (g + e) ** 2 * per_code, (g + e) ** 2 * per_code)
    return [math.log2(1.0 + math.fsum(signals[i] for i in subset) / noise)
            for _, _, subset, _ in oracle._MAC15]


class TestCoopRegionReduction:
    def test_matches_full_cooperative_mac(self):
        # Every feasible line crossing of the five coop bounds satisfies all
        # fifteen subset bounds and vice versa, in and out of the paper's
        # regime (every other draw has eta2 > gamma2).
        rng = np.random.default_rng(17)
        fast, reference = [], []
        for k in range(2000):
            gamma2 = float(rng.uniform(0.2, 2.5))
            eta2 = float(rng.uniform(0.0, gamma2) if k % 2 else rng.uniform(gamma2, 3.0 * gamma2))
            p2 = float(np.exp(rng.uniform(math.log(1e-2), math.log(1e2))))
            params = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=gamma2, eta2=eta2,
                                   p1=1.0, p2=p2)
            split = HopSplit(float(rng.uniform(0.0, 1.0)))
            bounds = coop_bounds(eta2, gamma2, *split.powers(p2))
            fast.append(list(bounds.values()))
            reference.append(coop_mac15(params, split))
        full_coefs = tuple(entry[:2] for entry in oracle._MAC15)
        gap = oracle._crossing_gap((tuple(bounds), np.array(fast)),
                                   (full_coefs, np.array(reference)))
        assert gap <= 1e-9


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
                reference = oracle.mcp_reference_integrands(eta2, gamma2, pp, pc)
                for key, name in (((1, 0), "private"), ((0, 1), "common"), ((1, 1), "sum")):
                    value = float(bounds[key])
                    assert math.isfinite(value)
                    expected, ref_err, _ = oracle.certified_midpoint(reference[name])
                    assert abs(value - expected) + ref_err <= 1e-13

    def test_array_powers_match_scalar_calls(self):
        # Every bound has the broadcast shape of the two powers, including
        # the private bound when only p_common is an array, and a scalar call
        # gives the batch's floats bit for bit.
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

    @staticmethod
    def _outcome(*args):
        """``mcp_bounds(*args)`` as float64 bit patterns, first entries of a
        batch, or the type of the warning or exception it raises; warnings
        are errors."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                bounds = mcp_bounds(*args)
            except (ArithmeticError, RuntimeWarning, ValueError) as exc:
                return type(exc)
        return {key: np.float64(np.ravel(bound)[0]).tobytes() for key, bound in bounds.items()}

    # Gains: 0, tiny (the amplitude scaling takes the powers down, so a
    # moderate power scales to a tiny or subnormal one), the paper's range,
    # and 4 or more, where the power-of-4 amplitude scaling takes the powers
    # up. Powers: 0, a wide range, subnormal, and near 1e300, where a batch
    # may warn of an overflow.
    GAIN_DRAWS = (lambda rng: 0.0, lambda rng: 10.0 ** rng.uniform(-320.0, -6.0),
                  lambda rng: 10.0 ** rng.uniform(-6.0, 1.0),
                  lambda rng: 4.0 * 10.0 ** rng.uniform(0.0, 6.0))
    POWER_DRAWS = (lambda rng: 0.0, lambda rng: 10.0 ** rng.uniform(-3.0, 9.0),
                   lambda rng: rng.uniform(0.0, 2.2e-308),
                   lambda rng: 10.0 ** rng.uniform(299.0, 308.2))

    # Python floats overflow silently, and each of these calls meets an
    # overflow that the closed forms then absorb (x/inf = 0): in a, in
    # _phi's |z| + |Re z|, in c's denominator and in sqrt(q)*g. A batch
    # warns of it, and so must the scalar call.
    ABSORBED_OVERFLOWS = [
        (2.2775585516249022e+303, 0.25, 177502.5931200199, 0.0),
        (25187220.254208695, 1.0337259650159474e-304, 0.0, 5.205508388718512e+300),
        (1.8744122860007352e+303, 30.754204893062152, 1.0, 307965.4154192152),
        (2.634809042928249e-16, 4351889.430014855, 1.7516491434534779e-06, 8.589677837202818e+301),
    ]

    def test_scalar_call_equals_one_row_batch(self):
        # A scalar call runs on Python floats and a batch on arrays. At 300
        # draws from the paper's range each scalar call returns Python
        # floats equal to the batch's bit for bit. Then every pair of gain
        # kinds meets every pair of power kinds, and the frozen overflow
        # rows follow: each gives the batch's floats bit for bit, as Python
        # floats, or the warning or exception the batch gives.
        rng = np.random.default_rng(19)
        paper = []
        for _ in range(300):
            gamma2, eta2 = 10.0 ** rng.uniform(-6.0, 1.0, size=2)
            p_private, p_common = 10.0 ** rng.uniform(-3.0, 9.0, size=2)
            paper.append((float(eta2), float(gamma2), float(p_private), float(p_common)))
        kinds = list(product(self.GAIN_DRAWS, self.GAIN_DRAWS, self.POWER_DRAWS, self.POWER_DRAWS))
        edges = [tuple(float(draw(rng)) for draw in kind) for kind in kinds * 2]
        rows = []
        for args in paper + edges + self.ABSORBED_OVERFLOWS:
            eta2, gamma2, p_private, p_common = args
            row = self._outcome(eta2, gamma2, np.array([p_private]), np.array([p_common]))
            assert self._outcome(*args) == row, args
            if isinstance(row, dict):
                assert all(type(bound) is float for bound in mcp_bounds(*args).values())
            rows.append(row)
        assert all(isinstance(row, dict) for row in rows[:len(paper)])
        assert RuntimeWarning in rows[len(paper):-len(self.ABSORBED_OVERFLOWS)]
        assert rows[-len(self.ABSORBED_OVERFLOWS):] == [RuntimeWarning] * len(self.ABSORBED_OVERFLOWS)

    @pytest.mark.parametrize("bounds_fn", [mac_bounds, coop_bounds])
    def test_rs_scalar_call_equals_one_row_batch(self, bounds_fn):
        # the coop and mcp search scores a rate-splitting hop's scalar bounds
        # at its optimum as one-split arrays, so both must round alike
        rng = np.random.default_rng(23)
        for _ in range(2000):
            cross2, intra2 = 10.0 ** rng.uniform(-6.0, 1.0, size=2)
            p_private, p_common = 10.0 ** rng.uniform(-3.0, 9.0, size=2)
            scalar = bounds_fn(cross2, intra2, float(p_private), float(p_common))
            row = bounds_fn(cross2, intra2, np.array([p_private]), np.array([p_common]))
            assert all(scalar[key] == row[key][0] for key in scalar)

    # gamma2 = eta2 makes the sum's quartic biquadratic in h; eta2 = 1e-12 and
    # 1e-6 cluster one of its pairs at h = g. The last five power pairs split
    # 1000 from f = 0 to f = 1, so that p = 0 and q = 0 are entries of a batch.
    HIGH_POWERS = ((0.0, 40.0), (0.0, 1000.0), (1.0, 500.0), (10.0, 1000.0), (1000.0, 1000.0),
                   (0.0, 1000.0), (250.0, 750.0), (500.0, 500.0), (750.0, 250.0), (1000.0, 0.0))
    HIGH_POWER_GRID = [(gamma2, eta2, pp, pc) for gamma2, eta2, (pp, pc) in product(
        (0.2, 1.0, 2.25, 2.5), (1e-12, 1e-6, 0.25, 1.0, 2.25, 4.0), HIGH_POWERS)]

    def test_high_power_bounds_match_midpoint(self):
        # Each gain pair's powers run as one batch. At gamma2 = 2.5, eta2 =
        # 1e-12, p_common = 40 the sum's quartic has a nearly double pair; its
        # factors are taken in closed form, with no roots of monomial
        # coefficients.
        for k in range(0, len(self.HIGH_POWER_GRID), len(self.HIGH_POWERS)):
            rows = self.HIGH_POWER_GRID[k:k + len(self.HIGH_POWERS)]
            gamma2, eta2 = rows[0][:2]
            batch = mcp_bounds(eta2, gamma2, np.array([row[2] for row in rows]),
                               np.array([row[3] for row in rows]))
            for j, (_, _, pp, pc) in enumerate(rows):
                reference = oracle.mcp_reference_integrands(eta2, gamma2, pp, pc)
                for key, name in (((1, 0), "private"), ((0, 1), "common"), ((1, 1), "sum")):
                    expected, ref_err, _ = oracle.certified_midpoint(reference[name])
                    assert abs(float(batch[key][j]) - expected) + ref_err <= 1e-14, \
                        (gamma2, eta2, pp, pc, name)

    # mcp_bounds(eta2, gamma2, p_private, p_common)[(1, 1)] by 50-digit
    # quadrature of the sum integrand (mpmath, run once and frozen here), with
    # a relative tolerance. At gamma2 = 5e-12 the two root scales of the
    # quartic lie far apart; at P = 1e13 and 1e15 its roots crowd the unit
    # circle (the 1e15 reference also agrees with Jensen's formula over
    # 80-digit roots). The last two references agree with Jensen's formula
    # over 150-digit roots: at gamma2 = eta2 = 1, p = (2, 3) the quartic is
    # (w^2 + 2w + 2)^2, a double conjugate pair, and p = 1e100 puts two roots
    # near v = 0.
    @pytest.mark.parametrize("gamma2,eta2,p_private,p_common,expected,rel", [
        (1.0, 0.25, 3e4, 7e4, 14.405488646360333833, 1e-13),
        (1.0, 0.25, 3e12, 7e12, 40.792532132650473253, 1e-13),
        (1.0, 0.25, 9e12, 1e12, 41.179049269868761878, 1e-13),
        (1.0, 0.25, 3e14, 7e14, 47.435090048147411411, 1e-13),
        (5e-12, 4.6, 1e4, 9e4, 18.008059611887099195, 1e-13),
        (5e-12, 4.6, 5e4, 5e4, 18.627953997563170058, 1e-13),
        (5e-12, 4.6, 9e4, 1e4, 18.805809267240124798, 1e-13),
        (1.0, 0.4, 0.3, 1.2, 1.6015047383393075402, 1e-13),
        (0.2, 4.0, 10.0, 1000.0, 10.723380550692905494, 1e-13),
        (1.0, 1.0, 2.0, 3.0, 3.0621925376590451628, 1e-13),
        (0.0, 5.0, 1e100, 1e100, 335.32881231149693864, 1e-13),
    ])
    def test_sum_bound_matches_frozen_reference(self, gamma2, eta2, p_private, p_common,
                                                 expected, rel):
        value = float(mcp_bounds(eta2, gamma2, p_private, p_common)[(1, 1)])
        assert abs(value - expected) <= rel * expected

    def test_sum_without_private_power_equals_common(self):
        # The sum's factored quartic against the common bound's quadratic.
        for gamma2, eta2, _, pc in self.HIGH_POWER_GRID:
            bounds = mcp_bounds(eta2, gamma2, 0.0, pc)
            assert abs(float(bounds[(1, 1)]) - float(bounds[(0, 1)])) <= 1e-14

    @pytest.mark.parametrize("gamma2,eta2,p_private", [
        (1.0, 0.4, 2.0), (2.5, 1e-12, 1000.0), (0.2, 4.0, 1e-300),
        # e^2/W = 2/p_private overflows a float: the factored quartic's small
        # pair is out of reach, and the q = 0 limit is taken instead
        (1.307e-71, 1.588e-4, 3.08e-311),
        # p_private*rw overflows a float in the unused sum roots
        (5e-324, 4.8e-235, 6.8e307),
    ])
    def test_sum_without_common_power_equals_private(self, gamma2, eta2, p_private):
        # warnings are errors here, so an overflow on the way fails too
        scalar = mcp_bounds(eta2, gamma2, p_private, 0.0)
        batch = mcp_bounds(eta2, gamma2, np.array([p_private, 1.0]), np.array([0.0, 1.0]))
        for bounds in (scalar, {key: bound[0] for key, bound in batch.items()}):
            assert bounds[(1, 1)] == bounds[(1, 0)]
            assert np.isfinite(bounds[(1, 1)])
        assert all(batch[key][1] == bound for key, bound in mcp_bounds(eta2, gamma2, 1.0, 1.0).items())

    # Zero or subnormal gains with powers near the float range: p or q/w
    # passes 2^960, and the sum's big root pair once overflowed a float on
    # the way (a NaN sum in the first two rows, a warning in the others).
    # The first row is hop 2 of `point --gamma2 0 --eta2 5e-324 --p2 6e299`
    # at f = 1/2; the last sends p_private past 2^1023.
    #
    # Hop-2 gains past about 1e300 with a tiny common power: e^2/w, the
    # sum roots' tau^2 - delta^2 and a reciprocal's x^2 + y^2 once
    # overflowed (a NaN sum). The first such row is hop 2 of `point --gamma2
    # 8.8e300 --eta2 4.65e301 --p2 3.7e-319` at f = 1/2, and the next three
    # each reach one of the three. Scaled amplitudes still meet p past 2^960
    # in the last two rows, where gamma = 1 and eta is tiny.
    @pytest.mark.parametrize("gamma2,eta2,p_private,p_common", [
        (0.0, 5e-324, 3e299, 3e299), (0.0, 1e-250, 5e307, 5e307),
        (0.0, 5e-324, 9e292, 3e292), (5e-324, 5e-324, 1.7e308, 1e307),
        (8.8e300, 4.65e301, 1.85e-319, 1.85e-319), (3.97e307, 3.3e301, 1.61e-319, 3.76e-319),
        (5e-324, 8.67e306, 1.09e-309, 2.54e-309), (5.89e307, 1.01e302, 6.86e-231, 1.6e-230),
        (1.0, 1e-6, 5.5e307, 1e300), (1.0, 1e-200, 5.9e307, 1e-300),
    ])
    def test_huge_powers_at_tiny_gains(self, gamma2, eta2, p_private, p_common):
        # warnings are errors here, so an overflow on the way fails too
        scalar = mcp_bounds(eta2, gamma2, p_private, p_common)
        row = mcp_bounds(eta2, gamma2, np.array([p_private]), np.array([p_common]))
        private, common, total = (float(scalar[key]) for key in ((1, 0), (0, 1), (1, 1)))
        assert all(math.isfinite(bound) for bound in (private, common, total))
        assert max(private, common) - 1e-12 <= total <= private + common + 1e-12
        assert all(scalar[key] == row[key][0] for key in scalar)

    # P reads the amplitudes only through p*g^2, p*e^2, q*g^2 and q*e^2, so
    # gains times 16^j and powers over 16^j are the same network. The last
    # base row once overflowed a reciprocal's x^2 + y^2 (a NaN sum).
    @pytest.mark.parametrize("gamma2,eta2,p_private,p_common", [
        (1.0, 0.4, 1.0, 1.0), (0.5, 0.3, 0.7, 2.1), (2.5, 2.5, 0.0, 3.0),
        (1.0, 0.0, 2.0, 1.0), (0.0, 1.0, 1.0, 1.0), (5.89e307, 1.01e302, 6.86e-231, 1.6e-230),
    ])
    def test_amplitude_scale_invariance(self, gamma2, eta2, p_private, p_common):
        base = mcp_bounds(eta2, gamma2, p_private, p_common)
        for j in (-250, -60, -1, 1, 7, 60):
            scale = 16.0 ** j  # exact: a power of 2 from 2^-1000 to 2^240
            scaled = (eta2 * scale, gamma2 * scale, p_private / scale, p_common / scale)
            if not all(x == 0.0 or 2.3e-308 <= x < 1e308 for x in scaled):
                continue
            assert mcp_bounds(*scaled) == base, (j, scaled)

    @pytest.mark.parametrize("gamma2", [0.2, 1.0, 2.5])
    def test_flat_private_response(self, gamma2):
        for p in (1e-300, 1e-3, 1.0, 40.0, 1000.0):
            value = float(mcp_bounds(0.0, gamma2, p, 0.0)[(1, 0)])
            assert value == pytest.approx(math.log1p(p * gamma2) / math.log(2.0), rel=1e-15, abs=0)

    @pytest.mark.parametrize("p_private", [1.5, np.linspace(0.0, 3.0, 7)])
    def test_no_linear_algebra(self, p_private, monkeypatch):
        # Every bound is a closed form: no entry point of np.linalg is called.
        def refuse(*args, **kwargs):
            raise AssertionError("mcp_bounds called np.linalg")

        for name in np.linalg.__all__:
            if name != "LinAlgError":
                monkeypatch.setattr(np.linalg, name, refuse)
        for eta2 in (0.0, 0.4, 1.0, 4.0):
            bounds = mcp_bounds(eta2, 1.0, p_private, 3.0 - p_private)
            assert all(np.all(np.isfinite(bound)) for bound in bounds.values())


class TestNumpyRouting:
    """A scalar call reaches numpy's np.hypot, np.log2 and np.log1p where a
    batch's rounding must be matched: each is counted here with the size of
    its first operand, so a swap to ``math.hypot``, ``math.log2`` or
    ``math.log1p`` fails."""

    @staticmethod
    def counting(monkeypatch):
        calls = {"hypot": [], "log2": [], "log1p": []}
        for name, sizes in calls.items():
            def counted(*args, _original=getattr(np, name), _sizes=sizes, **kwargs):
                _sizes.append(np.size(args[0]))
                return _original(*args, **kwargs)
            monkeypatch.setattr(np, name, counted)
        return calls

    @pytest.mark.parametrize("eta2,gamma2,calls", [
        # the common root's hypot, two in the resolvent cubic's start, and
        # |z| of the five roots at once; log2 of the five; log1p in three
        # ``capacity`` calls
        (0.4, 1.0, {"hypot": [1, 1, 1, 5], "log2": [5], "log1p": [1, 1, 1]}),
        # eta2 = gamma2: delta = 0 skips the cubic's start
        (1.0, 1.0, {"hypot": [1, 5], "log2": [5], "log1p": [1, 1, 1]}),
        # no cross gain: the quadratic roots need no hypot
        (0.0, 1.0, {"hypot": [5], "log2": [5], "log1p": [1, 1, 1]}),
    ])
    def test_scalar_mcp_bounds(self, monkeypatch, eta2, gamma2, calls):
        counted = self.counting(monkeypatch)
        bounds = mcp_bounds(eta2, gamma2, 1.0, 2.0)
        assert all(type(bound) is float for bound in bounds.values())
        assert counted == calls

    @pytest.mark.parametrize("gains_fn", [_mac_gains, _coop_gains])
    def test_scalar_rs_bounds(self, monkeypatch, gains_fn):
        counted = self.counting(monkeypatch)
        bounds = _rs_bounds(gains_fn(0.4, 1.0), 0.7, 1.3)
        assert all(type(bound) is float for bound in bounds.values())
        # one scalar ``capacity`` call per bound
        assert counted == {"hypot": [], "log2": [], "log1p": [1, 1, 1, 1, 1]}

    def test_float_maximum_is_numpys(self):
        # the float path's maximum returns np.maximum's bits where Python's
        # max() differs: the second of two signed zeros, and NaN in either place
        values = [-0.0, 0.0, -1.5, 2.0, math.inf, -math.inf, math.nan]
        for x, y in product(values, values):
            assert _FLOATS.maximum(x, y).hex() == float(np.maximum(x, y)).hex(), (x, y)


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
            pp, pc = HopSplit(f).powers(params.p2)
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
            hop2 = _Row(params).hop(2, gains_fn)
            split, value = hop2.split, hop2.value
            assert max_sum_rate(builder(params, split)).value == \
                   pytest.approx(value, rel=1e-15, abs=0.0)
            r_private, rc_two, rc_three = _corner(gains_fn(cross2=params.gamma2,
                                                            intra2=params.eta2),
                                                   *split.powers(params.p2))
            assert r_private + min(rc_two, rc_three) != pytest.approx(value, rel=1e-6)


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
