import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from meshrates.model import HopSplit, NetworkParams, RatePair
from meshrates.oracle import (
    enumerated_vertices,
    full_mac_region_hop1,
    grid_max_sum,
)
from meshrates.polytope import _DEDUP_TOL, LPSolution, contains, max_sum_rate, vertices
from meshrates.regions import (
    Halfspace,
    _corner,
    _hop_lines,
    _mac_gains,
    RateRegion,
    coop_bounds,
    hop1_region,
    hop2_coop_region,
    hop2_mcp_region,
    hop2_rs_region,
)

FIG2 = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=2.0)
HALF = HopSplit(0.5)


def corner(params, split, hop):
    cross2, intra2, total = params.hop(hop)
    r_private, rc_two, rc_three = _corner(_mac_gains(cross2, intra2), *split.powers(total))
    return RatePair(float(r_private), float(min(rc_two, rc_three)))


def make_region(*spec, provenance="custom()"):
    return RateRegion(halfspaces=tuple(Halfspace(*s) for s in spec), provenance=provenance)


BOX = make_region((1, 0, 1.0, "private-single"), (0, 1, 1.0, "common-single"))

HAND_LP = make_region(
    (1, 0, 1.0, "private-single"),
    (0, 1, 0.5, "common-single"),
    (1, 2, 1.5, "sum-2"),
    (1, 3, 1.8, "sum-3"),
)


@st.composite
def regions(draw):
    private = draw(st.floats(min_value=0.0, max_value=3.0))
    common2 = draw(st.floats(min_value=0.0, max_value=3.0))
    sum2 = draw(st.floats(min_value=0.0, max_value=4.0))
    sum3 = draw(st.floats(min_value=0.0, max_value=5.0))
    return make_region(
        (1, 0, private, "private-single"),
        (0, 2, common2, "common-2user"),
        (1, 2, sum2, "sum-2"),
        (1, 3, sum3, "sum-3"),
    )


BUILDERS = (hop1_region, hop2_rs_region, hop2_coop_region, hop2_mcp_region,
            full_mac_region_hop1)


@st.composite
def builder_regions(draw):
    """A region from one of the four builders or the full 15-inequality MAC;
    inter-cell gains up to twice the intra-cell ones, so each hop is out of
    regime in half the draws, and splits at and next to both ends."""
    beta2 = draw(st.floats(min_value=0.2, max_value=2.5))
    gamma2 = draw(st.floats(min_value=0.2, max_value=2.5))
    params = NetworkParams(
        alpha2=draw(st.floats(min_value=0.0, max_value=2.0 * beta2)), beta2=beta2,
        gamma2=gamma2, eta2=draw(st.floats(min_value=0.0, max_value=2.0 * gamma2)),
        p1=draw(st.floats(min_value=0.05, max_value=20.0)),
        p2=draw(st.floats(min_value=0.05, max_value=20.0)))
    split = HopSplit(draw(st.sampled_from((0.0, 1e-12, 1.0 - 1e-12, 1.0))
                          | st.floats(min_value=0.0, max_value=1.0)))
    return draw(st.sampled_from(BUILDERS))(params, split)


@st.composite
def coefficient_regions(draw):
    """A private and a common bound plus up to five lines with any
    coefficient pair from 0..3; every bound is 0 in about half the draws."""
    bound = st.just(0.0) | st.floats(min_value=0.0, max_value=5.0)
    pair = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)
    spec = [(draw(st.integers(1, 3)), 0, draw(bound), "private"),
            (0, draw(st.integers(1, 3)), draw(bound), "common")]
    spec += [(a, b, draw(bound), f"line{i}")
             for i, (a, b) in enumerate(draw(st.lists(pair, max_size=5)))]
    return make_region(*draw(st.permutations(spec)))


def collapsing_max_sum_rate(*regions):
    """``max_sum_rate`` in its former form, kept as a reference: the greedy
    first collapses the lines that share a coefficient pair to their min
    bound, and a line with coef_private = 0 bounds the common rate by
    c/coef_common without reading x."""
    lines = []
    for region in regions:
        prefix = f"{region.short_name}:" if len(regions) > 1 else ""
        for h in region.halfspaces:
            lines.append((float(h.coef_private), float(h.coef_common),
                          h.bound, prefix + h.label))
    bounds = {}
    for a, b, c, _ in lines:
        if 0 < b < a:
            raise ValueError(
                f"greedy max-sum LP needs coef_common >= coef_private, got ({a:g}, {b:g})")
        bounds[a, b] = min(bounds[a, b], c) if (a, b) in bounds else c
    x = min(c / a for (a, b), c in bounds.items() if a > 0)
    y = min((c - a * x) / b if a else c / b for (a, b), c in bounds.items() if b > 0)
    x = float(x) + 0.0
    y = float(max(y, 0.0)) + 0.0
    face = min([x] + [(c - a * x - b * y) / (b - a) for a, b, c, _ in lines if b > a])
    binding = tuple(label for a, b, c, label in lines if abs(a * x + b * y - c) <= 1e-9)
    return LPSolution(value=x + y, point=RatePair(x, y), binding=binding,
                      degenerate=face > 1e-9)


# Every coefficient pair from 0..3 the greedy accepts, and the bound values
# that exercise signed zeros, subnormals, ties and plain magnitudes.
GREEDY_PAIRS = [(a, b) for a in range(4) for b in range(4)
                if (a or b) and not 0 < b < a]
SPECIAL_BOUNDS = (0.0, -0.0, 1e-310, 0.5, 1.0, 1.5, 2.0, 3.0)


def seeded_region(rng, name):
    """A region of 2 to 9 lines drawn with replacement from a few of the
    greedy's coefficient pairs, so pairs repeat within a region; bounds are
    a special value or uniform on [0, 5]."""
    pool = [GREEDY_PAIRS[i] for i in rng.choice(len(GREEDY_PAIRS), size=4)]
    pairs = [(int(rng.integers(1, 4)), 0), (0, int(rng.integers(1, 4)))]
    pairs += [pool[i] for i in rng.integers(0, len(pool), size=int(rng.integers(0, 8)))]
    spec = []
    for k in rng.permutation(len(pairs)):
        bound = (SPECIAL_BOUNDS[rng.integers(len(SPECIAL_BOUNDS))] if rng.random() < 0.5
                 else float(rng.uniform(0.0, 5.0)))
        spec.append((*pairs[k], bound, f"line{k}"))
    return make_region(*spec, provenance=f"{name}()")


class TestMaxSumRate:
    def test_hand_enumerated_example(self):
        lp = max_sum_rate(HAND_LP)
        assert lp.value == pytest.approx(1.25, abs=1e-12)
        assert (lp.point.r_private, lp.point.r_common) == (1.0, 0.25)
        assert set(lp.binding) == {"private-single", "sum-2"}
        assert not lp.degenerate

    def test_common_rate_forced_to_zero(self):
        region = make_region((1, 0, 1.0, "private-single"), (0, 1, 0.0, "common-single"))
        lp = max_sum_rate(region)
        assert lp.value == 1.0
        assert (lp.point.r_private, lp.point.r_common) == (1.0, 0.0)

    def test_hop1_region_attains_corner(self):
        lp = max_sum_rate(hop1_region(FIG2, HALF))
        point = corner(FIG2, HALF, hop=1)
        assert lp.value == pytest.approx(point.total, abs=1e-12)
        assert lp.point.r_private == pytest.approx(point.r_private, abs=1e-9)

    def test_degenerate_tie_reports_largest_private(self):
        region = make_region((1, 0, 1.0, "private-single"), (0, 1, 1.0, "common-single"),
                             (1, 1, 1.0, "sum-all"))
        lp = max_sum_rate(region)
        assert lp.degenerate
        assert (lp.point.r_private, lp.point.r_common) == (1.0, 0.0)

    def test_zero_length_face_is_not_degenerate(self):
        # sum-joint binds, but the common bound pins the optimum to one point
        region = make_region((1, 0, 1.0, "private-single"), (0, 2, 1.0, "common-2user"),
                             (1, 1, 1.5, "sum-joint"), (1, 2, 2.0, "sum-2"))
        lp = max_sum_rate(region)
        assert (lp.point.r_private, lp.point.r_common) == (1.0, 0.5)
        assert set(lp.binding) == {"private-single", "common-2user", "sum-joint", "sum-2"}
        assert not lp.degenerate

    def test_common_coefficient_below_private_is_refused(self):
        # with 0 < coef_common < coef_private the greedy answer is not the optimum
        region = make_region((1, 0, 1.0, "private-single"), (0, 1, 1.0, "common-single"),
                             (2, 1, 1.5, "skewed"))
        with pytest.raises(ValueError, match="coef_common >= coef_private"):
            max_sum_rate(region)

    def test_common_coefficient_below_private_is_refused_in_second_region(self):
        skewed = make_region((1, 0, 1.0, "private-single"), (0, 1, 1.0, "common-single"),
                             (2, 1, 1.5, "skewed"))
        with pytest.raises(ValueError) as excinfo:
            max_sum_rate(BOX, skewed)
        assert str(excinfo.value) == (
            "greedy max-sum LP needs coef_common >= coef_private, got (2, 1)")

    def test_matches_collapsing_greedy_on_seeded_regions(self):
        # single regions and two-region intersections, pairs repeated within
        # and across regions: the same value, point (the sign of a zero
        # included), binding labels and degenerate flag
        rng = np.random.default_rng(23)
        for k in range(6000):
            regions = [seeded_region(rng, "first")]
            if k % 2:
                regions.append(seeded_region(rng, "second"))
            want = collapsing_max_sum_rate(*regions)
            got = max_sum_rate(*regions)
            assert repr(got) == repr(want), regions
            assert type(got.degenerate) is bool

    def test_plain_python_values_for_numpy_bounds(self):
        region = make_region((1, 0, np.float64(1.0), "private-single"),
                             (0, 1, np.float64(0.5), "common-single"),
                             (1, 2, np.float64(1.5), "sum-2"))
        lp = max_sum_rate(region)
        assert type(lp.value) is float
        assert type(lp.point.r_private) is float and type(lp.point.r_common) is float
        assert type(lp.degenerate) is bool

    @given(st.one_of(regions(), builder_regions()))
    @example(make_region((1, 0, 1e-305, "private-single"), (0, 2, 3.0, "common-2user"),
                         (1, 2, 1.0, "sum-2"), (1, 3, 1.0, "sum-3")))
    @settings(max_examples=150, deadline=None)
    def test_equals_best_vertex(self, region):
        # the oracle enumerates pairwise intersections: an independent route.
        # It merges points closer than 1e-10, so in a region smaller than
        # that its best vertex may sit up to 2e-10 below the optimum.
        lp = max_sum_rate(region)
        gap = lp.value - max(v.total for v in enumerated_vertices(region))
        assert -1e-12 <= gap <= 1e-12 + 2 * _DEDUP_TOL

    @given(st.floats(min_value=0.0, max_value=2.5), st.floats(min_value=0.0, max_value=2.5),
           st.floats(min_value=0.05, max_value=20.0), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_shared_pairs_collapse_bit_for_bit(self, alpha2, eta2, power, f1, f2):
        # hop 1 and the coop hop 2 share all five coefficient pairs; the
        # greedy formula over every line of both:
        params = NetworkParams(alpha2=alpha2, beta2=1.0, gamma2=1.0, eta2=eta2,
                               p1=power, p2=power)
        hop1 = hop1_region(params, HopSplit(f1))
        coop = hop2_coop_region(params, HopSplit(f2))
        lines = [(h.coef_private, h.coef_common, h.bound)
                 for region in (hop1, coop) for h in region.halfspaces]
        x = min(c / a for a, b, c in lines if a > 0)
        y = max(min((c - a * x) / b for a, b, c in lines if b > 0), 0.0)
        lp = max_sum_rate(hop1, coop)
        assert (lp.point.r_private, lp.point.r_common) == (x + 0.0, y + 0.0)
        assert lp.value == (x + 0.0) + (y + 0.0)

    def test_multi_region_labels_qualified(self):
        lp = max_sum_rate(hop1_region(FIG2, HALF), BOX)
        assert all(":" in label for label in lp.binding)
        assert any(label.startswith("hop1:") for label in lp.binding)

    def test_unbounded_up_front(self):
        with pytest.raises(ValueError):
            make_region((1, 0, 1.0, "private-single"))
        with pytest.raises(ValueError, match="unbounded in R_private"):
            make_region((0, 1, 1.0, "common-single"), (1, 1, 1.5, "sum-joint"))
        with pytest.raises(ValueError):
            max_sum_rate()

    @given(regions())
    @settings(max_examples=80)
    def test_solution_feasible_at_tight_tolerance(self, region):
        lp = max_sum_rate(region)
        assert contains(region, lp.point, tol=1e-12)
        assert lp.value == lp.point.r_private + lp.point.r_common

    @given(regions(), regions())
    @settings(max_examples=60)
    def test_intersection_never_increases_value(self, a, b):
        assert max_sum_rate(a, b).value <= max_sum_rate(a).value + 1e-12
        assert max_sum_rate(a, b).value <= max_sum_rate(b).value + 1e-12

    @given(regions())
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_lattice_oracle(self, region):
        lp = max_sum_rate(region)
        reference = grid_max_sum(region, step=1e-3)
        assert abs(lp.value - reference) <= 5e-3


class TestContains:
    def test_origin_always_inside(self):
        assert contains(HAND_LP, RatePair(0.0, 0.0))

    def test_vertex_a_in_own_region(self):
        point = corner(FIG2, HALF, hop=1)
        assert contains(hop1_region(FIG2, HALF), point, tol=1e-12)

    def test_just_outside_private_bound(self):
        region = hop1_region(FIG2, HALF)
        bound = region.halfspaces[0].bound
        assert not contains(region, RatePair(bound + 0.01, 0.0), tol=1e-12)


class TestVertices:
    @given(st.one_of(builder_regions(), coefficient_regions()))
    @example(make_region((1, 0, 1.0, "private"), (0, 3, 1.0, "common"),
                         (1, 2, 1.0, "sum-2"), (3, 1, 1.5, "steep")))
    # coop's hop 2 at 2e-10 private power, ~3e-10 wide: the hull's turn at
    # the vertex where sum-3 meets common-3user has a cross product of ~7e-21
    # between edges ~1e-10 long, though its sine is ~0.16; both keep it.
    @example(make_region(*_hop_lines(coop_bounds(0.0, 1.0, 2e-10, 1.0))))
    @settings(max_examples=300, deadline=None)
    def test_walk_matches_enumeration(self, region):
        # the same vertices, up to twice the 1e-10 merge tolerance: in a
        # region narrower than that the two merge different near-duplicates
        walk = vertices(region)
        reference = enumerated_vertices(region)
        assert len(walk) == len(reference)
        for v, w in zip(walk, reference):
            assert abs(v.r_private - w.r_private) <= 2 * _DEDUP_TOL
            assert abs(v.r_common - w.r_common) <= 2 * _DEDUP_TOL

    def test_unit_box(self):
        verts = [(v.r_private, v.r_common) for v in vertices(BOX)]
        assert verts == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

    def test_fig2_includes_corner_a(self):
        verts = vertices(hop1_region(FIG2, HALF))
        assert any(abs(v.r_private - 0.6374) < 5e-4 and abs(v.r_common - 0.1813) < 5e-4
                   for v in verts)

    def test_degenerate_segment(self):
        region = make_region((1, 0, 1.0, "private-single"), (0, 1, 0.0, "common-single"))
        verts = [(v.r_private, v.r_common) for v in vertices(region)]
        assert verts == [(0.0, 0.0), (1.0, 0.0)]

    def test_redundant_constraint_dropped(self):
        region = make_region((1, 0, 1.0, "private-single"), (0, 1, 1.0, "common-single"),
                             (1, 1, 5.0, "sum-loose"))
        verts = [(v.r_private, v.r_common) for v in vertices(region)]
        assert verts == [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

    @given(regions())
    @settings(max_examples=60)
    def test_counterclockwise_and_feasible(self, region):
        verts = vertices(region)
        assert verts, "a bounded nonempty region has at least the origin"
        for v in verts:
            assert contains(region, v, tol=1e-9)
        # shoelace area of the CCW polygon is non-negative
        area = 0.0
        for a, b in zip(verts, verts[1:] + verts[:1]):
            area += a.r_private * b.r_common - b.r_private * a.r_common
        assert area >= -1e-12
