"""End-to-end achievable rates per transmission scheme.

Every scheme maps a network instance to the best rate its coding strategy
supports, optimizing the private/common power split of each hop. A hop's own
split (rate splitting, the first-hop bound) is optimized in closed form: the
corner sum rate peaks at one of five candidate fractions, whose corners are
evaluated once; the winning corner gives the rate, the operating point and
the binding bound alike. The joint (f1, f2) search of coop and mcp first
scores hop 1's optimal split against a grid of hop-2 splits: hop 1's optimum
caps every joint rate, so a cell that reaches it is exact. Elsewhere it is
grids: one table of passes, each grid centred on the previous best, every
cell scored by the max-sum LP of its two hops (``polytope._max_sum_grid``).
Each hop's bounds are evaluated once per scoring: the returned rate,
operating point and binding constraints come from ``max_sum_rate`` on the
regions of the bounds scored at the winning cell, so the rate is that cell's
value bit for bit.

Half duplex scales every final rate by 1/2; the optional power boost doubles
both transmit powers first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HopSplit, NetworkParams, RatePair, capacity, split_powers
from .polytope import _max_sum_grid, max_sum_rate
from .regions import (
    LABEL_COMMON2,
    LABEL_COMMON3,
    coop_bounds,
    corner_rates,
    hop_region,
    mac_bounds,
    mcp_bounds,
)

SCHEME_SINGLE = "single_rate"
SCHEME_RS = "rate_splitting"
SCHEME_COOP = "coop"
SCHEME_MCP = "mcp"
SCHEME_BOUND = "first_hop_bound"


@dataclass(frozen=True)
class SchemeResult:
    """One scheme's achievable rate and how it is attained.

    Fields that do not apply to a scheme stay at their defaults (no splits
    for single-rate, no second-hop split for the first-hop bound, ...).
    Rates and operating points are end-to-end values, i.e. already scaled
    for half duplex; split fractions are not scaled.
    """

    scheme: str
    rate: float
    split_hop1: HopSplit | None = None
    split_hop2: HopSplit | None = None
    operating_point: RatePair | None = None
    binding: tuple[str, ...] = ()
    bottleneck_hop: int | str | None = None


def _scale_point(point: RatePair, scale: float) -> RatePair:
    return point if scale == 1.0 else RatePair(scale * point.r_private, scale * point.r_common)


def _bottleneck(rate1: float, rate2: float):
    if abs(rate1 - rate2) <= 1e-12:
        return "balanced"
    return 1 if rate1 < rate2 else 2


# ---------------------------------------------------------------------------
# Single-rate transmission
# ---------------------------------------------------------------------------

def single_rate(params: NetworkParams) -> SchemeResult:
    """Plain decode-and-forward with single-user decoding in both hops."""
    sinr1, sinr2 = (intra2 * total / (1.0 + 2.0 * cross2 * total)
                    for cross2, intra2, total in (params.hop(1), params.hop(2)))
    rate = capacity(min(sinr1, sinr2)) * params.rate_scale()
    return SchemeResult(
        scheme=SCHEME_SINGLE,
        rate=rate,
        bottleneck_hop=_bottleneck(sinr1, sinr2),
    )


# ---------------------------------------------------------------------------
# Per-hop split optimization (1-D)
# ---------------------------------------------------------------------------

def _pick_last_max(values: np.ndarray, tie_tol: float = 1e-12) -> int:
    """Index of the maximum, resolving near-ties toward the last (largest f)."""
    top = float(np.max(values))
    return int(np.nonzero(values >= top - tie_tol)[0][-1])


def _hop_split_candidates(cross2: float, intra2: float, total: float) -> np.ndarray:
    """Private power fractions, ascending, among which the hop's corner sum
    rate attains its maximum.

    With a = cross2, b = intra2, c = 2a + b, x the private power, D0 = 1 + 2aP
    and K = 1 + cP, the corner sum rate is min(S2, S3) with
        S2 = log2(1 + cx)/2 - log2(1 + 2ax) + log2(D0 + bx)/2,
        S3 = 2 log2(1 + cx)/3 - log2(1 + 2ax) + log2(K)/3.
    Over common denominators the numerator of each derivative is linear in x
    (for S2 the x^2 terms cancel), so each branch has at most one stationary
    point, and the maximum over [0, P] sits at an endpoint, at one of these
    two points, or where the branches cross: (D0 + bx)^3 = K^2 (1 + cx), a
    cubic with the root x = P whose quotient quadratic has exactly one
    positive root in D0 + bx. Interior candidates that are not finite
    (degenerate gains) or fall outside (0, P) are dropped: clipped, they
    would repeat an endpoint.
    """
    # numpy scalars: a zero divisor gives inf or nan here, not ZeroDivisionError
    a, b, p = np.float64(cross2), np.float64(intra2), np.float64(total)
    with np.errstate(all="ignore"):
        c = 2.0 * a + b
        d0 = 1.0 + 2.0 * a * p
        k = 1.0 + c * p
        stationary3 = (b - a) / (a * c)
        stationary2 = ((b - 2.0 * a) * d0 + b) / (2.0 * (a * c * d0 + a * b - b * c))
        # (D0 + bx)/K at the crossing, (sqrt(1 + 8a/b) - 1)/2, written
        # without the cancellation at small a/b
        ratio = 4.0 * a / (b * (np.sqrt(1.0 + 8.0 * a / b) + 1.0))
        crossing = (k * ratio - d0) / b
        fs = np.array([stationary3, stationary2, crossing]) / p
    interior = fs[(fs > 0.0) & (fs < 1.0)]
    return np.concatenate(([0.0], np.sort(interior), [1.0]))


def _hop_optimum(cross2: float, intra2: float,
                 total: float) -> tuple[HopSplit, RatePair, tuple[str, ...]]:
    """The hop's split that maximizes its corner sum rate, that corner, and
    the common-rate bound attaining the corner's minimum.

    All three come from one evaluation of the candidates' corners, so the
    rate is the corner's total exactly. Near-ties resolve toward the largest
    fraction, so f_hat = 1 stays exact where all-private transmission is
    optimal.
    """
    fs = _hop_split_candidates(cross2, intra2, total)
    r_private, rc_two, rc_three = corner_rates(cross2, intra2, *split_powers(fs, total))
    # Ties only at rounding level, so an interior optimum a few ulps above the
    # endpoint still wins.
    idx = _pick_last_max(r_private + np.minimum(rc_two, rc_three), tie_tol=1e-15)
    rc_two, rc_three = float(rc_two[idx]), float(rc_three[idx])
    corner = RatePair(float(r_private[idx]), min(rc_two, rc_three))
    if abs(rc_two - rc_three) <= 1e-12:
        binding = (LABEL_COMMON2, LABEL_COMMON3)
    else:
        binding = (LABEL_COMMON2,) if rc_two < rc_three else (LABEL_COMMON3,)
    return HopSplit(float(fs[idx])), corner, binding


def rate_splitting(params: NetworkParams) -> SchemeResult:
    """Rate splitting in both hops, each hop optimized independently.

    The end-to-end rate is the smaller of the two per-hop corner optima. The
    reported operating point is the first-hop corner at its optimal split;
    binding names the common-rate bound attaining the corner minimum on the
    bottleneck hop.
    """
    scale = params.rate_scale()
    split1, corner1, binding1 = _hop_optimum(*params.hop(1))
    split2, corner2, binding2 = _hop_optimum(*params.hop(2))
    rate1, rate2 = corner1.total, corner2.total
    return SchemeResult(
        scheme=SCHEME_RS,
        rate=min(rate1, rate2) * scale,
        split_hop1=split1,
        split_hop2=split2,
        operating_point=_scale_point(corner1, scale),
        binding=binding1 if rate1 <= rate2 else binding2,
        bottleneck_hop=_bottleneck(rate1, rate2),
    )


def first_hop_upper_bound(params: NetworkParams) -> SchemeResult:
    """Best first-hop rate over splits; caps every two-hop scheme here."""
    scale = params.rate_scale()
    split1, corner1, binding1 = _hop_optimum(*params.hop(1))
    return SchemeResult(
        scheme=SCHEME_BOUND,
        rate=corner1.total * scale,
        split_hop1=split1,
        operating_point=_scale_point(corner1, scale),
        binding=binding1,
    )


def optimal_private_fraction(params: NetworkParams) -> tuple[float, float]:
    """Optimal private power fraction of each hop under rate splitting.

    For matched gains and equal powers both fractions coincide. Boundary
    ties resolve toward all-private (fraction 1).
    """
    result = rate_splitting(params)
    return result.split_hop1.f_private, result.split_hop2.f_private


# ---------------------------------------------------------------------------
# Joint (f1, f2) optimization for cooperative / joint-decoding second hops
# ---------------------------------------------------------------------------

# Unlike the per-hop split, the joint (f1, f2) optimum has no closed form.
# Each pass is (points per split, half-width of the window around the best
# split so far): a 101-point grid over [0, 1], then three 11-point passes,
# each 10x narrower.
_JOINT_PASSES = ((101, 0.5), (11, 1e-2), (11, 1e-3), (11, 1e-4))
_STEPS = {points: np.arange(points, dtype=float) for points, _ in _JOINT_PASSES}


def _split_grid(centre: float, points: int, window: float) -> np.ndarray:
    """np.clip(np.linspace(centre - window, centre + window, points), 0, 1), bit for bit."""
    start, stop = centre - window, centre + window
    grid = start + _STEPS[points] * ((stop - start) / (points - 1))
    grid[-1] = stop
    return np.minimum(np.maximum(grid, 0.0, out=grid), 1.0, out=grid)


def _search_joint_splits(params: NetworkParams, bounds_fn) -> tuple[float, float, dict, dict]:
    """Hop 1's exact optimum first, else shrinking grids over (f1, f2).

    Hop 1's max-sum LP at any f1 caps every joint rate, and its maximum over
    f1 is the corner optimum of ``_hop_optimum``. So the split f1-hat is
    scored first, against pass 1's hop-2 grid: a cell within 1e-12 of that
    optimum is the joint optimum within 1e-12 and is returned. Otherwise
    the passes run, each grid centred on the previous best, pass 1 on the
    hop-2 bounds already evaluated.

    Returns the best (f1, f2) and each hop's bounds at it, read from the
    arrays that were scored, so the winning cell's value is the max-sum LP
    over exactly these bounds.
    """
    cross1, intra1, total1 = params.hop(1)
    cross2, intra2, total2 = params.hop(2)
    split, corner, _ = _hop_optimum(cross1, intra1, total1)
    f1 = np.array([split.f_private])
    f2 = _split_grid(0.5, *_JOINT_PASSES[0])
    bounds1 = mac_bounds(cross1, intra1, *split_powers(f1, total1))
    bounds2 = bounds_fn(cross2, intra2, *split_powers(f2, total2))
    row = _max_sum_grid(bounds1, bounds2)[0]
    i, j = 0, _pick_last_max(row)
    if row[j] < corner.total - 1e-12:
        f1 = (0.5,)
        for k, (points, window) in enumerate(_JOINT_PASSES):
            f1 = _split_grid(float(f1[i]), points, window)
            bounds1 = mac_bounds(cross1, intra1, *split_powers(f1, total1))
            if k:
                f2 = _split_grid(float(f2[j]), points, window)
                bounds2 = bounds_fn(cross2, intra2, *split_powers(f2, total2))
            values = _max_sum_grid(bounds1, bounds2)
            i, j = divmod(_pick_last_max(values.ravel()), values.shape[1])
    return (float(f1[i]), float(f2[j]), {key: c[i] for key, c in bounds1.items()},
            {key: c[j] for key, c in bounds2.items()})


def _joint(scheme: str, params: NetworkParams, bounds_fn) -> SchemeResult:
    """Rate splitting in hop 1, hop 2 with the bounds ``bounds_fn`` gives on
    split grids; the hop-2 region is named after the scheme (``hop2-coop``,
    ``hop2-mcp``). The inner problem for fixed splits is the exact LP over
    the intersection of the two hop regions; the outer search stops at hop
    1's optimal split where a hop-2 split reaches its rate and sweeps both
    split fractions elsewhere. The LP runs once more, on the regions of the
    bounds the search scored at its winning cell, for the operating point
    and the binding constraints."""
    scale = params.rate_scale()
    f1, f2, bounds1, bounds2 = _search_joint_splits(params, bounds_fn)
    split1, split2 = HopSplit(f1), HopSplit(f2)
    lp = max_sum_rate(hop_region("hop1", params, split1.powers(params.hop(1)[2]), bounds1),
                      hop_region(f"hop2-{scheme}", params, split2.powers(params.hop(2)[2]),
                                 bounds2))
    return SchemeResult(
        scheme=scheme,
        rate=lp.value * scale,
        split_hop1=split1,
        split_hop2=split2,
        operating_point=_scale_point(lp.point, scale),
        binding=lp.binding,
    )


def coop(params: NetworkParams) -> SchemeResult:
    """Rate splitting in hop 1 with cooperative common relaying in hop 2."""
    return _joint(SCHEME_COOP, params, coop_bounds)


def mcp(params: NetworkParams) -> SchemeResult:
    """Cooperative second hop decoded jointly across all base stations."""
    return _joint(SCHEME_MCP, params, mcp_bounds)


# ---------------------------------------------------------------------------
# Very-strong-interference thresholds (first hop, all power on common)
# ---------------------------------------------------------------------------

_VSI_PATTERNS = (
    # (own codewords, cross codewords, label); the own codeword alone is
    # tight by construction
    (0, 1, "common-1user-cross"),
    (1, 1, "common-2user-mixed"),
    (0, 2, "common-2user-cross"),
    (1, 2, "common-3user"),
)


def vsi_threshold(beta2: float, p1: float, method: str = "exact") -> float:
    """Smallest inter-cell gain for which common-only transmission reaches
    the interference-free single-user rate on the first hop.

    ``method='exact'`` is the three-codeword inequality's root
    beta2 (1 + x)(1 + x/2), x = beta2*p1, which is at least the other
    cross-involving roots beta2, beta2 (1 + x) and beta2 (1 + x/2).
    ``method='paper'`` is the printed three-user sufficient condition; it
    exceeds the printed two-user terms and the beta2 floor by at least
    beta2 (1 + 2.5 p1), and the exact root only at small gains and powers.
    ``vsi_check`` is the arbiter between the two.
    """
    if not (math.isfinite(beta2) and math.isfinite(p1) and beta2 > 0.0 and p1 > 0.0):
        raise ValueError(f"vsi_threshold needs finite positive beta2 and p1, "
                         f"got beta2={beta2!r}, p1={p1!r}")
    if method == "paper":
        try:
            threshold = beta2 * (2.0 + 3.0 * p1 + beta2 ** 2 * p1)
        except OverflowError:  # beta2 ** 2 past the float range
            threshold = math.inf
    elif method == "exact":
        x = beta2 * p1
        threshold = beta2 * (1.0 + 1.5 * x + 0.5 * x * x)
    else:
        raise ValueError(f"method must be 'paper' or 'exact', got {method!r}")
    if not math.isfinite(threshold):
        raise ValueError(f"vsi threshold overflows a float at beta2={beta2!r}, p1={p1!r}")
    return threshold


def vsi_check(params: NetworkParams) -> tuple[bool, str]:
    """Directly test the cross-involving common-message MAC inequalities.

    With all first-hop power on the common codebook, every subset bound of
    the three-user MAC seen at a relay must support the per-user rate
    C(beta2*p1). Returns the verdict and the tightest bound.
    """
    alpha2, beta2, p1 = params.hop(1)
    target = capacity(beta2 * p1)
    ok = True
    binding = ""
    worst = math.inf
    for n_own, n_cross, label in _VSI_PATTERNS:
        users = n_own + n_cross
        power = (n_own * beta2 + n_cross * alpha2) * p1
        slack = capacity(power) / users - target
        if slack < -1e-12:
            ok = False
        if slack < worst:
            worst = slack
            binding = label
    return ok, binding
