"""End-to-end achievable rates per transmission scheme.

Every scheme maps a network instance to the best rate its coding strategy
supports, optimizing the private/common power split of each hop. A hop's own
split (rate splitting, the first-hop bound) is optimized in closed form: the
corner sum rate peaks at one of five candidate fractions, evaluated exactly.
Only the joint (f1, f2) searches of coop and mcp are grids: a coarse grid,
then local refinement, over the same greedy max-sum LP as
``polytope.max_sum_rate`` on broadcast grids of constraint bounds; the
returned rates are re-evaluated through the exact region/LP path at the
winning splits, and the mcp search and its final region read the same
closed-form bounds.

Half duplex scales every final rate by 1/2; the optional power boost doubles
both transmit powers first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HopSplit, NetworkParams, RatePair, capacity
from .polytope import greedy_max_sum, max_sum_rate
from .regions import (
    LABEL_COMMON2,
    LABEL_COMMON3,
    coop_bounds,
    corner_rates,
    corner_sum_rate,
    hop1_region,
    hop2_coop_region,
    hop2_mcp_region,
    hop_terms,
    mac_bounds,
    mcp_bounds,
    vertex_a,
)

SCHEME_SINGLE = "single_rate"
SCHEME_RS = "rate_splitting"
SCHEME_COOP = "coop"
SCHEME_MCP = "mcp"
SCHEME_BOUND = "first_hop_bound"
ALL_SCHEMES = (SCHEME_SINGLE, SCHEME_RS, SCHEME_COOP, SCHEME_MCP, SCHEME_BOUND)

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


def _bottleneck(rate1: float, rate2: float, tol: float = 1e-12):
    if abs(rate1 - rate2) <= tol:
        return "balanced"
    return 1 if rate1 < rate2 else 2


# ---------------------------------------------------------------------------
# Single-rate transmission
# ---------------------------------------------------------------------------

def single_rate(params: NetworkParams) -> SchemeResult:
    """Plain decode-and-forward with single-user decoding in both hops."""
    work = params.effective()
    sinr1 = work.beta2 * work.p1 / (1.0 + 2.0 * work.alpha2 * work.p1)
    sinr2 = work.gamma2 * work.p2 / (1.0 + 2.0 * work.eta2 * work.p2)
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


def _optimize_hop_split(cross2: float, intra2: float, total: float) -> tuple[float, float]:
    """Maximize the hop's corner sum rate over the private power fraction.

    Returns (f_hat, rate); near-ties resolve toward the largest fraction, so
    f_hat = 1 stays exact where all-private transmission is optimal.
    """
    fs = _hop_split_candidates(cross2, intra2, total)
    p_common = total - fs * total  # exactly as HopSplit.powers splits
    values = corner_sum_rate(cross2, intra2, total - p_common, p_common)
    # Ties only at rounding level, so an interior optimum a few ulps above the
    # endpoint still wins.
    idx = _pick_last_max(values, tie_tol=1e-15)
    return float(fs[idx]), float(values[idx])


def _corner_binding(params: NetworkParams, split: HopSplit, hop: int) -> tuple[str, ...]:
    """Which common-rate bound attains the min at the hop's corner point."""
    cross2, intra2, total = hop_terms(params, hop)
    pw = split.powers(total)
    _, rc_two, rc_three = corner_rates(cross2, intra2, pw.p_private, pw.p_common, capacity)
    if abs(rc_two - rc_three) <= 1e-12:
        return (LABEL_COMMON2, LABEL_COMMON3)
    return (LABEL_COMMON2,) if rc_two < rc_three else (LABEL_COMMON3,)


def rate_splitting(params: NetworkParams) -> SchemeResult:
    """Rate splitting in both hops, each hop optimized independently.

    The end-to-end rate is the smaller of the two per-hop corner optima. The
    reported operating point is the first-hop corner at its optimal split;
    binding names the common-rate bound attaining the corner minimum on the
    bottleneck hop.
    """
    work = params.effective()
    scale = params.rate_scale()
    f1, rate1 = _optimize_hop_split(work.alpha2, work.beta2, work.p1)
    f2, rate2 = _optimize_hop_split(work.eta2, work.gamma2, work.p2)
    split1, split2 = HopSplit(f1), HopSplit(f2)
    point1, _ = vertex_a(work, split1, hop=1)
    return SchemeResult(
        scheme=SCHEME_RS,
        rate=min(rate1, rate2) * scale,
        split_hop1=split1,
        split_hop2=split2,
        operating_point=_scale_point(point1, scale),
        binding=_corner_binding(work, split1 if rate1 <= rate2 else split2,
                                1 if rate1 <= rate2 else 2),
        bottleneck_hop=_bottleneck(rate1, rate2),
    )


def first_hop_upper_bound(params: NetworkParams) -> SchemeResult:
    """Best first-hop rate over splits; caps every two-hop scheme here."""
    work = params.effective()
    scale = params.rate_scale()
    f1, rate1 = _optimize_hop_split(work.alpha2, work.beta2, work.p1)
    split1 = HopSplit(f1)
    point1, _ = vertex_a(work, split1, hop=1)
    return SchemeResult(
        scheme=SCHEME_BOUND,
        rate=rate1 * scale,
        split_hop1=split1,
        operating_point=_scale_point(point1, scale),
        binding=_corner_binding(work, split1, 1),
    )


def optimal_private_fraction(params: NetworkParams) -> tuple[float, float]:
    """Optimal private power fraction of each hop under rate splitting.

    For matched gains and equal powers both fractions coincide. Boundary
    ties resolve toward all-private (fraction 1).
    """
    work = params.effective()
    f1, _ = _optimize_hop_split(work.alpha2, work.beta2, work.p1)
    f2, _ = _optimize_hop_split(work.eta2, work.gamma2, work.p2)
    return f1, f2


# ---------------------------------------------------------------------------
# Joint (f1, f2) optimization for cooperative / joint-decoding second hops
# ---------------------------------------------------------------------------

def _hop1_lines(work: NetworkParams, f1: np.ndarray) -> list[tuple[float, float, np.ndarray]]:
    p_private = f1 * work.p1
    bounds = mac_bounds(work.alpha2, work.beta2, p_private, work.p1 - p_private)
    return [(float(a), float(b), np.asarray(c)[:, None]) for (a, b), c in bounds.items()]


def _hop2_lines(work: NetworkParams, bounds_fn,
                f2: np.ndarray) -> list[tuple[float, float, np.ndarray]]:
    p_private = f2 * work.p2
    bounds = bounds_fn(work.gamma2, work.eta2, p_private, work.p2 - p_private)
    return [(float(a), float(b), np.asarray(c)[None, :]) for (a, b), c in bounds.items()]


def _joint_values(work: NetworkParams, bounds_fn, f1: np.ndarray,
                  f2: np.ndarray) -> np.ndarray:
    """Max-sum LP value of hop 1 at f1[i] intersected with hop 2 at f2[j],
    whose bounds ``bounds_fn`` (``coop_bounds`` or ``mcp_bounds``) gives."""
    lines = _hop1_lines(work, f1) + _hop2_lines(work, bounds_fn, f2)
    r_private, r_common = greedy_max_sum(lines)
    return r_private + r_common


# Unlike the per-hop split, the joint (f1, f2) optimum has no closed form:
# a 101-point grid per split, then three 11-point passes, each 10x narrower.
_JOINT_GRID_POINTS = 101
_JOINT_REFINE_PASSES = 3


def _search_joint_splits(work: NetworkParams, bounds_fn) -> tuple[float, float]:
    """Coarse 2-D grid over (f1, f2) plus shrinking local grid refinement."""
    f1 = np.linspace(0.0, 1.0, _JOINT_GRID_POINTS)
    f2 = np.linspace(0.0, 1.0, _JOINT_GRID_POINTS)
    values = _joint_values(work, bounds_fn, f1, f2)
    flat = _pick_last_max(values.ravel())
    i, j = divmod(flat, values.shape[1])
    best_f1, best_f2 = float(f1[i]), float(f2[j])

    window = 1.0 / (_JOINT_GRID_POINTS - 1)
    for _ in range(_JOINT_REFINE_PASSES):
        f1_local = np.clip(np.linspace(best_f1 - window, best_f1 + window, 11), 0.0, 1.0)
        f2_local = np.clip(np.linspace(best_f2 - window, best_f2 + window, 11), 0.0, 1.0)
        local = _joint_values(work, bounds_fn, f1_local, f2_local)
        flat = _pick_last_max(local.ravel())
        i, j = divmod(flat, local.shape[1])
        best_f1, best_f2 = float(f1_local[i]), float(f2_local[j])
        window /= 10.0
    return best_f1, best_f2


def _joint(scheme: str, params: NetworkParams, bounds_fn, region_fn) -> SchemeResult:
    """Rate splitting in hop 1, hop 2 from ``region_fn`` with the bounds
    ``bounds_fn`` gives on split grids. The inner problem for fixed splits is
    the exact LP over the intersection of the two hop regions; the outer
    search sweeps both split fractions."""
    work = params.effective()
    scale = params.rate_scale()
    f1, f2 = _search_joint_splits(work, bounds_fn)
    split1, split2 = HopSplit(f1), HopSplit(f2)
    lp = max_sum_rate(hop1_region(work, split1), region_fn(work, split2))
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
    return _joint(SCHEME_COOP, params, coop_bounds, hop2_coop_region)


def mcp(params: NetworkParams) -> SchemeResult:
    """Cooperative second hop decoded jointly across all base stations."""
    return _joint(SCHEME_MCP, params, mcp_bounds, hop2_mcp_region)


# ---------------------------------------------------------------------------
# Very-strong-interference thresholds (first hop, all power on common)
# ---------------------------------------------------------------------------

_VSI_PATTERNS = (
    # (own codewords, cross codewords, label)
    (1, 0, "common-1user-own"),
    (0, 1, "common-1user-cross"),
    (1, 1, "common-2user-mixed"),
    (0, 2, "common-2user-cross"),
    (1, 2, "common-3user"),
)


def vsi_threshold(beta2: float, p1: float, method: str = "exact") -> float:
    """Smallest inter-cell gain for which common-only transmission reaches
    the interference-free single-user rate on the first hop.

    ``method='paper'`` evaluates the printed closed-form sufficient condition
    (together with the printed two-user terms and the single-user floor);
    ``method='exact'`` solves each of the seven MAC inequalities for the gain
    and takes the largest, which is smaller in general. ``vsi_check`` is the
    arbiter between the two.
    """
    if not (beta2 > 0.0 and p1 > 0.0):
        raise ValueError("vsi_threshold needs positive beta2 and p1")
    if method == "paper":
        two_user = beta2 * max(p1 / 2.0 + 1.0, beta2 * p1 + 1.0)
        three_user = beta2 * (2.0 + 3.0 * p1 + beta2 ** 2 * p1)
        return max(beta2, two_user, three_user)
    if method == "exact":
        x = beta2 * p1
        candidates = [
            beta2,                                   # cross single-user
            beta2 * (1.0 + x),                       # own+cross pair
            beta2 * (1.0 + 0.5 * x),                 # cross pair
            beta2 * (1.0 + 1.5 * x + 0.5 * x * x),   # all three
        ]
        return max(candidates)
    raise ValueError(f"method must be 'paper' or 'exact', got {method!r}")


def vsi_check(params: NetworkParams) -> tuple[bool, str]:
    """Directly test the seven common-message MAC inequalities.

    With all first-hop power on the common codebook, every subset bound of
    the three-user MAC seen at a relay must support the per-user rate
    C(beta2*p1). Returns the verdict and the tightest cross-involving bound
    (the own-codeword bound is tight by construction and not reported).
    """
    work = params.effective()
    target = capacity(work.beta2 * work.p1)
    ok = True
    binding = ""
    worst = math.inf
    for n_own, n_cross, label in _VSI_PATTERNS:
        users = n_own + n_cross
        power = (n_own * work.beta2 + n_cross * work.alpha2) * work.p1
        slack = capacity(power) / users - target
        if slack < -1e-12:
            ok = False
        if n_cross >= 1 and slack < worst:
            worst = slack
            binding = label
    return ok, binding
