"""End-to-end achievable rates per transmission scheme.

Every scheme maps a network instance to the best rate its coding strategy
supports, optimizing the private/common power split of each hop. The split
searches run on a coarse grid first (the objectives are minima of concave
pieces, hence not concave) and then refine locally; the returned rates are
re-evaluated through the exact region/LP path at the winning splits. The
joint (f1, f2) searches of coop and mcp evaluate the same greedy max-sum LP
as ``polytope.max_sum_rate``, on broadcast grids of constraint bounds, and
the mcp search and its final region read the same closed-form bounds.

Half duplex scales every final rate by 1/2; the optional power boost doubles
both transmit powers first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HopSplit, NetworkParams, RatePair, capacity
from .polytope import LPSolution, greedy_max_sum, max_sum_rate
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

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Five golden-section steps shrink a bracket by 0.618^5 < 1/10.
_GOLDEN_ITERS_PER_PASS = 5


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the power-split search.

    coarse_points grid values per split dimension, then refine_iters local
    passes each shrinking the search window by 10x.
    """

    coarse_points: int = 101
    refine_iters: int = 3

    def __post_init__(self) -> None:
        if self.coarse_points < 11:
            raise ValueError(f"coarse_points must be >= 11, got {self.coarse_points}")
        if self.refine_iters < 0:
            raise ValueError(f"refine_iters must be >= 0, got {self.refine_iters}")


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


def _golden_refine(objective, lo: float, hi: float, iters: int,
                   best_f: float, best_v: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    for f, v in ((c, fc), (d, fd)):
        if v > best_v + 1e-15:
            best_f, best_v = f, v
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
            f_new, v_new = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
            f_new, v_new = d, fd
        if v_new > best_v + 1e-15:
            best_f, best_v = f_new, v_new
    return best_f, best_v


def _common_bound_crossings(cross2: float, intra2: float, total: float,
                            fs: np.ndarray) -> list[float]:
    """Fractions where the 2-user and 3-user common bounds of the corner
    objective cross. The corner sum rate is smooth except at these kinks,
    and its maximum often sits exactly on one, where golden-section search
    is only first-order accurate; they are found by bisection instead."""

    def diff(f: float) -> float:
        pw = HopSplit(f).powers(total)
        _, rc_two, rc_three = corner_rates(cross2, intra2, pw.p_private, pw.p_common, capacity)
        return rc_two - rc_three

    p_common = total - fs * total  # exactly as HopSplit.powers splits
    _, rc_two, rc_three = corner_rates(cross2, intra2, total - p_common, p_common)
    signs = rc_two - rc_three
    crossings = []
    for k in range(len(fs) - 1):
        lo_val, hi_val = float(signs[k]), float(signs[k + 1])
        if lo_val == 0.0:
            crossings.append(float(fs[k]))
            continue
        if lo_val * hi_val >= 0.0:
            continue
        lo, hi = float(fs[k]), float(fs[k + 1])
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if diff(mid) * lo_val > 0.0:
                lo = mid
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))
    return crossings


def _optimize_hop_split(cross2: float, intra2: float, total: float,
                        cfg: OptimizerConfig) -> tuple[float, float]:
    """Maximize the hop's corner sum rate over the private power fraction.

    Coarse grid, golden-section refinement around the winner, plus the
    common-bound crossing points as explicit candidates. Returns
    (f_hat, rate); boundary ties resolve toward f_hat = 1.
    """
    fs = np.linspace(0.0, 1.0, cfg.coarse_points)
    p_private = fs * total
    values = corner_sum_rate(cross2, intra2, p_private, total - p_private)
    idx = _pick_last_max(values)
    best_f, best_v = float(fs[idx]), float(values[idx])

    def objective(f: float) -> float:
        pw = HopSplit(f).powers(total)
        return float(corner_sum_rate(cross2, intra2, pw.p_private, pw.p_common))

    if cfg.refine_iters > 0:
        step = 1.0 / (cfg.coarse_points - 1)
        lo = max(0.0, best_f - step)
        hi = min(1.0, best_f + step)
        iters = _GOLDEN_ITERS_PER_PASS * cfg.refine_iters
        best_f, best_v = _golden_refine(objective, lo, hi, iters, best_f, best_v)
    for f in _common_bound_crossings(cross2, intra2, total, fs):
        v = objective(f)
        if v > best_v + 1e-15:
            best_f, best_v = f, v
    return best_f, best_v


def _corner_binding(params: NetworkParams, split: HopSplit, hop: int) -> tuple[str, ...]:
    """Which common-rate bound attains the min at the hop's corner point."""
    cross2, intra2, total = hop_terms(params, hop)
    pw = split.powers(total)
    _, rc_two, rc_three = corner_rates(cross2, intra2, pw.p_private, pw.p_common, capacity)
    if abs(rc_two - rc_three) <= 1e-12:
        return (LABEL_COMMON2, LABEL_COMMON3)
    return (LABEL_COMMON2,) if rc_two < rc_three else (LABEL_COMMON3,)


def rate_splitting(params: NetworkParams, cfg: OptimizerConfig | None = None) -> SchemeResult:
    """Rate splitting in both hops, each hop optimized independently.

    The end-to-end rate is the smaller of the two per-hop corner optima. The
    reported operating point is the first-hop corner at its optimal split;
    binding names the common-rate bound attaining the corner minimum on the
    bottleneck hop.
    """
    cfg = cfg or OptimizerConfig()
    work = params.effective()
    scale = params.rate_scale()
    f1, rate1 = _optimize_hop_split(work.alpha2, work.beta2, work.p1, cfg)
    f2, rate2 = _optimize_hop_split(work.eta2, work.gamma2, work.p2, cfg)
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


def first_hop_upper_bound(params: NetworkParams,
                          cfg: OptimizerConfig | None = None) -> SchemeResult:
    """Best first-hop rate over splits; caps every two-hop scheme here."""
    cfg = cfg or OptimizerConfig()
    work = params.effective()
    scale = params.rate_scale()
    f1, rate1 = _optimize_hop_split(work.alpha2, work.beta2, work.p1, cfg)
    split1 = HopSplit(f1)
    point1, _ = vertex_a(work, split1, hop=1)
    return SchemeResult(
        scheme=SCHEME_BOUND,
        rate=rate1 * scale,
        split_hop1=split1,
        operating_point=_scale_point(point1, scale),
        binding=_corner_binding(work, split1, 1),
    )


def optimal_private_fraction(params: NetworkParams,
                             cfg: OptimizerConfig | None = None) -> tuple[float, float]:
    """Optimal private power fraction of each hop under rate splitting.

    For matched gains and equal powers both fractions coincide. Boundary
    ties resolve toward all-private (fraction 1).
    """
    cfg = cfg or OptimizerConfig()
    work = params.effective()
    f1, _ = _optimize_hop_split(work.alpha2, work.beta2, work.p1, cfg)
    f2, _ = _optimize_hop_split(work.eta2, work.gamma2, work.p2, cfg)
    return f1, f2


# ---------------------------------------------------------------------------
# Joint (f1, f2) optimization for cooperative / joint-decoding second hops
# ---------------------------------------------------------------------------

def _hop1_lines(work: NetworkParams, f1: np.ndarray) -> list[tuple[float, float, np.ndarray]]:
    p_private = f1 * work.p1
    bounds = mac_bounds(work.alpha2, work.beta2, p_private, work.p1 - p_private)
    return [(float(a), float(b), np.asarray(c)[:, None]) for (a, b), c in bounds.items()]


def _coop2_lines(work: NetworkParams, f2: np.ndarray) -> list[tuple[float, float, np.ndarray]]:
    p_private = f2 * work.p2
    bounds = coop_bounds(work.gamma2, work.eta2, p_private, work.p2 - p_private)
    return [(float(a), float(b), np.asarray(c)[None, :]) for (a, b), c in bounds.items()]


def _mcp2_lines(work: NetworkParams, f2: np.ndarray) -> list[tuple[float, float, np.ndarray]]:
    p_private = f2 * work.p2
    bounds = mcp_bounds(work.gamma2, work.eta2, p_private, work.p2 - p_private)
    return [(float(a), float(b), np.asarray(c)[None, :]) for (a, b), c in bounds.items()]


def _joint_values(work: NetworkParams, hop2_lines_fn, f1: np.ndarray,
                  f2: np.ndarray) -> np.ndarray:
    """Max-sum LP value of hop 1 at f1[i] intersected with hop 2 at f2[j]."""
    r_private, r_common = greedy_max_sum(_hop1_lines(work, f1) + hop2_lines_fn(work, f2))
    return r_private + r_common


def _search_joint_splits(work: NetworkParams, hop2_lines_fn,
                         cfg: OptimizerConfig) -> tuple[float, float]:
    """Coarse 2-D grid over (f1, f2) plus shrinking local grid refinement."""
    f1 = np.linspace(0.0, 1.0, cfg.coarse_points)
    f2 = np.linspace(0.0, 1.0, cfg.coarse_points)
    values = _joint_values(work, hop2_lines_fn, f1, f2)
    flat = _pick_last_max(values.ravel())
    i, j = divmod(flat, values.shape[1])
    best_f1, best_f2 = float(f1[i]), float(f2[j])

    window = 1.0 / (cfg.coarse_points - 1)
    for _ in range(cfg.refine_iters):
        f1_local = np.clip(np.linspace(best_f1 - window, best_f1 + window, 11), 0.0, 1.0)
        f2_local = np.clip(np.linspace(best_f2 - window, best_f2 + window, 11), 0.0, 1.0)
        local = _joint_values(work, hop2_lines_fn, f1_local, f2_local)
        flat = _pick_last_max(local.ravel())
        i, j = divmod(flat, local.shape[1])
        best_f1, best_f2 = float(f1_local[i]), float(f2_local[j])
        window /= 10.0
    return best_f1, best_f2


def _joint_result(scheme: str, params: NetworkParams, splits: tuple[float, float],
                  lp: LPSolution) -> SchemeResult:
    scale = params.rate_scale()
    return SchemeResult(
        scheme=scheme,
        rate=lp.value * scale,
        split_hop1=HopSplit(splits[0]),
        split_hop2=HopSplit(splits[1]),
        operating_point=_scale_point(lp.point, scale),
        binding=lp.binding,
    )


def coop(params: NetworkParams, cfg: OptimizerConfig | None = None) -> SchemeResult:
    """Rate splitting in hop 1 with cooperative common relaying in hop 2.

    The inner problem for fixed splits is the exact LP over the intersection
    of the two hop regions; the outer search sweeps both split fractions.
    """
    cfg = cfg or OptimizerConfig()
    work = params.effective()
    f1, f2 = _search_joint_splits(work, _coop2_lines, cfg)
    lp = max_sum_rate(hop1_region(work, HopSplit(f1)),
                      hop2_coop_region(work, HopSplit(f2)))
    return _joint_result(SCHEME_COOP, params, (f1, f2), lp)


def mcp(params: NetworkParams, cfg: OptimizerConfig | None = None) -> SchemeResult:
    """Cooperative second hop decoded jointly across all base stations."""
    cfg = cfg or OptimizerConfig()
    work = params.effective()
    f1, f2 = _search_joint_splits(work, _mcp2_lines, cfg)
    lp = max_sum_rate(hop1_region(work, HopSplit(f1)),
                      hop2_mcp_region(work, HopSplit(f2)))
    return _joint_result(SCHEME_MCP, params, (f1, f2), lp)


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
