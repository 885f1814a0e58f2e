"""End-to-end achievable rates per transmission scheme.

Every scheme maps a network instance to the best rate its coding strategy
supports; the hops are stated in ``regions``, and this module only
optimizes their power splits. A rate-splitting hop's own split (both hops
of rate splitting, hop 1 of every scheme, coop's hop 2) is optimized in
closed form from its ``regions._RsGains``: the corner sum rate peaks at one
of a few candidate fractions, whose corners are evaluated once; the winning
corner gives the rate and the operating point, and binding is the max-sum
LP's on that hop's region. Each such optimum caps the joint (f1, f2) rate
of coop and mcp, so their search, all of it in ``_joint``, first scores the
smaller cap's split against every tenth split of the other hop's 101-split
grid, then all 101: a cell that reaches the cap is exact. Elsewhere it is
grids: both hops on the 101-split grid, then three 11-split windows, each
10x narrower and centred on the best cell so far. Every cell is scored by
the max-sum LP of its two hops (``polytope._max_sum_grid``), each hop's
bounds evaluated once per pass. The returned rate, operating point and
binding are the LP's greedy on the lines of the bounds scored at the
winning cell: the cell's value, bit for bit.

``evaluate`` runs the schemes of one network row from one ``_Row``: one
``_Hop`` record per distinct rate-splitting hop holds its optimum and, on
first read, its scalar bounds at the optimal split and their max-sum
binding. Rate splitting and the first-hop bound read the binding, the cap
of coop and mcp reads the bounds, so each is evaluated once per row. A
scheme called alone builds a row of its own, so its result is the same.

Half duplex scales every final rate by 1/2: ``_result`` scales each reported
operating point and its total alike, and ``single_rate``, which reports no
point, scales its own rate. The optional power boost doubles both transmit
powers first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import HopSplit, NetworkParams, RatePair, capacity, split_powers
from .polytope import _greedy, _max_sum_grid
from .regions import (
    _coop_gains,
    _corner,
    _hop_lines,
    _mac_gains,
    _rs_bounds,
    _RsGains,
    coop_bounds,
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


def _result(scheme: str, params: NetworkParams, point: RatePair, **fields) -> SchemeResult:
    """The result at the per-hop operating point ``point``: the rate is its
    total times the half-duplex scale, and the point is scaled alike."""
    scale = params.rate_scale()
    rate = point.total * scale
    if scale != 1.0:
        point = RatePair(scale * point.r_private, scale * point.r_common)
    return SchemeResult(scheme=scheme, rate=rate, operating_point=point, **fields)


def _bottleneck(rate1: float, rate2: float):
    if abs(rate1 - rate2) <= 1e-12:
        return "balanced"
    return 1 if rate1 < rate2 else 2


# ---------------------------------------------------------------------------
# Single-rate transmission
# ---------------------------------------------------------------------------

def single_rate(params: NetworkParams, row: _Row | None = None) -> SchemeResult:
    """Plain decode-and-forward with single-user decoding in both hops; it
    shares nothing with a ``row``."""
    def sinr(hop):  # the reduced MAC at f = 1: all power private
        cross2, intra2, total = params.hop(hop)
        gains = _mac_gains(cross2, intra2)
        return gains.private * total / (1.0 + gains.noise_private * total)

    sinr1, sinr2 = sinr(1), sinr(2)
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
    top = float(values.max())
    if math.isnan(top):
        raise ValueError("a scored rate is NaN, so no maximum can be picked")
    return int(np.nonzero(values >= top - tie_tol)[0][-1])


def _hop_split_candidates(gains: _RsGains, total: float) -> np.ndarray:
    """Private power fractions, ascending, among which the hop's corner sum
    rate attains its maximum.

    With the gains g_p, g_k and noise slopes n_p, n_c of ``_RsGains``,
    private power x and common power y = P - x,
    N = 1 + n_p x + n_c y, M = N + g_p x and T_k = M + g_k y are affine in x,
    and the corner sum rate is min(S2, S3), S_k = ((k - 1) log2 M - k log2 N
    + log2 T_k)/k. Over M N T_k each derivative's numerator is linear in x
    (the x^2 terms cancel), so each branch has at most one stationary point,
    and the maximum over [0, P] sits at an endpoint, at one of these two
    points, or where the branches cross: T2^3 = M T3^2, a cubic with the
    root x = P whose quotient is a quadratic in z = y/M(P); both its roots
    are tried. Interior candidates that are not finite (degenerate gains) or
    fall outside (0, P) are dropped: clipped, they would repeat an endpoint.
    """
    # Python floats: overflow gives inf or nan, and each division is guarded
    g_p, g2, g3, n_p, n_c = gains
    n = n_p - n_c  # the slopes in x of N, M and T_k, summed so that
    m = n + g_p    # the rate-splitting MAC's come out exact
    t2, t3 = (n - g2) + g_p, m - g3
    n0 = 1.0 + n_c * total  # N = M at x = 0; T_k there is t0
    xs = []
    for k, t, t0 in ((2.0, t2, 1.0 + (n_c + g2) * total), (3.0, t3, 1.0 + (n_c + g3) * total)):
        num = n0 * (((k - 1.0) * g_p - n) * t0 + t * n0)
        den = m * n * t0 + ((k - 1.0) * n - k * m) * n0 * t
        xs.append(num / den if den else math.nan)
    a, b, c = (m * t3 * t3 - t2 * t2 * t2, 3.0 * t2 * t2 - 2.0 * m * t3 - t3 * t3,
               3.0 * g2 - 2.0 * g3)  # a z^2 + b z + c = 0 at the crossing
    disc = b * b - 4.0 * a * c
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b)) if disc >= 0.0 else math.nan
    xs += [total - (1.0 + (n_p + g_p) * total) * (num / den if den else math.nan)
           for num, den in ((q, a), (c, q))]
    return np.array([0.0, *sorted(f for f in (x / total for x in xs) if 0.0 < f < 1.0), 1.0])


def _hop_optimum(gains: _RsGains, total: float) -> tuple[HopSplit, RatePair]:
    """The hop's split that maximizes its corner sum rate, and that corner.

    Both come from one evaluation of the candidates' corners, so the rate is
    the corner's total exactly. Near-ties resolve toward the largest
    fraction, so f_hat = 1 stays exact where all-private transmission is
    optimal.
    """
    fs = _hop_split_candidates(gains, total)
    r_private, rc_two, rc_three = _corner(gains, *split_powers(fs, total))
    r_common = np.minimum(rc_two, rc_three)
    # Ties only at rounding level, so an interior optimum a few ulps above the
    # endpoint still wins.
    idx = _pick_last_max(r_private + r_common, tie_tol=1e-15)
    return HopSplit(float(fs[idx])), RatePair(float(r_private[idx]), float(r_common[idx]))


class _Hop:
    """One solved rate-splitting hop: its ``_hop_optimum`` split and corner,
    and at that split its scalar bounds and the max-sum LP's binding, each
    evaluated on first read."""

    def __init__(self, gains: _RsGains, total: float) -> None:
        self.gains, self.total = gains, total
        self.split, self.corner = _hop_optimum(gains, total)

    @cached_property
    def bounds(self) -> dict:
        return _rs_bounds(self.gains, *split_powers(self.split.f_private, self.total))

    @cached_property
    def binding(self) -> tuple[str, ...]:
        return _greedy(_hop_lines(self.bounds))[2]


class _Row:
    """The ``_Hop`` of every distinct rate-splitting hop of one network,
    keyed by its ``_RsGains`` and power and solved on first use. Equal hops
    share one record: hop 1 serves every scheme, and on a network whose hops
    are equal hop 2 is hop 1. A row lives for one network's evaluation only.
    """

    def __init__(self, params: NetworkParams) -> None:
        self.params = params
        self._hops: dict[tuple, _Hop] = {}

    def hop(self, k: int, gains_fn=_mac_gains) -> _Hop:
        """Hop ``k`` with the gains ``gains_fn`` gives."""
        cross2, intra2, total = self.params.hop(k)
        key = (gains_fn(cross2, intra2), total)
        if key not in self._hops:
            self._hops[key] = _Hop(*key)
        return self._hops[key]


def rate_splitting(params: NetworkParams, row: _Row | None = None) -> SchemeResult:
    """Rate splitting in both hops, each hop optimized independently.

    The end-to-end rate is the smaller of the two per-hop corner optima. The
    reported operating point is the corner of the hop that sets it (hop 1 on
    a tie) at that hop's optimal split, so its total is the rate; binding
    names the bounds the max-sum LP finds tight on that hop's region there.
    """
    row = row or _Row(params)
    hop1, hop2 = row.hop(1), row.hop(2)
    rate1, rate2 = hop1.corner.total, hop2.corner.total
    hop = hop1 if rate1 <= rate2 else hop2
    return _result(SCHEME_RS, params, hop.corner, split_hop1=hop1.split, split_hop2=hop2.split,
                   binding=hop.binding, bottleneck_hop=_bottleneck(rate1, rate2))


def first_hop_upper_bound(params: NetworkParams, row: _Row | None = None) -> SchemeResult:
    """Best first-hop rate over splits; caps every two-hop scheme here. Its
    binding is that of the hop-1 region at the optimal split."""
    hop1 = (row or _Row(params)).hop(1)
    return _result(SCHEME_BOUND, params, hop1.corner, split_hop1=hop1.split,
                   binding=hop1.binding)


def optimal_private_fraction(params: NetworkParams) -> tuple[float, float]:
    """Optimal private power fraction of each hop under rate splitting.

    For matched gains and equal powers both fractions coincide. Boundary
    ties resolve toward all-private (fraction 1).
    """
    row = _Row(params)
    return row.hop(1).split.f_private, row.hop(2).split.f_private


# ---------------------------------------------------------------------------
# Joint (f1, f2) optimization for cooperative / joint-decoding second hops
# ---------------------------------------------------------------------------

# The fallback's passes after the 101-split grid: 11 splits each, in a
# window of these half-widths around the best cell so far.
_WINDOWS = (1e-2, 1e-3, 1e-4)
# The 101-split grid over [0, 1] that the cap probe and the fallback score:
# built once, never written.
_PASS1_GRID = np.linspace(0.0, 1.0, 101)
_PASS1_GRID.flags.writeable = False


def _joint(scheme: str, params: NetworkParams, bounds_fn, gains_fn=None,
           row: _Row | None = None) -> SchemeResult:
    """Rate splitting in hop 1, hop 2 with the bounds ``bounds_fn`` gives,
    its lines named after the scheme (``hop2-coop``, ``hop2-mcp``), at the
    best (f1, f2) cell a search finds.

    A hop's max-sum LP at any split caps every joint rate, and the corner
    optimum of ``_hop_optimum`` is its maximum over splits: hop 1's always,
    hop 2's where ``gains_fn`` gives its gains (coop). The caps are ``row``'s
    hop records, whose scalar bounds are scored as one-split arrays. The
    smaller cap's split is scored against every tenth split of the other
    hop's 101-split grid, then all of it; a cell within 1e-12 of the cap is
    optimal within 1e-12. Else the capped hop takes that grid too, then one
    11-split pass per ``_WINDOWS`` half-width is centred on the best cell so
    far. The LP's greedy runs once more on the bounds scored at the winning
    cell: its value bit for bit, and the point and binding ``max_sum_rate``
    gives on the two hops' regions, unbuilt.
    """
    def bounds_at(hop, fs):
        cross2, intra2, total = params.hop(hop + 1)
        return (mac_bounds, bounds_fn)[hop](cross2, intra2, *split_powers(fs, total))

    def best_cell():  # the best cell (i, j) of the grid ``bounds`` spans, and its value
        values = _max_sum_grid(*bounds)
        i, j = divmod(_pick_last_max(values.ravel()), values.shape[1])
        return i, j, values[i, j]

    row = row or _Row(params)
    caps = [row.hop(1)] + ([row.hop(2, gains_fn)] if gains_fn else [])
    capped, cap = min(enumerate(caps), key=lambda hop: hop[1].corner.total)
    other = 1 - capped
    fs = [np.array([cap.split.f_private])] * 2  # the other hop's entries are set below
    bounds = [{key: np.array([c]) for key, c in cap.bounds.items()}] * 2
    for step in (10, 1):  # every tenth split of the grid, then all of them
        fs[other] = _PASS1_GRID[::step]
        bounds[other] = bounds_at(other, fs[other])
        i, j, value = best_cell()
        if value >= cap.corner.total - 1e-12:
            break
    else:
        fs[capped] = _PASS1_GRID
        bounds[capped] = bounds_at(capped, _PASS1_GRID)
        i, j, _ = best_cell()
        for window in _WINDOWS:
            for hop, centre in enumerate((float(fs[0][i]), float(fs[1][j]))):
                fs[hop] = np.clip(np.linspace(centre - window, centre + window, 11), 0.0, 1.0)
                bounds[hop] = bounds_at(hop, fs[hop])
            i, j, _ = best_cell()
    x, y, binding = _greedy([
        (a, b, c, f"{name}:{label}")
        for name, hop_bounds, k in (("hop1", bounds[0], i), (f"hop2-{scheme}", bounds[1], j))
        for a, b, c, label in _hop_lines({key: bound[k] for key, bound in hop_bounds.items()})])
    return _result(scheme, params, RatePair(x, y), split_hop1=HopSplit(float(fs[0][i])),
                   split_hop2=HopSplit(float(fs[1][j])), binding=binding)


def coop(params: NetworkParams, row: _Row | None = None) -> SchemeResult:
    """Rate splitting in hop 1 with cooperative common relaying in hop 2."""
    return _joint(SCHEME_COOP, params, coop_bounds, _coop_gains, row)


def mcp(params: NetworkParams, row: _Row | None = None) -> SchemeResult:
    """Cooperative second hop decoded jointly across all base stations."""
    return _joint(SCHEME_MCP, params, mcp_bounds, row=row)


# Every scheme by its full name, in output order. ``evaluate`` calls them
# through this dict, whose entries perfbench/tracing.py wraps.
SCHEMES = {
    SCHEME_SINGLE: single_rate,
    SCHEME_RS: rate_splitting,
    SCHEME_COOP: coop,
    SCHEME_MCP: mcp,
    SCHEME_BOUND: first_hop_upper_bound,
}


def evaluate(params: NetworkParams, names) -> list[SchemeResult]:
    """The result of each scheme ``names`` lists, in its order, all from one
    ``_Row``: every distinct hop is solved once. Each result equals the
    one-name call's."""
    row = _Row(params)
    return [SCHEMES[name](params, row) for name in names]


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
