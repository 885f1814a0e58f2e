"""Brute-force reference implementations and the verification suite.

Almost everything here recomputes results from first principles, sharing no
formula code with the fast paths it checks: the full subset-enumerated MAC
region, the fixed-decoding-order corner candidates, pairwise line crossings
instead of the envelope walk (the vertex enumeration solves one pair at a
time and hulls the feasible crossings; the region-reduction check builds
every row's crossings at once as arrays and tests them against the other
region's lines, one line at a time), lattice maximization and the vertex
enumeration instead of the exact LP, self-certifying midpoint sums of the
responses' cosine series instead of the closed-form joint-decoding bounds, a
split scan instead of the closed-form split optimum (its two-stage corner
rate is also the reference for the LP's sum at a fixed split), and
per-inequality threshold inversions in exact decimal arithmetic. Oracles may
be slow; they exist to certify, not to perform, and run as array expressions
where that leaves their floats unchanged. A check reading several schemes of
one network reads them off one ``schemes._Row``: each hop is solved once. A
check's draws are one ``rng.random`` block, the same stream and floats as
one scalar ``rng.uniform`` call per field, and its midpoint sums share one
set of nodes and cosines per node count, built in the call, and each case's
two squared responses per node count, dropped with the case.
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass, replace
from itertools import chain, combinations

import numpy as np

from . import schemes
from .model import HopSplit, NetworkParams, RatePair, capacity
from .polytope import max_sum_rate, vertices
from .regions import (
    Halfspace,
    RateRegion,
    hop1_region,
    hop2_coop_region,
    hop2_rs_region,
    mac_bounds,
    mcp_bounds,
)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one verification check (worst case over its draws)."""

    name: str
    reference: float
    fast: float
    gap: float
    tol: float
    passed: bool
    ref_err: float | None = None  # the reference's own error, where it reports one

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = (f"{status} {self.name:<26} gap={self.gap:.6e} tol={self.tol:.1e} "
                f"ref={self.reference:.12g} fast={self.fast:.12g}")
        if self.ref_err is not None:
            text += f" ref_err={self.ref_err:.1e}"
        return text


# ---------------------------------------------------------------------------
# Reference constructions
# ---------------------------------------------------------------------------

# The fifteen subset inequalities of the first-hop four-user MAC, in
# ``combinations`` order of its decoded signals (the private codeword, then
# the own and the two adjacent common codewords): (coef_private, coef_common,
# the subset's signal indices, label).
_MAC15_USERS = (("p", 1, 0), ("cm", 0, 1), ("cm-1", 0, 1), ("cm+1", 0, 1))
_MAC15 = tuple(
    (sum(_MAC15_USERS[i][1] for i in subset), sum(_MAC15_USERS[i][2] for i in subset), subset,
     "mac:" + "+".join(_MAC15_USERS[i][0] for i in subset))
    for k in range(1, 5) for subset in combinations(range(4), k))


def _mac15_bounds(alpha2: float, beta2: float, p_private: float, p_common: float) -> list[float]:
    """The bounds of ``_MAC15``, in its order: log2(1 + subset power/noise),
    the private codeword at beta2*p_private, the common ones at beta2*p_common,
    alpha2*p_common and alpha2*p_common, and the two adjacent private
    codewords in the noise, 1 + 2*alpha2*p_private."""
    noise = 1.0 + 2.0 * alpha2 * p_private
    signals = (beta2 * p_private, beta2 * p_common, alpha2 * p_common, alpha2 * p_common)
    return [math.log2(1.0 + math.fsum(signals[i] for i in subset) / noise)
            for _, _, subset, _ in _MAC15]


def full_mac_region_hop1(params: NetworkParams, split: HopSplit) -> RateRegion:
    """All fifteen subset inequalities of the first-hop four-user MAC
    (``_MAC15``).

    Decoded signals: the private codeword (power beta2*P1p) and the three
    common codewords (powers beta2*P1c, alpha2*P1c, alpha2*P1c); the two
    adjacent private codewords stay in the noise floor. No dominated
    inequality is removed.
    """
    alpha2, beta2, p1 = params.hop(1)
    p_private, p_common = split.powers(p1)
    bounds = _mac15_bounds(alpha2, beta2, p_private, p_common)
    return RateRegion(
        halfspaces=tuple(Halfspace(coef_p, coef_c, bound, label)
                         for (coef_p, coef_c, _, label), bound in zip(_MAC15, bounds)),
        provenance=f"mac15(alpha2={alpha2:g}, beta2={beta2:g}, "
                   f"p_private={p_private:g}, p_common={p_common:g})",
    )


def vertices_bc(params: NetworkParams, split: HopSplit) -> dict[str, RatePair]:
    """Candidate corner points of the first-hop region from fixed
    successive-cancellation orders.

    B decodes the same-cell common codeword first and the adjacent common
    codewords last; B' decodes the private codeword first; C sits at the
    crossing of the two mixed sum constraints. Each candidate is an actual
    corner only in its own interference regime: outside it the point exits
    the region (for membership checks pair this with ``polytope.contains``).
    The reference for the paper's corner claims; no fast path reads it.
    """
    cross2, intra2, total = params.hop(1)
    pp, pc = split.powers(total)
    noise0 = 1.0 + 2.0 * cross2 * pp

    b_common = 0.5 * capacity(2.0 * cross2 * pc / noise0)
    b_private = capacity(intra2 * pp / (noise0 + 2.0 * cross2 * pc))

    bp_common = capacity((2.0 * cross2 + intra2) * pc / noise0) / 3.0
    bp_private = capacity(intra2 * pp / (noise0 + (2.0 * cross2 + intra2) * pc))

    c_common = capacity(intra2 * pc / (noise0 + intra2 * pp + 2.0 * cross2 * pc))
    sum2 = capacity((intra2 * pp + 2.0 * cross2 * pc) / noise0)
    c_private = max(sum2 - 2.0 * c_common, 0.0)

    return {
        "B": RatePair(b_private, b_common),
        "B_prime": RatePair(bp_private, bp_common),
        "C": RatePair(c_private, c_common),
    }


def grid_max_sum(region: RateRegion, step: float) -> float:
    """Max of R_p + R_c over the feasible lattice of spacing ``step``.

    The coefficients are in ``regions.Halfspace``'s domain and float
    multiply and add round monotonically, so on each row R_p = rp[i] the test
    ``coef_private * R_p + coef_common * R_c <= bound + 1e-12`` holds on a
    prefix of the R_c column, and the row's best point is the prefix's last.
    Every line's intercept on the row seeds the prefix's length, and rounds
    of that same test over all rows at once move it to where the last
    column passes and the next fails, in about two rounds. The result is
    the same float as masking the whole lattice and taking the largest
    feasible R_p + R_c.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    halfspaces = region.halfspaces
    rp_max = min(h.bound / h.coef_private for h in halfspaces if h.coef_private > 0)
    rc_max = min(h.bound / h.coef_common for h in halfspaces if h.coef_common > 0)
    rp = np.arange(0.0, rp_max + step / 2.0, step)
    rc = np.arange(0.0, rc_max + step / 2.0, step)

    def feasible(x, y):
        ok = np.ones(x.shape, dtype=bool)
        for h in halfspaces:
            ok &= h.coef_private * x + h.coef_common * y <= h.bound + 1e-12
        return ok

    def fits(column):  # the rows whose column index is in the lattice and feasible
        ok = (column >= 0) & (column < rc.size)
        ok[ok] = feasible(rp[ok], rc[column[ok]])
        return ok

    # prefix[i] points of row i are feasible. Each line's intercept seeds it
    # (a coef_common == 0 line gives 0 or every column); the exact test then
    # moves it, usually by a column at most, until column prefix - 1 passes
    # and column prefix fails
    prefix = np.full(rp.size, rc.size)
    for h in halfspaces:
        slack = h.bound + 1e-12 - h.coef_private * rp
        with np.errstate(over="ignore"):  # a tiny coef_common: inf, clipped to every column
            columns = (slack / h.coef_common / step + 1.0 if h.coef_common > 0
                       else np.where(slack >= 0.0, np.inf, 0.0))
        prefix = np.minimum(prefix, np.clip(columns, 0.0, rc.size).astype(np.intp))
    while (down := (prefix > 0) & ~fits(prefix - 1)).any():
        prefix -= down
    while (up := fits(prefix)).any():
        prefix += up
    rows = prefix > 0  # the last row may pass rp_max by up to half a step
    return float((rp[rows] + rc[prefix[rows] - 1]).max())


def _crossing_gap(first, second) -> float:
    """Largest violation of either region's lines at a feasible crossing of
    the other's, over rows of region pairs. ``first`` and ``second`` are
    (coefs, bounds): (coef_private, coef_common) per line, and bounds as
    (rows, lines), with the same rows. Each side's crossings are those of
    ``enumerated_vertices``, every row's at once as (rows, pairs) arrays, and
    each line is tested against all of them in turn. Every vertex of a region
    is a feasible crossing of its lines, so this is the largest violation at
    either region's vertices."""
    gap = 0.0
    for (coefs, bounds), (other, other_bounds) in ((first, second), (second, first)):
        lines = [*coefs, (1.0, 0.0), (0.0, 1.0)]
        pairs = [(i, j, det) for (i, (a1, b1)), (j, (a2, b2)) in combinations(enumerate(lines), 2)
                 if abs(det := a1 * b2 - a2 * b1) >= 1e-15]
        i, j, det = (np.array(column) for column in zip(*pairs))
        a, b = np.array(lines, dtype=float).T
        c = np.concatenate([bounds, np.zeros((len(bounds), 2))], axis=1)
        x = (c[:, i] * b[j] - c[:, j] * b[i]) / det
        y = (c[:, j] * a[i] - c[:, i] * a[j]) / det
        feasible = (x >= -1e-12) & (y >= -1e-12)
        x = np.maximum(x, 0.0) + 0.0  # +0.0 normalizes -0.0
        y = np.maximum(y, 0.0) + 0.0
        for (a_k, b_k), c_k in zip(coefs, bounds.T):
            feasible &= a_k * x + b_k * y <= c_k[:, None] + 1e-12
        for (a_k, b_k), c_k in zip(other, other_bounds.T):
            excess = a_k * x + b_k * y - c_k[:, None]
            gap = max(gap, float(excess.max(where=feasible, initial=0.0)))
    return gap


def enumerated_vertices(region: RateRegion) -> list[RatePair]:
    """Extreme points of a region by brute force, counterclockwise: every
    feasible pairwise crossing of its lines and the two axes, points closer
    than 1e-10 merged in sorted order, then the convex hull.

    The axes only contribute crossings; feasibility against them is the
    non-negativity check, not a <= constraint. The reference for
    ``polytope.vertices``, which walks the upper envelope instead.
    """
    lines = region.halfspaces
    axes = ((1.0, 0.0, 0.0, "R_p = 0"), (0.0, 1.0, 0.0, "R_c = 0"))
    points = [(0.0, 0.0)]
    for (a1, b1, c1, _), (a2, b2, c2, _) in combinations((*lines, *axes), 2):
        det = a1 * b2 - a2 * b1
        if abs(det) < 1e-15:
            continue
        x = (c1 * b2 - c2 * b1) / det
        y = (a1 * c2 - a2 * c1) / det
        if x < -1e-12 or y < -1e-12:
            continue
        x = max(x, 0.0) + 0.0  # +0.0 normalizes -0.0
        y = max(y, 0.0) + 0.0
        if all(a * x + b * y <= c + 1e-12 for a, b, c, _ in lines):
            points.append((x, y))
    points.sort()
    unique: list[tuple[float, float]] = []
    for p in points:
        # against every kept point within 1e-10 in R_p, which end the sorted
        # list: in a region narrower than the tolerance a near-duplicate
        # need not be the previous point in sorted order
        for q in reversed(unique):
            if p[0] - q[0] > 1e-10:
                unique.append(p)
                break
            if abs(p[1] - q[1]) <= 1e-10:
                break
        else:
            unique.append(p)
    return [RatePair(x, y) for x, y in _convex_hull(unique)]


def _convex_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Andrew's monotone chain; input sorted, output counterclockwise with
    collinear interior points dropped. A turn counts as collinear when its
    sine is at most 1e-12, so a short edge of a thin region is kept."""
    if len(points) <= 2:
        return list(points)

    def collinear(o, a, b):
        ax, ay, bx, by = a[0] - o[0], a[1] - o[1], b[0] - o[0], b[1] - o[1]
        return ax * by - ay * bx <= 1e-12 * math.hypot(ax, ay) * math.hypot(bx, by)

    lower: list[tuple[float, float]] = []
    for p in points:
        while len(lower) >= 2 and collinear(lower[-2], lower[-1], p):
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in reversed(points):
        while len(upper) >= 2 and collinear(upper[-2], upper[-1], p):
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _midpoint_nodes(n_nodes: int) -> np.ndarray:
    """The centres of n uniform cells of [0, 1]."""
    return (np.arange(n_nodes) + 0.5) / n_nodes


def riemann_integral(integrand, n_nodes: int, nodes=_midpoint_nodes) -> float:
    """Midpoint-rule sum of ``integrand`` over n uniform cells of [0, 1];
    ``nodes(n)`` gives the cell centres (a caller may pass its tables)."""
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    return float(np.mean(integrand(nodes(n_nodes))))


MIDPOINT_FIRST_NODES = 2 ** 10
MIDPOINT_MAX_NODES = 2 ** 20
MIDPOINT_AGREEMENT = 1e-14
# The references take log2(1 + x) as log1p(x)/ln 2, accurate where 1 + x rounds.
_LN2 = math.log(2.0)


def certified_midpoint(integrand, nodes=_midpoint_nodes) -> tuple[float, float, int]:
    """Midpoint rule over [0, 1] that doubles its node count until two
    successive sums agree.

    For a periodic integrand analytic in a strip, the N-node midpoint error
    falls geometrically in N (Trefethen and Weideman, SIAM Review 2014), so
    once |I(2N) - I(N)| <= MIDPOINT_AGREEMENT the error of I(2N) is below
    that difference. Starting at MIDPOINT_FIRST_NODES, N doubles until the
    sums agree or 2N reaches MIDPOINT_MAX_NODES. Returns (I(2N),
    |I(2N) - I(N)|, 2N); a non-smooth integrand reaches the cap and reports
    a difference above MIDPOINT_AGREEMENT, so callers must add it to any gap
    they compare. ``nodes`` is ``riemann_integral``'s.
    """
    n = MIDPOINT_FIRST_NODES
    coarse = riemann_integral(integrand, n, nodes)
    while True:
        n *= 2
        fine = riemann_integral(integrand, n, nodes)
        ref_err = abs(fine - coarse)
        if ref_err <= MIDPOINT_AGREEMENT or n >= MIDPOINT_MAX_NODES:
            return fine, ref_err, n
        coarse = fine


def _cosine(f, k: int):
    """cos(2 pi k f) at the nodes ``f``."""
    return np.cos(2.0 * np.pi * k * f)


def mcp_reference_integrands(cross2: float, intra2: float, p_private: float, p_common: float,
                             cosine=_cosine, shared=lambda response: response) -> dict:
    """Spectral integrands for the joint-decoding bounds, rebuilt from the
    tap definitions (independent of the region builder's code), with
    ``mcp_bounds``' arguments.

    Each response is a symmetric FIR filter, so its transfer function is the
    real cosine series t_0 + 2 * sum_k t_k cos(2 pi k f) of its one-sided taps:
    the private codeword sees [e, g, e], the common ones [e, g+e, g+2e, g+e, e].
    ``cosine(f, k)`` is ``_cosine``'s value at the nodes, which a caller
    integrating many cases on the same nodes may read from its tables. The
    "sum" integrand adds the two squared responses p_private*h_private^2 and
    (p_common/3)*h_common^2 that the other two take; ``shared(response)``
    wraps each, so that a caller may evaluate it once per set of nodes.
    """
    g = math.sqrt(intra2)
    e = math.sqrt(cross2)
    per_code = p_common / 3.0

    def cosine_series(taps):
        return lambda f: taps[0] + 2.0 * sum(t * cosine(f, k) for k, t in enumerate(taps[1:], 1))

    h_private = cosine_series((g, e))
    h_common = cosine_series((g + 2 * e, g + e, e))
    private = shared(lambda f: p_private * h_private(f) ** 2)
    common = shared(lambda f: per_code * h_common(f) ** 2)
    return {
        "private": lambda f: np.log1p(private(f)) / _LN2,
        "common": lambda f: np.log1p(common(f)) / _LN2,
        "sum": lambda f: np.log1p(private(f) + common(f)) / _LN2,
    }


def _two_stage_rate(f, cross2: float, intra2: float, total: float):
    """Corner sum rate of the two-stage decode at private fraction ``f`` (a
    scalar or an array): the three common codewords form a MAC decoded
    against the full private interference, then the private codeword is
    decoded clean of same-cell common signals."""
    pp = f * total
    pc = total - pp
    private_noise = 1.0 + 2.0 * cross2 * pp
    common_noise = private_noise + intra2 * pp
    stage1 = np.minimum(
        np.log1p(2.0 * cross2 * pc / common_noise) / _LN2 / 2.0,
        np.log1p((2.0 * cross2 + intra2) * pc / common_noise) / _LN2 / 3.0,
    )
    stage2 = np.log1p(intra2 * pp / private_noise) / _LN2
    return stage1 + stage2


def dense_split_scan(params: NetworkParams, hop: int, step: float = 1e-3) -> tuple[float, float]:
    """Brute-force scan of a hop's corner sum rate over the split fractions
    f = i/n, n = round(1/step), evaluated on all fractions at once.

    Returns (best fraction, best rate), the largest f among tied maxima.
    """
    cross2, intra2, total = params.hop(hop)
    n = round(1.0 / step)
    fractions = np.arange(n + 1) / n
    rates = _two_stage_rate(fractions, cross2, intra2, total)
    best = n - int(np.argmax(rates[::-1]))
    return float(fractions[best]), float(rates[best])


def vsi_exact_solve(beta2: float, p1: float) -> float:
    """Minimal inter-cell gain supporting the single-user rate with
    common-only transmission, from per-inequality tightness equations.

    Each subset inequality of the three-common-codeword MAC is solved for
    the gain that makes it exactly tight at the target rate; the largest
    solution over the cross-involving inequalities is the threshold. The
    equations are solved from the exact values of the float inputs in
    decimal arithmetic with 60 significant digits past the leading zeros of
    beta2*p1, which the subtractions of 1 cancel, so the result is the exact
    threshold rounded once. Evaluated in floats, the power (1 + beta2*p1)**3
    and the subtractions after it are off by up to a few hundred ulps.
    """
    if not (beta2 > 0.0 and p1 > 0.0):
        raise ValueError("vsi_exact_solve needs positive beta2 and p1")
    beta2_d, p1_d = decimal.Decimal(beta2), decimal.Decimal(p1)
    with decimal.localcontext() as ctx:
        ctx.prec = 60 + max(0, -(beta2_d * p1_d).adjusted())
        target_arg = 1 + beta2_d * p1_d
        threshold = decimal.Decimal(0)
        for n_own, n_cross in ((0, 1), (1, 1), (0, 2), (1, 2)):
            users = n_own + n_cross
            # users * C(...) = users * log2(target_arg) tight:
            # 1 + (n_own*beta2 + n_cross*alpha2)*p1 = target_arg**users
            alpha2 = (target_arg ** users - 1 - n_own * beta2_d * p1_d) / (n_cross * p1_d)
            threshold = max(threshold, alpha2)
    return float(threshold)


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _uniform(u, lo: float, hi: float):
    """``rng.uniform(lo, hi)`` from the double ``u`` on [0, 1) it draws:
    numpy's own ``lo + (hi - lo)*u``, so a block of ``rng.random`` gives the
    floats of as many scalar calls."""
    return lo + (hi - lo) * u


def _networks(u: np.ndarray, paper_regime: bool) -> list[NetworkParams]:
    """A network per row of uniforms, drawn in the order beta2, gamma2 (on
    [0.2, 2.5]), alpha2, eta2 (on [0, beta2] and [0, gamma2], or up to
    twice that out of the paper's regime), p1, p2 (log-uniform on
    [0.05, 20]). The gains are Python float arithmetic, the powers one
    ``np.exp`` call."""
    reach = 1.0 if paper_regime else 2.0
    powers = np.exp(_uniform(u[:, 4:6], math.log(0.05), math.log(20.0))).tolist()
    networks = []
    for (b, g, a, e, *_), (p1, p2) in zip(u.tolist(), powers):
        beta2, gamma2 = _uniform(b, 0.2, 2.5), _uniform(g, 0.2, 2.5)
        networks.append(NetworkParams(alpha2=_uniform(a, 0.0, reach * beta2), beta2=beta2,
                                      gamma2=gamma2, eta2=_uniform(e, 0.0, reach * gamma2),
                                      p1=p1, p2=p2))
    return networks


def _draw_params(rng: np.random.Generator, paper_regime: bool = True) -> NetworkParams:
    return _networks(rng.random((1, 6)), paper_regime)[0]


def _draws(rng: np.random.Generator, count: int,
           paper_regime: bool = True) -> list[tuple[NetworkParams, HopSplit]]:
    """``count`` (network, split) pairs, each network drawn before its split.
    The draws are one ``rng.random`` block of seven uniforms per pair, the
    same stream and floats as seven scalar ``rng.uniform`` calls; the
    split's uniform on [0, 1) is the double itself."""
    u = rng.random((count, 7))
    return list(zip(_networks(u, paper_regime), map(HopSplit, u[:, 6].tolist())))


def _worst(name: str, pairs, tol: float, ref_err: float | None = None) -> OracleReport:
    """Report the first (reference, fast) pair with the largest gap, (0, 0) if
    none is positive; it passes iff that gap plus ``ref_err`` is within ``tol``."""
    reference, fast = max(chain([(0.0, 0.0)], pairs), key=lambda pair: abs(pair[0] - pair[1]))
    gap = abs(reference - fast)
    return OracleReport(name, reference, fast, gap, tol, gap + (ref_err or 0.0) <= tol, ref_err)


def _within(name: str, gap: float, tol: float) -> OracleReport:
    """Report a check whose reference is 0: it passes iff ``gap`` is within ``tol``."""
    return OracleReport(name, 0.0, gap, gap, tol, gap <= tol)


def _check_region_reduction(seed: int) -> OracleReport:
    """First-hop ``mac_bounds`` against the fifteen-inequality MAC at 150 draws
    in the paper's regime: the largest violation of either's lines at a
    feasible crossing of the other's, all draws at once (``_crossing_gap``)."""
    rng = _rng(seed, 1)
    fast_rows, full_rows = [], []
    for params, split in _draws(rng, 150):
        alpha2, beta2, p1 = params.hop(1)
        bounds = mac_bounds(alpha2, beta2, *split.powers(p1))
        # rows as arrays: 150 draws of Python float lists raised peak RSS by ~0.2 MB
        fast_rows.append(np.array(list(bounds.values())))
        full_rows.append(np.array(_mac15_bounds(alpha2, beta2, *split.powers(p1))))
    full_coefs = tuple(entry[:2] for entry in _MAC15)
    gap = _crossing_gap((tuple(bounds), np.array(fast_rows)), (full_coefs, np.array(full_rows)))
    return _within("region-reduction", gap, 1e-9)


def _check_vertex_a_sum(seed: int) -> OracleReport:
    """The two-stage corner sum rate, all 150 draws in one array call, against
    the first hop's max-sum LP at each draw's split."""
    rng = _rng(seed, 2)
    draws = _draws(rng, 150)
    fs = np.array([split.f_private for _, split in draws])
    hops = np.array([params.hop(1) for params, _ in draws])
    corner_sums = _two_stage_rate(fs, *hops.T).tolist()
    return _worst("vertex-a-sum", [
        (corner_sum, max_sum_rate(hop1_region(params, split)).value)
        for corner_sum, (params, split) in zip(corner_sums, draws)], 1e-9)


def _check_lp_vs_grid(seed: int) -> OracleReport:
    rng = _rng(seed, 3)
    step = 1e-3
    pairs = []
    for params, split in _draws(rng, 25):
        region = hop1_region(params, split)
        pairs.append((grid_max_sum(region, step), max_sum_rate(region).value))
    return _worst("lp-vs-grid", pairs, 5 * step)


def _draw_high_gain(rng: np.random.Generator,
                    count: int) -> list[tuple[float, float, float, HopSplit]]:
    """``count`` second hops at high inter-cell gain as (eta2, gamma2, p2,
    split), drawn in the order gamma2 (on [0.2, 2.5]), eta2 (on [0, 5]), p2
    (log-uniform on [1e-3, 1e3]) and the split: one ``rng.random`` block, the
    same stream and floats as four scalar ``rng.uniform`` calls per hop, and
    p2 in one ``np.exp`` call."""
    u = rng.random((count, 4))
    powers = np.exp(_uniform(u[:, 2], math.log(1e-3), math.log(1e3))).tolist()
    return [(_uniform(e, 0.0, 5.0), _uniform(g, 0.2, 2.5), p2, HopSplit(f))
            for (g, e, _, f), p2 in zip(u.tolist(), powers)]


def _check_quadrature_riemann(seed: int) -> OracleReport:
    """``mcp_bounds`` against the certified midpoint reference: the
    check passes iff the largest gap plus the largest reference error is
    within 1e-12. Twelve draws in the paper's regime, then twelve at high
    inter-cell gain (eta2 up to 5) and powers from 1e-3 to 1e3."""
    rng = _rng(seed, 4)
    cases = [(*params.hop(2), split) for params, split in _draws(rng, 12)]
    cases += _draw_high_gain(rng, 12)
    # each node count's nodes and cosines, built once for all 72 integrals
    nodes = functools.cache(_midpoint_nodes)
    cosines = functools.cache(lambda n_nodes, k: _cosine(nodes(n_nodes), k))

    def per_node_count(response):  # a case's squared response, freed with the case
        values = functools.cache(lambda n_nodes: response(nodes(n_nodes)))
        return lambda f: values(f.size)

    pairs = []
    ref_err = 0.0
    for eta2, gamma2, p2, split in cases:
        fast_bounds = mcp_bounds(eta2, gamma2, *split.powers(p2))
        reference_fns = mcp_reference_integrands(eta2, gamma2, *split.powers(p2),
                                                 lambda f, k: cosines(f.size, k), per_node_count)
        for name, key in (("private", (1, 0)), ("common", (0, 1)), ("sum", (1, 1))):
            reference, err, _ = certified_midpoint(reference_fns[name], nodes)
            ref_err = max(ref_err, err)
            pairs.append((reference, fast_bounds[key]))
    return _worst("quadrature-riemann", pairs, 1e-12, ref_err)


def _first_hop_network(cross2: float, intra2: float, power: float) -> NetworkParams:
    """A network whose first hop has the given gains and power; the second
    hop is unused."""
    return NetworkParams(alpha2=cross2, beta2=intra2, gamma2=1.0, eta2=0.0, p1=power, p2=1.0)


def _check_substitution_symmetry(seed: int) -> OracleReport:
    """The second hop's rate-splitting region against the first hop's region
    of the drawn network with alpha2 -> eta2, beta2 -> gamma2 and p1 -> p2
    substituted, line by line, at 100 draws out of the paper's regime."""
    rng = _rng(seed, 5)
    pairs = []
    for params, split in _draws(rng, 100, paper_regime=False):
        region_a = hop2_rs_region(params, split)
        substituted = replace(params, alpha2=params.eta2, beta2=params.gamma2, p1=params.p2)
        region_b = hop1_region(substituted, split)
        for ha, hb in zip(region_a.halfspaces, region_b.halfspaces):
            if (ha.coef_private, ha.coef_common, ha.label) != (hb.coef_private, hb.coef_common, hb.label):
                return _within("substitution-symmetry", math.inf, 1e-15)
            pairs.append((hb.bound, ha.bound))
    return _worst("substitution-symmetry", pairs, 1e-15)


def _draw_vsi(rng: np.random.Generator, count: int, beta2_max: float = 3.0,
              p1_max: float = 20.0) -> list[tuple[float, float]]:
    """``count`` (beta2, p1) pairs, beta2 uniform on [0.1, ``beta2_max``] and
    p1 log-uniform on [0.01, ``p1_max``], drawn in that order: one
    ``rng.random`` block, the same stream and floats as two scalar
    ``rng.uniform`` calls per pair, and p1 in one ``np.exp`` call."""
    u = rng.random((count, 2))
    powers = np.exp(_uniform(u[:, 1], math.log(0.01), math.log(p1_max))).tolist()
    return [(_uniform(b, 0.1, beta2_max), p1) for b, p1 in zip(u[:, 0].tolist(), powers)]


def _check_vsi_exact_agree(seed: int) -> OracleReport:
    rng = _rng(seed, 6)
    pairs = [(vsi_exact_solve(beta2, p1), schemes.vsi_threshold(beta2, p1, method="exact"))
             for beta2, p1 in _draw_vsi(rng, 50)]
    return _worst("vsi-exact-agree", pairs, 1e-12)


def _check_vsi_certificate(seed: int) -> OracleReport:
    rng = _rng(seed, 7)
    failures = 0
    for beta2, p1 in _draw_vsi(rng, 50):
        threshold = vsi_exact_solve(beta2, p1)
        ok_at, _ = schemes.vsi_check(_first_hop_network(threshold, beta2, p1))
        ok_below, _ = schemes.vsi_check(_first_hop_network(0.99 * threshold, beta2, p1))
        if not ok_at or ok_below:
            failures += 1
    return _within("vsi-certificate", float(failures), 0.5)


def _check_vsi_paper_sufficient(seed: int) -> OracleReport:
    # The printed closed form only dominates the per-inequality solution at
    # small gains and powers (beta2 <= 1, p1 <= 2); outside that regime it
    # can fall short of sufficiency, which vsi_check exposes.
    rng = _rng(seed, 8)
    gap = 0.0
    failures = 0
    for beta2, p1 in _draw_vsi(rng, 50, beta2_max=1.0, p1_max=2.0):
        exact = schemes.vsi_threshold(beta2, p1, method="exact")
        paper = schemes.vsi_threshold(beta2, p1, method="paper")
        gap = max(gap, exact - paper)
        ok, _ = schemes.vsi_check(_first_hop_network(paper, beta2, p1))
        if not ok:
            failures += 1
    return _within("vsi-paper-sufficient", max(gap, float(failures)), 1e-12)


def _check_vsi_a2_dominates_a1(seed: int) -> OracleReport:
    gap = 0.0
    powers = np.geomspace(0.01, 20.0, 20).tolist()
    for beta2 in np.linspace(0.1, 3.0, 20).tolist():
        for p1 in powers:
            a1 = beta2 * max(p1 / 2.0 + 1.0, beta2 * p1 + 1.0)
            a2 = schemes.vsi_threshold(beta2, p1, method="paper")
            gap = max(gap, a1 - a2)
    return _within("vsi-a2-dominates-a1", gap, 1e-12)


def _check_rs_dense_grid(seed: int) -> OracleReport:
    """The closed-form split optimum is exact, so no point of the 1e-3 scan
    may beat it (beyond 1e-12 of rounding), neither on either hop alone nor
    end to end, and end to end it may exceed the scan by at most 5e-3. Eight
    draws in the paper's regime, then four outside it. The reported gap is
    the largest shortfall, reference - fast."""
    rng = _rng(seed, 10)
    draws = [_draw_params(rng) for _ in range(8)]
    draws += [_draw_params(rng, paper_regime=False) for _ in range(4)]
    worst = (-math.inf, 0.0, 0.0)
    excess = 0.0
    for params in draws:
        _, r1 = dense_split_scan(params, hop=1)
        _, r2 = dense_split_scan(params, hop=2)
        row = schemes._Row(params)  # one solve per hop, for the optima and the scheme
        fast1, fast2 = row.hop(1).value, row.hop(2).value
        reference = min(r1, r2)
        fast = schemes.rate_splitting(params, row).rate
        excess = max(excess, fast - reference)
        for ref, got in ((r1, fast1), (r2, fast2), (reference, fast)):
            if ref - got > worst[0]:
                worst = (ref - got, ref, got)
    passed = worst[0] <= 1e-12 and excess <= 5e-3
    return OracleReport("rs-dense-grid", worst[1], worst[2], worst[0], 1e-12, passed)


def _rates(params: NetworkParams, names) -> dict[str, float]:
    """Each scheme's rate by name, all from one ``schemes.evaluate`` row."""
    return {result.scheme: result.rate for result in schemes.evaluate(params, names)}


def _check_scheme_ordering(seed: int) -> OracleReport:
    p1 = 10.0 ** 0.3
    gap = 0.0
    for alpha2 in np.linspace(0.0, 1.0, 9):
        params = NetworkParams(alpha2=float(alpha2), beta2=1.0, gamma2=1.0,
                               eta2=float(alpha2), p1=p1, p2=p1 / 2.0)
        r = _rates(params, schemes.SCHEMES)
        r_rs, r_coop, r_mcp = r[schemes.SCHEME_RS], r[schemes.SCHEME_COOP], r[schemes.SCHEME_MCP]
        gap = max(gap, r[schemes.SCHEME_SINGLE] - r_rs, (r_coop - r_mcp) - 1e-6,
                  max(r_rs, r_coop, r_mcp) - r[schemes.SCHEME_BOUND])
    return _within("scheme-ordering", gap, 1e-9)


def _check_half_duplex_halving(seed: int) -> OracleReport:
    rng = _rng(seed, 12)
    gap = 0.0
    for i in range(10):
        full = _draw_params(rng)
        names = (schemes.SCHEME_SINGLE, schemes.SCHEME_RS) + (schemes.SCHEME_COOP,) * (i == 0)
        r_half, r_full = _rates(replace(full, duplex="half"), names), _rates(full, names)
        gap = max(gap, *(abs(r_half[name] - 0.5 * r_full[name]) for name in names))
    return _within("half-duplex-halving", gap, 1e-12)


def _check_mcp_sum_dominance(seed: int) -> OracleReport:
    """``mcp_bounds``' sum bound is at least its private and common ones."""
    rng = _rng(seed, 13)
    gap = 0.0
    for params, split in _draws(rng, 20):
        eta2, gamma2, p2 = params.hop(2)
        bounds = mcp_bounds(eta2, gamma2, *split.powers(p2))
        gap = max(gap, max(bounds[1, 0], bounds[0, 1]) - bounds[1, 1])
    return _within("mcp-sum-dominance", gap, 1e-12)


def _check_power_monotonicity(seed: int) -> OracleReport:
    rng = _rng(seed, 14)
    gap = 0.0
    for _ in range(8):
        base = _draw_params(rng)
        previous_single = previous_rs = -math.inf
        for factor in (1.0, 2.0, 4.0, 8.0):
            params = replace(base, p1=base.p1 * factor, p2=base.p2 * factor)
            r_single = schemes.single_rate(params).rate
            r_rs = schemes.rate_splitting(params).rate
            gap = max(gap, previous_single - r_single, previous_rs - r_rs)
            previous_single, previous_rs = r_single, r_rs
    return _within("power-monotonicity", gap, 1e-9)


def _check_vertex_walk(seed: int) -> OracleReport:
    """The envelope walk of ``vertices`` against the pairwise enumeration:
    the same vertex count, and every coordinate within twice the 1e-10 merge
    tolerance. Hop 1, rate-splitting and cooperative hop-2 regions of nine
    draws that alternate in and out of the paper regime and cycle through
    all-common (f = 0), all-private (f = 1) and a uniform split, so the first
    six meet every pairing. The reported gap is the largest coordinate gap,
    or inf on a count mismatch."""
    rng = _rng(seed, 15)
    builders = (hop1_region, hop2_rs_region, hop2_coop_region)
    gap = 0.0
    for i in range(9):
        params = _draw_params(rng, paper_regime=i % 2 == 0)
        split = HopSplit((0.0, 1.0, float(rng.uniform(0.0, 1.0)))[i % 3])
        for builder in builders:
            region = builder(params, split)
            fast, reference = vertices(region), enumerated_vertices(region)
            if len(fast) != len(reference):
                gap = math.inf
            for v, w in zip(fast, reference):
                gap = max(gap, abs(v.r_private - w.r_private), abs(v.r_common - w.r_common))
    return _within("vertex-walk", gap, 2e-10)


_CHECKS = (
    _check_region_reduction,
    _check_vertex_a_sum,
    _check_lp_vs_grid,
    _check_quadrature_riemann,
    _check_substitution_symmetry,
    _check_vsi_exact_agree,
    _check_vsi_certificate,
    _check_vsi_paper_sufficient,
    _check_vsi_a2_dominates_a1,
    _check_rs_dense_grid,
    _check_scheme_ordering,
    _check_half_duplex_halving,
    _check_mcp_sum_dominance,
    _check_power_monotonicity,
    _check_vertex_walk,
)
# The report name of each entry of _CHECKS, so a filter skips a check unrun.
_CHECK_NAMES = tuple(check.__name__.removeprefix("_check_").replace("_", "-")
                     for check in _CHECKS)


def run_suite(seed: int = 0, name_filter: str | None = None) -> list[OracleReport]:
    """Run the verification checks, deterministically for a given seed.

    A name filter picks checks before any runs. Each check derives its own
    generator from (seed, check index), so a filter never changes the draws
    of the checks that do run.
    """
    return [check(seed) for check, name in zip(_CHECKS, _CHECK_NAMES)
            if not name_filter or name_filter in name]
