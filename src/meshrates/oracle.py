"""Brute-force reference implementations and the verification suite.

Everything here recomputes results from first principles, sharing no formula
code with the fast paths it checks: the full subset-enumerated MAC region,
the fixed-decoding-order corner candidates, lattice maximization instead of
the exact LP, self-certifying midpoint sums instead of the closed-form
joint-decoding bounds, and per-inequality threshold inversions.
Oracles may be slow; they exist to certify, not to perform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from . import schemes
from .model import HopSplit, NetworkParams, RatePair, capacity
from .polytope import max_sum_rate, vertices
from .regions import (
    Halfspace,
    RateRegion,
    hop1_region,
    hop2_mcp_region,
    hop2_rs_region,
    vertex_a,
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

def full_mac_region_hop1(params: NetworkParams, split: HopSplit) -> RateRegion:
    """All fifteen subset inequalities of the first-hop four-user MAC.

    Decoded signals: the private codeword (power beta2*P1p) and the three
    common codewords (powers beta2*P1c, alpha2*P1c, alpha2*P1c); the two
    adjacent private codewords stay in the noise floor. No dominated
    inequality is removed.
    """
    pw = split.powers(params.p1)
    noise = 1.0 + 2.0 * params.alpha2 * pw.p_private
    users = (
        ("p", 1, 0, params.beta2 * pw.p_private),
        ("cm", 0, 1, params.beta2 * pw.p_common),
        ("cm-1", 0, 1, params.alpha2 * pw.p_common),
        ("cm+1", 0, 1, params.alpha2 * pw.p_common),
    )
    halfspaces = []
    subsets = chain.from_iterable(combinations(users, k) for k in range(1, 5))
    for subset in subsets:
        coef_p = sum(u[1] for u in subset)
        coef_c = sum(u[2] for u in subset)
        power = math.fsum(u[3] for u in subset)
        bound = math.log2(1.0 + power / noise)
        label = "mac:" + "+".join(u[0] for u in subset)
        halfspaces.append(Halfspace(coef_p, coef_c, bound, label))
    return RateRegion(
        halfspaces=tuple(halfspaces),
        provenance=f"mac15(alpha2={params.alpha2:g}, beta2={params.beta2:g}, "
                   f"p_private={pw.p_private:g}, p_common={pw.p_common:g})",
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
    cross2, intra2 = params.alpha2, params.beta2
    pw = split.powers(params.p1)
    pp, pc = pw.p_private, pw.p_common
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


def grid_max_sum(regions, step: float) -> float:
    """Max of R_p + R_c over the feasible lattice of spacing ``step``."""
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step!r}")
    if isinstance(regions, RateRegion):
        regions = [regions]
    halfspaces = [h for region in regions for h in region.halfspaces]
    rp_max = min(h.bound / h.coef_private for h in halfspaces if h.coef_private > 0)
    rc_max = min(h.bound / h.coef_common for h in halfspaces if h.coef_common > 0)
    rp = np.arange(0.0, rp_max + step / 2.0, step)
    rc = np.arange(0.0, rc_max + step / 2.0, step)
    x = rp[:, None]
    y = rc[None, :]
    feasible = np.ones((rp.size, rc.size), dtype=bool)
    for h in halfspaces:
        feasible &= h.coef_private * x + h.coef_common * y <= h.bound + 1e-12
    total = np.where(feasible, x + y, -np.inf)
    return float(total.max())


def riemann_integral(integrand, n_nodes: int) -> float:
    """Midpoint-rule sum of ``integrand`` over n uniform cells of [0, 1]."""
    if n_nodes < 2:
        raise ValueError(f"n_nodes must be >= 2, got {n_nodes}")
    nodes = (np.arange(n_nodes) + 0.5) / n_nodes
    return float(np.mean(integrand(nodes)))


MIDPOINT_FIRST_NODES = 2 ** 10
MIDPOINT_MAX_NODES = 2 ** 20
MIDPOINT_AGREEMENT = 1e-14


def certified_midpoint(integrand) -> tuple[float, float, int]:
    """Midpoint rule over [0, 1] that doubles its node count until two
    successive sums agree.

    For a periodic integrand analytic in a strip, the N-node midpoint error
    falls geometrically in N (Trefethen and Weideman, SIAM Review 2014), so
    once |I(2N) - I(N)| <= MIDPOINT_AGREEMENT the error of I(2N) is below
    that difference. Starting at MIDPOINT_FIRST_NODES, N doubles until the
    sums agree or 2N reaches MIDPOINT_MAX_NODES. Returns (I(2N),
    |I(2N) - I(N)|, 2N); a non-smooth integrand reaches the cap and reports
    a difference above MIDPOINT_AGREEMENT, so callers must add it to any gap
    they compare.
    """
    n = MIDPOINT_FIRST_NODES
    coarse = riemann_integral(integrand, n)
    while True:
        n *= 2
        fine = riemann_integral(integrand, n)
        ref_err = abs(fine - coarse)
        if ref_err <= MIDPOINT_AGREEMENT or n >= MIDPOINT_MAX_NODES:
            return fine, ref_err, n
        coarse = fine


def mcp_reference_integrands(gamma2: float, eta2: float,
                             p_private: float, p_common: float) -> dict:
    """Spectral integrands for the joint-decoding bounds, rebuilt from the
    tap definitions (independent of the region builder's code)."""
    g = math.sqrt(gamma2)
    e = math.sqrt(eta2)
    per_code = p_common / 3.0

    def h_private(f):
        return g + e * (np.exp(2j * np.pi * f) + np.exp(-2j * np.pi * f)).real

    def h_common(f):
        phases = [np.exp(2j * np.pi * k * f) for k in (-2, -1, 0, 1, 2)]
        taps = [e, g + e, g + 2 * e, g + e, e]
        return sum(t * p for t, p in zip(taps, phases)).real

    return {
        "private": lambda f: np.log2(1.0 + p_private * h_private(f) ** 2),
        "common": lambda f: np.log2(1.0 + per_code * h_common(f) ** 2),
        "sum": lambda f: np.log2(1.0 + p_private * h_private(f) ** 2
                                 + per_code * h_common(f) ** 2),
    }


def dense_split_scan(params: NetworkParams, hop: int, step: float = 1e-3) -> tuple[float, float]:
    """Brute-force scan of a hop's corner sum rate over the split fraction.

    Reimplements the two-stage decode directly: the three common codewords
    form a MAC decoded against the full private interference, then the
    private codeword is decoded clean of same-cell common signals.
    Returns (best fraction, best rate).
    """
    if hop == 1:
        cross2, intra2, total = params.alpha2, params.beta2, params.p1
    elif hop == 2:
        cross2, intra2, total = params.eta2, params.gamma2, params.p2
    else:
        raise ValueError(f"hop must be 1 or 2, got {hop!r}")
    best_f, best_v = 0.0, -math.inf
    n = round(1.0 / step)
    for i in range(n + 1):
        f = i / n
        pp = f * total
        pc = total - pp
        private_noise = 1.0 + 2.0 * cross2 * pp
        common_noise = private_noise + intra2 * pp
        stage1 = min(
            math.log2(1.0 + 2.0 * cross2 * pc / common_noise) / 2.0,
            math.log2(1.0 + (2.0 * cross2 + intra2) * pc / common_noise) / 3.0,
        )
        stage2 = math.log2(1.0 + intra2 * pp / private_noise)
        v = stage1 + stage2
        if v >= best_v:
            best_f, best_v = f, v
    return best_f, best_v


def vsi_exact_solve(beta2: float, p1: float) -> float:
    """Minimal inter-cell gain supporting the single-user rate with
    common-only transmission, from per-inequality tightness equations.

    Each subset inequality of the three-common-codeword MAC is solved for
    the gain that makes it exactly tight at the target rate; the largest
    solution over the cross-involving inequalities is the threshold.
    """
    if not (beta2 > 0.0 and p1 > 0.0):
        raise ValueError("vsi_exact_solve needs positive beta2 and p1")
    target_arg = 1.0 + beta2 * p1
    threshold = 0.0
    for n_own, n_cross in ((0, 1), (1, 1), (0, 2), (1, 2)):
        users = n_own + n_cross
        # users * C(...) = users * log2(target_arg) tight:
        # 1 + (n_own*beta2 + n_cross*alpha2)*p1 = target_arg**users
        alpha2 = (target_arg ** users - 1.0 - n_own * beta2 * p1) / (n_cross * p1)
        threshold = max(threshold, alpha2)
    return threshold


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _draw_params(rng: np.random.Generator, paper_regime: bool = True) -> NetworkParams:
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


def _max_violation(region: RateRegion, point: RatePair) -> float:
    return max(0.0, -min(h.slack(point) for h in region.halfspaces))


def _check_region_reduction(seed: int) -> OracleReport:
    rng = _rng(seed, 1)
    gap = 0.0
    for _ in range(150):
        params = _draw_params(rng)
        split = HopSplit(float(rng.uniform(0.0, 1.0)))
        fast = hop1_region(params, split)
        reference = full_mac_region_hop1(params, split)
        for v in vertices(fast):
            gap = max(gap, _max_violation(reference, v))
        for v in vertices(reference):
            gap = max(gap, _max_violation(fast, v))
    return OracleReport("region-reduction", 0.0, gap, gap, 1e-9, gap <= 1e-9)


def _check_vertex_a_sum(seed: int) -> OracleReport:
    rng = _rng(seed, 2)
    worst = (0.0, 0.0, 0.0)
    for _ in range(150):
        params = _draw_params(rng)
        split = HopSplit(float(rng.uniform(0.0, 1.0)))
        _, corner_sum = vertex_a(params, split, hop=1)
        lp = max_sum_rate(hop1_region(params, split))
        gap = abs(corner_sum - lp.value)
        if gap > worst[0]:
            worst = (gap, lp.value, corner_sum)
    return OracleReport("vertex-a-sum", worst[1], worst[2], worst[0], 1e-9, worst[0] <= 1e-9)


def _check_lp_vs_grid(seed: int) -> OracleReport:
    rng = _rng(seed, 3)
    step = 1e-3
    worst = (0.0, 0.0, 0.0)
    for _ in range(25):
        params = _draw_params(rng)
        region = hop1_region(params, HopSplit(float(rng.uniform(0.0, 1.0))))
        reference = grid_max_sum(region, step)
        fast = max_sum_rate(region).value
        gap = abs(fast - reference)
        if gap > worst[0]:
            worst = (gap, reference, fast)
    return OracleReport("lp-vs-grid", worst[1], worst[2], worst[0], 5 * step, worst[0] <= 5 * step)


def _check_quadrature(seed: int) -> OracleReport:
    """Closed-form MCP bounds against the certified midpoint reference: the
    check passes iff the largest gap plus the largest reference error is
    within 1e-12. Twelve draws in the paper's regime, then twelve at high
    inter-cell gain (eta2 up to 5) and powers from 1e-3 to 1e3."""
    rng = _rng(seed, 4)
    cases = []
    for _ in range(12):
        params = _draw_params(rng)
        cases.append((params, HopSplit(float(rng.uniform(0.0, 1.0)))))
    for _ in range(12):
        gamma2 = float(rng.uniform(0.2, 2.5))
        eta2 = float(rng.uniform(0.0, 5.0))
        p2 = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        params = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=gamma2, eta2=eta2, p1=1.0, p2=p2)
        cases.append((params, HopSplit(float(rng.uniform(0.0, 1.0)))))
    worst = (0.0, 0.0, 0.0)
    ref_err = 0.0
    for params, split in cases:
        region = hop2_mcp_region(params, split)
        pw = split.powers(params.p2)
        reference_fns = mcp_reference_integrands(params.gamma2, params.eta2,
                                                 pw.p_private, pw.p_common)
        fast_bounds = {h.label: h.bound for h in region.halfspaces}
        for name, label in (("private", "private-single"),
                            ("common", "common-joint"),
                            ("sum", "sum-joint")):
            reference, err, _ = certified_midpoint(reference_fns[name])
            ref_err = max(ref_err, err)
            gap = abs(fast_bounds[label] - reference)
            if gap > worst[0]:
                worst = (gap, reference, fast_bounds[label])
    return OracleReport("quadrature-riemann", worst[1], worst[2], worst[0], 1e-12,
                        worst[0] + ref_err <= 1e-12, ref_err)


def _check_substitution(seed: int) -> OracleReport:
    rng = _rng(seed, 5)
    gap = 0.0
    ref = fast = 0.0
    for _ in range(100):
        params = _draw_params(rng, paper_regime=False)
        split = HopSplit(float(rng.uniform(0.0, 1.0)))
        relabeled = NetworkParams(alpha2=params.eta2, beta2=params.gamma2,
                                  gamma2=1.0, eta2=0.0, p1=params.p2, p2=1.0)
        region_a = hop2_rs_region(params, split)
        region_b = hop1_region(relabeled, split)
        for ha, hb in zip(region_a.halfspaces, region_b.halfspaces):
            if (ha.coef_private, ha.coef_common, ha.label) != (hb.coef_private, hb.coef_common, hb.label):
                return OracleReport("substitution-symmetry", 0.0, math.inf, math.inf, 1e-15, False)
            if abs(ha.bound - hb.bound) > gap:
                gap, ref, fast = abs(ha.bound - hb.bound), hb.bound, ha.bound
    return OracleReport("substitution-symmetry", ref, fast, gap, 1e-15, gap <= 1e-15)


def _draw_vsi(rng: np.random.Generator) -> tuple[float, float]:
    return (float(rng.uniform(0.1, 3.0)),
            float(np.exp(rng.uniform(math.log(0.01), math.log(20.0)))))


def _check_vsi_exact_agree(seed: int) -> OracleReport:
    rng = _rng(seed, 6)
    worst = (0.0, 0.0, 0.0)
    for _ in range(50):
        beta2, p1 = _draw_vsi(rng)
        reference = vsi_exact_solve(beta2, p1)
        fast = schemes.vsi_threshold(beta2, p1, method="exact")
        gap = abs(reference - fast)
        if gap > worst[0]:
            worst = (gap, reference, fast)
    return OracleReport("vsi-exact-agree", worst[1], worst[2], worst[0], 1e-12, worst[0] <= 1e-12)


def _vsi_params(alpha2: float, beta2: float, p1: float) -> NetworkParams:
    return NetworkParams(alpha2=alpha2, beta2=beta2, gamma2=1.0, eta2=0.0, p1=p1, p2=1.0)


def _check_vsi_certificate(seed: int) -> OracleReport:
    rng = _rng(seed, 7)
    failures = 0
    for _ in range(50):
        beta2, p1 = _draw_vsi(rng)
        threshold = vsi_exact_solve(beta2, p1)
        ok_at, _ = schemes.vsi_check(_vsi_params(threshold, beta2, p1))
        ok_below, _ = schemes.vsi_check(_vsi_params(0.99 * threshold, beta2, p1))
        if not ok_at or ok_below:
            failures += 1
    return OracleReport("vsi-certificate", 0.0, float(failures), float(failures), 0.5, failures == 0)


def _check_vsi_paper_sufficient(seed: int) -> OracleReport:
    # The printed closed form only dominates the per-inequality solution at
    # small gains and powers (beta2 <= 1, p1 <= 2); outside that regime it
    # can fall short of sufficiency, which vsi_check exposes.
    rng = _rng(seed, 8)
    gap = 0.0
    failures = 0
    for _ in range(50):
        beta2 = float(rng.uniform(0.1, 1.0))
        p1 = float(np.exp(rng.uniform(math.log(0.01), math.log(2.0))))
        exact = schemes.vsi_threshold(beta2, p1, method="exact")
        paper = schemes.vsi_threshold(beta2, p1, method="paper")
        gap = max(gap, exact - paper)
        ok, _ = schemes.vsi_check(_vsi_params(paper, beta2, p1))
        if not ok:
            failures += 1
    bad = max(gap, float(failures))
    return OracleReport("vsi-paper-sufficient", 0.0, bad, bad, 1e-12, bad <= 1e-12)


def _check_vsi_a2_dominates_a1(seed: int) -> OracleReport:
    gap = 0.0
    for beta2 in np.linspace(0.1, 3.0, 20):
        for p1 in np.geomspace(0.01, 20.0, 20):
            a1 = beta2 * max(p1 / 2.0 + 1.0, beta2 * p1 + 1.0)
            a2 = beta2 * (2.0 + 3.0 * p1 + beta2 ** 2 * p1)
            gap = max(gap, a1 - a2)
    return OracleReport("vsi-a2-dominates-a1", 0.0, gap, gap, 1e-12, gap <= 1e-12)


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
        _, fast1 = schemes._optimize_hop_split(params.alpha2, params.beta2, params.p1)
        _, fast2 = schemes._optimize_hop_split(params.eta2, params.gamma2, params.p2)
        reference = min(r1, r2)
        fast = schemes.rate_splitting(params).rate
        excess = max(excess, fast - reference)
        for ref, got in ((r1, fast1), (r2, fast2), (reference, fast)):
            if ref - got > worst[0]:
                worst = (ref - got, ref, got)
    passed = worst[0] <= 1e-12 and excess <= 5e-3
    return OracleReport("rs-dense-grid", worst[1], worst[2], worst[0], 1e-12, passed)


def _check_scheme_ordering(seed: int) -> OracleReport:
    p1 = 10.0 ** 0.3
    gap = 0.0
    for alpha2 in np.linspace(0.0, 1.0, 9):
        params = NetworkParams(alpha2=float(alpha2), beta2=1.0, gamma2=1.0,
                               eta2=float(alpha2), p1=p1, p2=p1 / 2.0)
        r_single = schemes.single_rate(params).rate
        r_rs = schemes.rate_splitting(params).rate
        r_coop = schemes.coop(params).rate
        r_mcp = schemes.mcp(params).rate
        r_bound = schemes.first_hop_upper_bound(params).rate
        gap = max(gap, r_single - r_rs)
        gap = max(gap, (r_coop - r_mcp) - 1e-6)
        gap = max(gap, max(r_rs, r_coop, r_mcp) - r_bound)
    return OracleReport("scheme-ordering", 0.0, gap, gap, 1e-9, gap <= 1e-9)


def _check_half_duplex(seed: int) -> OracleReport:
    rng = _rng(seed, 12)
    gap = 0.0
    for i in range(10):
        full = _draw_params(rng)
        half = NetworkParams(alpha2=full.alpha2, beta2=full.beta2, gamma2=full.gamma2,
                             eta2=full.eta2, p1=full.p1, p2=full.p2, duplex="half")
        gap = max(gap, abs(schemes.single_rate(half).rate - 0.5 * schemes.single_rate(full).rate))
        gap = max(gap, abs(schemes.rate_splitting(half).rate - 0.5 * schemes.rate_splitting(full).rate))
        if i == 0:
            gap = max(gap, abs(schemes.coop(half).rate - 0.5 * schemes.coop(full).rate))
    return OracleReport("half-duplex-halving", 0.0, gap, gap, 1e-12, gap <= 1e-12)


def _check_mcp_sum_dominance(seed: int) -> OracleReport:
    rng = _rng(seed, 13)
    gap = 0.0
    for _ in range(20):
        params = _draw_params(rng)
        region = hop2_mcp_region(params, HopSplit(float(rng.uniform(0.0, 1.0))))
        bounds = {h.label: h.bound for h in region.halfspaces}
        gap = max(gap, max(bounds["private-single"], bounds["common-joint"]) - bounds["sum-joint"])
    return OracleReport("mcp-sum-dominance", 0.0, gap, gap, 1e-12, gap <= 1e-12)


def _check_power_monotonicity(seed: int) -> OracleReport:
    rng = _rng(seed, 14)
    gap = 0.0
    for _ in range(8):
        base = _draw_params(rng)
        previous_single = previous_rs = -math.inf
        for factor in (1.0, 2.0, 4.0, 8.0):
            params = NetworkParams(alpha2=base.alpha2, beta2=base.beta2,
                                   gamma2=base.gamma2, eta2=base.eta2,
                                   p1=base.p1 * factor, p2=base.p2 * factor)
            r_single = schemes.single_rate(params).rate
            r_rs = schemes.rate_splitting(params).rate
            gap = max(gap, previous_single - r_single, previous_rs - r_rs)
            previous_single, previous_rs = r_single, r_rs
    return OracleReport("power-monotonicity", 0.0, gap, gap, 1e-9, gap <= 1e-9)


_CHECKS = (
    _check_region_reduction,
    _check_vertex_a_sum,
    _check_lp_vs_grid,
    _check_quadrature,
    _check_substitution,
    _check_vsi_exact_agree,
    _check_vsi_certificate,
    _check_vsi_paper_sufficient,
    _check_vsi_a2_dominates_a1,
    _check_rs_dense_grid,
    _check_scheme_ordering,
    _check_half_duplex,
    _check_mcp_sum_dominance,
    _check_power_monotonicity,
)
# The report name of each entry of _CHECKS, so a filter skips a check unrun.
_CHECK_NAMES = (
    "region-reduction", "vertex-a-sum", "lp-vs-grid", "quadrature-riemann",
    "substitution-symmetry", "vsi-exact-agree", "vsi-certificate",
    "vsi-paper-sufficient", "vsi-a2-dominates-a1", "rs-dense-grid",
    "scheme-ordering", "half-duplex-halving", "mcp-sum-dominance",
    "power-monotonicity",
)


def run_suite(seed: int = 0, name_filter: str | None = None) -> list[OracleReport]:
    """Run the verification checks, deterministically for a given seed.

    A name filter picks checks before any runs. Each check derives its own
    generator from (seed, check index), so a filter never changes the draws
    of the checks that do run.
    """
    return [check(seed) for check, name in zip(_CHECKS, _CHECK_NAMES)
            if not name_filter or name_filter in name]
