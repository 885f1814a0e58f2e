"""Achievable-rate polytopes in the (private rate, common rate) plane.

Each receiver sees a small Gaussian multiple-access channel once the decoding
strategy fixes which interfering codebooks are decoded and which are treated
as noise. Every builder here emits the reduced constraint set of that MAC as
labeled halfspaces ``coef_private*R_p + coef_common*R_c <= bound``.

The two-message min-type common bounds are emitted as two separate halfspaces
(2-user and 3-user) so linear programs over the raw polytope can report
binding constraints faithfully. The joint-decoding (MCP) bounds are spectral
integrals, evaluated in closed form by Jensen's formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HopSplit, NetworkParams, RatePair, capacity

LABEL_PRIVATE = "private-single"
LABEL_COMMON2 = "common-2user"
LABEL_COMMON3 = "common-3user"
LABEL_SUM2 = "sum-2"
LABEL_SUM3 = "sum-3"
LABEL_COMMON = "common-joint"
LABEL_SUM = "sum-joint"


@dataclass(frozen=True)
class Halfspace:
    """One constraint coef_private*R_p + coef_common*R_c <= bound."""

    coef_private: int
    coef_common: int
    bound: float
    label: str

    def __post_init__(self) -> None:
        if self.coef_private == 0 and self.coef_common == 0:
            raise ValueError("halfspace needs at least one non-zero coefficient")
        if not (math.isfinite(self.bound) and self.bound >= 0.0):
            raise ValueError(f"halfspace bound must be finite and >= 0, got {self.bound!r}")

    def slack(self, point: RatePair) -> float:
        return self.bound - (self.coef_private * point.r_private
                             + self.coef_common * point.r_common)


@dataclass(frozen=True)
class RateRegion:
    """Bounded polytope of achievable (R_private, R_common) pairs.

    The origin is always feasible (bounds are non-negative) and boundedness
    is guaranteed by requiring a pure private constraint and a pure common
    constraint.
    """

    halfspaces: tuple[Halfspace, ...]
    provenance: str

    def __post_init__(self) -> None:
        if not any(h.coef_private >= 1 and h.coef_common == 0 for h in self.halfspaces):
            raise ValueError("region is unbounded in R_private: needs a (1,0) constraint")
        if not any(h.coef_private == 0 and h.coef_common >= 1 for h in self.halfspaces):
            raise ValueError("region is unbounded in R_common: needs a (0,k) constraint")

    @property
    def short_name(self) -> str:
        return self.provenance.split("(", 1)[0]


@dataclass(frozen=True)
class FilterTaps:
    """Amplitude taps of the equivalent inter-cell impulse responses seen by
    a joint decoder in the second hop (square roots of power gains)."""

    private_taps: tuple[float, float, float]
    common_taps: tuple[float, float, float, float, float]


def filter_taps(params: NetworkParams) -> FilterTaps:
    g = math.sqrt(params.gamma2)
    e = math.sqrt(params.eta2)
    return FilterTaps(
        private_taps=(e, g, e),
        common_taps=(e, g + e, g + 2 * e, g + e, e),
    )


# ---------------------------------------------------------------------------
# Bound formulas. The *_bounds helpers accept scalars or numpy arrays for the
# power pair so the split optimizers can sweep many splits in one call; the
# public region builders wrap the scalar case into labeled halfspaces.
# ---------------------------------------------------------------------------

def _log1p_rate(x):
    return np.log2(1.0 + x)


def mac_bounds(cross2, intra2, p_private, p_common):
    """Reduced 4-user MAC constraint bounds for one hop with rate splitting.

    ``cross2``/``intra2`` are the inter-/intra-cell power gains of the hop.
    Returns the bounds keyed by (coef_private, coef_common).
    """
    noise = 1.0 + 2.0 * cross2 * p_private
    return {
        (1, 0): _log1p_rate(intra2 * p_private / noise),
        (0, 2): _log1p_rate(2.0 * cross2 * p_common / noise),
        (0, 3): _log1p_rate((2.0 * cross2 + intra2) * p_common / noise),
        (1, 2): _log1p_rate((intra2 * p_private + 2.0 * cross2 * p_common) / noise),
        (1, 3): _log1p_rate((intra2 * p_private + (2.0 * cross2 + intra2) * p_common) / noise),
    }


def coop_bounds(gamma2, eta2, p_private, p_common):
    """Second-hop MAC bounds when the three adjacent relays transmit each
    common codeword cooperatively, splitting its power three ways.

    Coherent combining turns the common-signal receive powers into
    (gamma+eta)^2 and (gamma+2*eta)^2 terms; the two leaked outer-cell common
    codewords and the adjacent private codewords raise the noise floor.
    """
    g = np.sqrt(gamma2)
    e = np.sqrt(eta2)
    per_code = p_common / 3.0
    noise = 1.0 + 2.0 * eta2 * (p_private + per_code)
    two_user = 2.0 * (g + e) ** 2
    three_user = two_user + (g + 2.0 * e) ** 2
    return {
        (1, 0): _log1p_rate(gamma2 * p_private / noise),
        (0, 2): _log1p_rate(two_user * per_code / noise),
        (0, 3): _log1p_rate(three_user * per_code / noise),
        (1, 2): _log1p_rate((gamma2 * p_private + two_user * per_code) / noise),
        (1, 3): _log1p_rate((gamma2 * p_private + three_user * per_code) / noise),
    }


_DROP_TOL = 1e-17  # see _log2_mahler
_EVAL_ROUNDING = 16.0 * np.finfo(float).eps  # see _newton_step


def _newton_step(coefs: np.ndarray, w: np.ndarray, is_root: np.ndarray) -> np.ndarray:
    """One Newton step for every root ``w[i, k]`` (where ``is_root[i, k]``) of
    the polynomial with ascending coefficients ``coefs[i]``.

    Eigenvalues of a companion matrix with a tiny leading coefficient come
    back ~1e-11 off for the small roots; one step on the truncated polynomial
    brings them to rounding level. A root where |P| is already within the
    rounding error of evaluating P is left alone (near a double root the
    step would only move it by noise), and so is one where the step does not
    lower |P|.
    """
    descending = coefs[:, ::-1, None].transpose(1, 0, 2)
    value = np.zeros_like(w)
    slope = np.zeros_like(w)
    scale = np.zeros(w.shape)
    radius = np.abs(w)
    stepped_value = np.zeros_like(w)
    # Where P overflows at w or at the stepped point the comparisons below
    # see inf or nan and the step is not taken.
    with np.errstate(over="ignore", invalid="ignore"):
        for c in descending:
            slope = slope * w + value
            value = value * w + c
            scale = scale * radius + np.abs(c)
        step = is_root & (np.abs(value) > _EVAL_ROUNDING * scale) & (slope != 0.0)
        stepped = w - np.where(step, value, 0.0) / np.where(step, slope, 1.0)
        for c in descending:
            stepped_value = stepped_value * stepped + c
        step &= np.abs(stepped_value) < np.abs(value)
    return np.where(step, stepped, w)


def _log2_mahler(coefs: np.ndarray) -> np.ndarray:
    """Integral over f in [0, 1] of log2 P(2cos 2*pi*f), for polynomials P
    of degree <= 4 given by five ascending coefficients along the last axis,
    with P >= 1 on [-2, 2].

    Jensen's formula: with w = z + 1/z, each root w_k of P contributes
    log2|J_k|, J_k the root of z^2 - w_k z + 1 with |J_k| >= 1, so the
    integral is log2|a_d| + sum_k log2|J_k|. Leading terms are dropped while
    their tail is below _DROP_TOL: on [-2, 2] that moves P >= 1 by less than
    1e-17, the value by less than 2e-17 bits, and it keeps a tiny but positive
    coefficient from sending a root towards overflow. The roots of each degree
    come from one batched eigenvalue call on stacked companion matrices, and
    are then polished by one Newton step on the truncated polynomials.
    """
    a = coefs.reshape(-1, coefs.shape[-1])
    scaled = np.abs(a) * [1.0, 2.0, 4.0, 8.0, 16.0]  # |a_j| 2^j
    tails = np.cumsum(scaled[:, ::-1], axis=1)[:, ::-1]
    degree = (tails[:, 1:] > _DROP_TOL).sum(axis=1)
    lead = a[np.arange(len(a)), degree]
    w = np.zeros((len(a), 4), dtype=complex)
    for d in range(1, 5):
        rows = degree == d
        if not rows.any():
            continue
        companion = np.zeros((rows.sum(), d, d))
        companion[:, 0, :] = -a[rows, d - 1::-1] / lead[rows, None]
        companion[:, 1:, :-1] = np.eye(d - 1)
        w[rows, :d] = np.linalg.eigvals(companion)
    is_root = np.arange(4) < degree[:, None]
    w = _newton_step(np.where(np.arange(5) <= degree[:, None], a, 0.0), w, is_root)
    s = np.sqrt(w * w - 4.0)
    log_j = np.where(is_root, np.log2(np.maximum(np.abs(w + s), np.abs(w - s))), 0.0)
    total = np.log2(np.abs(lead)) + (log_j.sum(axis=1) - degree)
    return total.reshape(coefs.shape[:-1])


def mcp_bounds(gamma2, eta2, p_private, p_common):
    """Second-hop bounds under joint decoding across all base stations.

    The cell index acts as the tap axis of an inter-symbol-interference MAC,
    so each bound is a unit-interval spectral integral. With w = 2cos 2*pi*f,
    the private and per-codeword common responses are g + e*w and
    (1 + w)(g + e*w) (g, e the amplitude gains), and each common codeword
    carries a third of the common power. Scalar gains; the power pair may be
    scalars or arrays. Returns the bounds keyed by (coef_private, coef_common).
    """
    g = math.sqrt(gamma2)
    e = math.sqrt(eta2)
    # Ascending coefficients in w of (g + e*w)^2 and of (1 + w)^2 (g + e*w)^2;
    # the rows are the private, common and sum polynomials.
    private = [g * g, 2.0 * g * e, e * e, 0.0, 0.0]
    common = [g * g, 2.0 * g * (g + e), g * g + 4.0 * g * e + e * e, 2.0 * e * (g + e), e * e]
    zero = [0.0] * 5
    p_private = np.asarray(p_private, dtype=float)[..., None, None]
    per_code = np.asarray(p_common, dtype=float)[..., None, None] / 3.0
    coefs = (np.array([1.0, 0.0, 0.0, 0.0, 0.0])
             + p_private * np.array([private, zero, private])
             + per_code * np.array([zero, common, common]))
    bounds = _log2_mahler(coefs)
    return {(1, 0): bounds[..., 0], (0, 1): bounds[..., 1], (1, 1): bounds[..., 2]}


def _mac_region(cross2, intra2, p_private, p_common, provenance: str) -> RateRegion:
    b = mac_bounds(cross2, intra2, p_private, p_common)
    return RateRegion(
        halfspaces=(
            Halfspace(1, 0, float(b[(1, 0)]), LABEL_PRIVATE),
            Halfspace(0, 2, float(b[(0, 2)]), LABEL_COMMON2),
            Halfspace(0, 3, float(b[(0, 3)]), LABEL_COMMON3),
            Halfspace(1, 2, float(b[(1, 2)]), LABEL_SUM2),
            Halfspace(1, 3, float(b[(1, 3)]), LABEL_SUM3),
        ),
        provenance=provenance,
    )


def hop1_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Rate region of the terminal-to-relay hop for a fixed power split."""
    pw = split.powers(params.p1)
    return _mac_region(
        params.alpha2, params.beta2, pw.p_private, pw.p_common,
        f"hop1(alpha2={params.alpha2:g}, beta2={params.beta2:g}, "
        f"p_private={pw.p_private:g}, p_common={pw.p_common:g})",
    )


def hop2_rs_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Relay-to-base hop region when relays re-split independently
    (same constraint structure as hop 1 with the hop-2 gains and power)."""
    pw = split.powers(params.p2)
    return _mac_region(
        params.eta2, params.gamma2, pw.p_private, pw.p_common,
        f"hop2-rs(eta2={params.eta2:g}, gamma2={params.gamma2:g}, "
        f"p_private={pw.p_private:g}, p_common={pw.p_common:g})",
    )


def hop2_coop_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Relay-to-base hop region with cooperative common-message relaying."""
    pw = split.powers(params.p2)
    b = coop_bounds(params.gamma2, params.eta2, pw.p_private, pw.p_common)
    return RateRegion(
        halfspaces=(
            Halfspace(1, 0, float(b[(1, 0)]), LABEL_PRIVATE),
            Halfspace(0, 2, float(b[(0, 2)]), LABEL_COMMON2),
            Halfspace(0, 3, float(b[(0, 3)]), LABEL_COMMON3),
            Halfspace(1, 2, float(b[(1, 2)]), LABEL_SUM2),
            Halfspace(1, 3, float(b[(1, 3)]), LABEL_SUM3),
        ),
        provenance=f"hop2-coop(eta2={params.eta2:g}, gamma2={params.gamma2:g}, "
                   f"p_private={pw.p_private:g}, p_common={pw.p_common:g})",
    )


def hop2_mcp_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Relay-to-base hop region with joint decoding across all base stations."""
    pw = split.powers(params.p2)
    b = mcp_bounds(params.gamma2, params.eta2, pw.p_private, pw.p_common)
    return RateRegion(
        halfspaces=(
            Halfspace(1, 0, max(float(b[(1, 0)]), 0.0), LABEL_PRIVATE),
            Halfspace(0, 1, max(float(b[(0, 1)]), 0.0), LABEL_COMMON),
            Halfspace(1, 1, max(float(b[(1, 1)]), 0.0), LABEL_SUM),
        ),
        provenance=f"hop2-mcp(eta2={params.eta2:g}, gamma2={params.gamma2:g}, "
                   f"p_private={pw.p_private:g}, p_common={pw.p_common:g})",
    )


# ---------------------------------------------------------------------------
# Analytic corner points
# ---------------------------------------------------------------------------

def corner_rates(cross2, intra2, p_private, p_common, log1p_rate=_log1p_rate):
    """Private rate and the two-user and three-user per-codeword common-rate
    bounds at the hop's sum-rate-maximizing corner.

    The three common codewords are decoded jointly first (all private
    signals still on air) and cancelled; the private codeword is then
    decoded free of same-cell common signals. ``log1p_rate`` maps an SINR to
    a rate: the default is vectorized, ``capacity`` keeps scalars on
    ``math.log2``.
    """
    noise0 = 1.0 + 2.0 * cross2 * p_private
    noise_first = 1.0 + (2.0 * cross2 + intra2) * p_private
    r_private = log1p_rate(intra2 * p_private / noise0)
    rc_two = 0.5 * log1p_rate(2.0 * cross2 * p_common / noise_first)
    rc_three = log1p_rate((2.0 * cross2 + intra2) * p_common / noise_first) / 3.0
    return r_private, rc_two, rc_three


def corner_sum_rate(cross2, intra2, p_private, p_common):
    """Maximum R_p + R_c over the reduced MAC region (vectorized)."""
    r_private, rc_two, rc_three = corner_rates(cross2, intra2, p_private, p_common)
    return r_private + np.minimum(rc_two, rc_three)


def hop_terms(params: NetworkParams, hop: int) -> tuple[float, float, float]:
    """(cross2, intra2, total power) of one hop; hop 2 follows the plain
    substitution rule."""
    if hop == 1:
        return params.alpha2, params.beta2, params.p1
    if hop == 2:
        return params.eta2, params.gamma2, params.p2
    raise ValueError(f"hop must be 1 or 2, got {hop!r}")


def vertex_a(params: NetworkParams, split: HopSplit, hop: int = 1) -> tuple[RatePair, float]:
    """Sum-rate-maximizing corner of a hop's rate-splitting region.

    Returns the corner itself and its sum rate. ``hop`` selects which hop's
    gains and power are used (hop 2 follows the plain substitution rule).
    """
    cross2, intra2, total = hop_terms(params, hop)
    pw = split.powers(total)
    r_private, rc_two, rc_three = corner_rates(cross2, intra2, pw.p_private, pw.p_common,
                                               capacity)
    point = RatePair(r_private, min(rc_two, rc_three))
    return point, point.total


def vertices_bc(params: NetworkParams, split: HopSplit) -> dict[str, RatePair]:
    """Candidate corner points of the first-hop region from fixed
    successive-cancellation orders.

    B decodes the same-cell common codeword first and the adjacent common
    codewords last; B' decodes the private codeword first; C sits at the
    crossing of the two mixed sum constraints. Each candidate is an actual
    corner only in its own interference regime: outside it the point exits
    the region (for membership checks pair this with ``polytope.contains``).
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
