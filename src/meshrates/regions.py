"""Achievable-rate polytopes in the (private rate, common rate) plane.

Each receiver sees a small Gaussian multiple-access channel once the decoding
strategy fixes which interfering codebooks are decoded and which are treated
as noise. Every builder here emits the reduced constraint set of that MAC as
labeled halfspaces ``coef_private*R_p + coef_common*R_c <= bound``.

The two-message min-type common bounds are emitted as two separate halfspaces
(2-user and 3-user) so linear programs over the raw polytope can report
binding constraints faithfully. The joint-decoding (MCP) bounds are spectral
integrals, evaluated by Jensen's formula: the private and common integrands
factor into conjugate pairs of linear or quadratic polynomials with closed-form
roots, and the sum bound takes the roots of one reversed quartic from a
batched companion-matrix eigenvalue call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import HopSplit, NetworkParams, RatePair, SplitPowers

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


# ---------------------------------------------------------------------------
# Bound formulas. The *_bounds helpers accept scalars or numpy arrays for the
# power pair so the split optimizers can sweep many splits in one call;
# ``hop_region`` wraps scalar bounds into labeled halfspaces, and each public
# region builder is the bounds at its split passed to it.
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


_LN2 = math.log(2.0)


def _phi(v):
    """log2|J/w| at v = 1/w, where J is the root of z^2 - w*z + 1 with |J| >= 1.

    J/w = (1 +- sqrt(1 - 4v^2))/2, and the principal square root has a
    non-negative real part, so the + sign has the larger modulus. phi(0) = 0,
    and a tiny v only brings its own tiny absolute error.
    """
    return np.log2(np.abs(1.0 + np.sqrt(1.0 - 4.0 * v * v))) - 1.0


def _conjugate_pair_bound(power, response):
    """Integral over f in [0, 1] of log2(1 + power*r(w)^2), w = 2cos 2*pi*f,
    for the real response r(w) = r0 + r1*w + r2*w^2 given as (r0, r1, r2).

    With y = i*sqrt(power), 1 + power*r^2 = |1 + y*r|^2, so the integral is
    twice that of log2|a*w^2 + b*w + c| with (c, b, a) = (1 + y*r0, y*r1,
    y*r2). Jensen's formula gives log2|c| + phi(1/w_1) + phi(1/w_2) over the
    roots w_k of that quadratic (see ``mcp_bounds``). By Vieta the reciprocal
    roots are a/Q and Q/c, with Q = -(b +- sqrt(b^2 - 4ac))/2 taking the sign
    of larger modulus, so nothing divides by a small a. a/Q is taken as 0
    where a = 0 (the private response has r2 = 0): Q can be 0 there, or so
    small that complex division overflows. Where a != 0, |Q| >= sqrt|ac| is
    a normal float.
    """
    r0, r1, r2 = response
    y = 1j * np.sqrt(power)
    a, b, c = y * r2, y * r1, 1.0 + y * r0
    root = np.sqrt(b * b - 4.0 * a * c)
    big = -0.5 * np.where(np.abs(b + root) >= np.abs(b - root), b + root, b - root)
    phis = _phi(np.divide(a, big, out=np.zeros_like(a), where=a != 0)) + _phi(big / c)
    return np.log1p(power * r0 * r0) / _LN2 + 2.0 * phis


def mcp_bounds(gamma2, eta2, p_private, p_common):
    """Second-hop bounds under joint decoding across all base stations.

    The cell index acts as the tap axis of an inter-symbol-interference MAC,
    so each bound is a unit-interval spectral integral of log2 P(w), w =
    2cos 2*pi*f. With g, e the amplitude gains and q = p_common/3 the power
    of each common codeword, the private and common responses are
    h = g + e*w and u = (1 + w)(g + e*w), and P is 1 + p_private*h^2,
    1 + q*u^2 or 1 + p_private*h^2 + q*u^2. Jensen's formula, with w = z + 1/z,
    turns the integral of log2 P into log2 P(0) + sum_k phi(1/w_k) over the
    roots w_k of P.

    1 + p*h^2 = |1 + i*sqrt(p)*h|^2 and 1 + q*u^2 = |1 + i*sqrt(q)*u|^2, so the
    private and common bounds come from one conjugate pair of linear or
    quadratic factors each, in closed form. The sum bound takes the roots
    v_k = 1/w_k of the reversed quartic in v = 1/w, whose leading coefficient
    P(0) = 1 + (p_private + q)*gamma2 is at least 1: one batched eigenvalue
    call on the monic companion matrices, then one Newton step per root on
    the quartic evaluated through h and u, kept where it lowers its modulus.

    Scalar gains; the power pair may be scalars or arrays, and every bound
    has their broadcast shape. Returns the bounds keyed by
    (coef_private, coef_common).
    """
    g = math.sqrt(gamma2)
    e = math.sqrt(eta2)
    h = (g, e, 0.0)  # ascending coefficients in w
    u = (g, g + e, e)
    p, q = np.broadcast_arrays(np.asarray(p_private, dtype=float),
                               np.asarray(p_common, dtype=float) / 3.0)
    private = _conjugate_pair_bound(p, h)
    common = _conjugate_pair_bound(q, u)

    # P - 1 in ascending powers of w; the reversed quartic is
    # v^4 + m1 v^3 + m2 v^2 + m3 v + m4 = v^4 P(1/v) / P(0).
    coefs = p[..., None] * np.convolve(h, h) + q[..., None] * np.convolve(u, u)
    monic = (coefs[..., 1:] / (1.0 + coefs[..., :1])).reshape(-1, 4)
    companion = np.zeros((len(monic), 4, 4))
    companion[:, 0, :] = -monic
    companion[:, 1:, :-1] = np.eye(3)
    v = np.linalg.eigvals(companion).astype(complex)

    p_row, q_row = p.reshape(-1, 1), q.reshape(-1, 1)

    def reversed_quartic(v):
        # v^4 P(1/v), evaluated through (and returned with) v^2 h(1/v) and
        # v^2 u(1/v): near the roots the rounded monomial coefficients cancel,
        # the responses do not.
        h_rev = (h[0] * v + h[1]) * v + h[2]
        u_rev = (u[0] * v + u[1]) * v + u[2]
        v2 = v * v
        return v2 * v2 + p_row * h_rev * h_rev + q_row * u_rev * u_rev, h_rev, u_rev

    # Where the slope is 0 or the quartic overflows, the comparison sees inf
    # or nan and the step is not taken.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, h_rev, u_rev = reversed_quartic(v)
        slope = 4.0 * v * v * v + 2.0 * (p_row * h_rev * (2.0 * h[0] * v + h[1])
                                         + q_row * u_rev * (2.0 * u[0] * v + u[1]))
        stepped = v - value / slope
        v = np.where(np.abs(reversed_quartic(stepped)[0]) < np.abs(value), stepped, v)
    total = np.log1p(coefs[..., 0]) / _LN2 + _phi(v).sum(axis=-1).reshape(p.shape)
    return {(1, 0): private, (0, 1): common, (1, 1): total}


# Label of each bound by its (coef_private, coef_common) key.
_LABELS = {
    (1, 0): LABEL_PRIVATE,
    (0, 2): LABEL_COMMON2,
    (0, 3): LABEL_COMMON3,
    (1, 2): LABEL_SUM2,
    (1, 3): LABEL_SUM3,
    (0, 1): LABEL_COMMON,
    (1, 1): LABEL_SUM,
}


def hop_region(name: str, params: NetworkParams, powers: SplitPowers,
               bounds: dict) -> RateRegion:
    """Region ``name`` (``hop1``, ``hop2-rs``, ``hop2-coop`` or ``hop2-mcp``)
    of its scalar ``*_bounds`` output at the split ``powers``: one halfspace
    per bound, in its order.

    A bound that is 0 in exact arithmetic can round below it (the mcp bounds
    are sums of logarithms), so every bound is clamped at 0.
    """
    gains = (f"alpha2={params.alpha2:g}, beta2={params.beta2:g}" if name == "hop1"
             else f"eta2={params.eta2:g}, gamma2={params.gamma2:g}")
    return RateRegion(tuple([Halfspace(key[0], key[1], max(float(bound), 0.0), _LABELS[key])
                             for key, bound in bounds.items()]),
                      f"{name}({gains}, p_private={powers.p_private:g}, "
                      f"p_common={powers.p_common:g})")


def hop1_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Rate region of the terminal-to-relay hop for a fixed power split."""
    pw = split.powers(params.p1)
    return hop_region("hop1", params, pw,
                      mac_bounds(params.alpha2, params.beta2, pw.p_private, pw.p_common))


def hop2_rs_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Relay-to-base hop region when relays re-split independently
    (same constraint structure as hop 1 with the hop-2 gains and power)."""
    pw = split.powers(params.p2)
    return hop_region("hop2-rs", params, pw,
                      mac_bounds(params.eta2, params.gamma2, pw.p_private, pw.p_common))


def hop2_coop_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Relay-to-base hop region with cooperative common-message relaying."""
    pw = split.powers(params.p2)
    return hop_region("hop2-coop", params, pw,
                      coop_bounds(params.gamma2, params.eta2, pw.p_private, pw.p_common))


def hop2_mcp_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Relay-to-base hop region with joint decoding across all base stations."""
    pw = split.powers(params.p2)
    return hop_region("hop2-mcp", params, pw,
                      mcp_bounds(params.gamma2, params.eta2, pw.p_private, pw.p_common))


# ---------------------------------------------------------------------------
# Analytic corner points
# ---------------------------------------------------------------------------

def corner_rates(cross2, intra2, p_private, p_common):
    """Private rate and the two-user and three-user per-codeword common-rate
    bounds at the hop's sum-rate-maximizing corner, for scalar or array powers.

    The three common codewords are decoded jointly first (all private
    signals still on air) and cancelled; the private codeword is then
    decoded free of same-cell common signals. The corner is the private rate
    and the smaller common bound; the per-hop split optimum in ``schemes``
    evaluates it for all its candidates at once.
    """
    noise0 = 1.0 + 2.0 * cross2 * p_private
    noise_first = 1.0 + (2.0 * cross2 + intra2) * p_private
    r_private = _log1p_rate(intra2 * p_private / noise0)
    rc_two = 0.5 * _log1p_rate(2.0 * cross2 * p_common / noise_first)
    rc_three = _log1p_rate((2.0 * cross2 + intra2) * p_common / noise_first) / 3.0
    return r_private, rc_two, rc_three
