"""Achievable-rate polytopes in the (private rate, common rate) plane.

Each receiver sees a small Gaussian multiple-access channel once the decoding
strategy fixes which interfering codebooks are decoded and which are treated
as noise. Every builder here emits the reduced constraint set of that MAC as
labeled halfspaces ``coef_private*R_p + coef_common*R_c <= bound``.

Every rate-splitting hop is one MAC of a private and a common codebook,
stated once: five gains per unit of power (``_RsGains``), the bounds
(``_rs_bounds``) and the max-sum corner (``_corner``) that the split
optimum in ``schemes`` evaluates. Its two-message min-type common bounds
are emitted as two halfspaces (2-user and 3-user) so linear programs can
report binding constraints faithfully. The joint-decoding (MCP) bounds
are spectral integrals, evaluated by Jensen's formula over seven roots in one
``_phi`` evaluation: conjugate pairs of linear or quadratic factors give the
private and common roots in closed form, and the sum bound's four come from
one batched companion-matrix eigenvalue call on a reversed quartic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import HopSplit, NetworkParams, RatePair

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
# Bound formulas. Each takes (cross2, intra2, p_private, p_common), a hop's
# gains as ``NetworkParams.hop`` gives them and its power pair, the powers as
# scalars or numpy arrays so the split optimizers can sweep many splits in
# one call. ``_hop_region`` wraps scalar bounds into labeled halfspaces, and
# each public region builder is the bounds at its split passed to it.
# ---------------------------------------------------------------------------

class _RsGains(NamedTuple):
    """A rate-splitting hop per unit of transmit power: the own private
    codeword's gain per unit of p_private, the summed gains of the two- and
    three-codeword common subsets per unit of p_common, and the noise's
    slopes, 1 + ``noise_private``*p_private + ``noise_common``*p_common."""

    private: float
    two: float
    three: float
    noise_private: float
    noise_common: float


def _mac_gains(cross2, intra2) -> _RsGains:
    """The reduced 4-user MAC: the own and both adjacent common codewords
    are decoded, the adjacent private codewords are noise."""
    cross = 2.0 * cross2
    return _RsGains(intra2, cross, cross + intra2, cross, 0.0)


def _coop_gains(cross2, intra2) -> _RsGains:
    """Three adjacent relays send each common codeword at p_common/3,
    coherently: (gamma + eta)^2 and (gamma + 2*eta)^2 gain terms, and the two
    outer-cell common codewords leak into the noise with the private ones."""
    g, e = math.sqrt(intra2), math.sqrt(cross2)
    two = 2.0 * (g + e) ** 2
    cross = 2.0 * cross2
    return _RsGains(intra2, two / 3.0, (two + (g + 2.0 * e) ** 2) / 3.0, cross, cross / 3.0)


def _rs_bounds(gains: _RsGains, p_private, p_common):
    """The five rate-splitting bounds of a hop with ``gains``, keyed by
    (coef_private, coef_common)."""
    noise = 1.0 + gains.noise_private * p_private + gains.noise_common * p_common
    private = gains.private * p_private
    two, three = gains.two * p_common, gains.three * p_common
    return {
        (1, 0): np.log2(1.0 + private / noise),
        (0, 2): np.log2(1.0 + two / noise),
        (0, 3): np.log2(1.0 + three / noise),
        (1, 2): np.log2(1.0 + (private + two) / noise),
        (1, 3): np.log2(1.0 + (private + three) / noise),
    }


def _corner(gains: _RsGains, p_private, p_common):
    """Private rate and the two- and three-user per-codeword common-rate
    bounds at the hop's max-sum corner, for scalar or array powers: the
    common codewords are decoded first, all private signals on air, and
    cancelled. The corner is the private rate and the smaller common bound."""
    common_noise = gains.noise_common * p_common
    noise = 1.0 + gains.noise_private * p_private + common_noise
    first = 1.0 + (gains.noise_private + gains.private) * p_private + common_noise
    r_private = np.log2(1.0 + gains.private * p_private / noise)
    rc_two = 0.5 * np.log2(1.0 + gains.two * p_common / first)
    rc_three = np.log2(1.0 + gains.three * p_common / first) / 3.0
    return r_private, rc_two, rc_three


def mac_bounds(cross2, intra2, p_private, p_common):
    """Bounds of a rate-splitting hop with the reduced 4-user MAC's gains
    (``_mac_gains``), keyed by (coef_private, coef_common)."""
    return _rs_bounds(_mac_gains(cross2, intra2), p_private, p_common)


def coop_bounds(cross2, intra2, p_private, p_common):
    """Second-hop MAC bounds when the three adjacent relays transmit each
    common codeword cooperatively (``_coop_gains``)."""
    return _rs_bounds(_coop_gains(cross2, intra2), p_private, p_common)


_LN2 = math.log(2.0)


def _phi(v):
    """log2|J/w| at v = 1/w, where J is the root of z^2 - w*z + 1 with |J| >= 1.

    J/w = (1 +- sqrt(1 - 4v^2))/2, and the principal square root has a
    non-negative real part, so the + sign has the larger modulus. phi(0) = 0,
    and a tiny v only brings its own tiny absolute error.
    """
    return np.log2(np.abs(1.0 + np.sqrt(1.0 - 4.0 * v * v))) - 1.0


def mcp_bounds(cross2, intra2, p_private, p_common):
    """Second-hop bounds under joint decoding across all base stations.

    The cell index acts as the tap axis of an inter-symbol-interference MAC,
    so each bound is a unit-interval spectral integral of log2 P(w), w =
    2cos 2*pi*f. With g, e the amplitude gains and q = p_common/3 the power
    of each common codeword, the private and common responses are
    h = g + e*w and u = (1 + w)(g + e*w), and P is 1 + p_private*h^2,
    1 + q*u^2 or 1 + p_private*h^2 + q*u^2. Jensen's formula, with w = z + 1/z,
    turns the integral of log2 P into log2 P(0) + sum_k phi(1/w_k) over the
    roots w_k of P.

    With y = i*sqrt(power), 1 + power*r^2 = |1 + y*r|^2 for a real response r,
    so the private and common integrals are twice those of log2|1 + y*r|. The
    private factor is linear, with the one reciprocal root -y*e/(1 + y*g).
    The common factor a*w^2 + b*w + c, (c, b, a) = (1 + y*g, y*(g + e), y*e),
    has by Vieta the reciprocal roots a/Q and Q/c, with Q = -(b +- sqrt(b^2 -
    4ac))/2 taking the sign of larger modulus, so nothing divides by a small
    a. a/Q is taken as 0 where a = 0: Q can be 0 there, or so small that
    complex division overflows. Where a != 0, |Q| >= sqrt|ac| is a normal
    float. The sum bound takes the roots v_k = 1/w_k of the reversed quartic
    in v = 1/w, whose leading coefficient P(0) = 1 + (p_private + q)*intra2
    is at least 1: one batched eigenvalue call on the monic companion
    matrices, then one Newton step per root on the quartic evaluated through
    h and u, kept where it lowers its modulus. One ``_phi`` evaluation covers
    all seven roots.

    Scalar gains (``cross2`` = eta^2, ``intra2`` = gamma^2); the power pair
    may be scalars or arrays, and every bound has their broadcast shape.
    Returns the bounds keyed by (coef_private, coef_common).
    """
    g, e = math.sqrt(intra2), math.sqrt(cross2)
    s = g + e  # u = (g, s, e) in ascending powers of w
    p, q = np.broadcast_arrays(np.asarray(p_private, dtype=float),
                               np.asarray(p_common, dtype=float) / 3.0)
    p_row, q_row = p.reshape(-1, 1), q.reshape(-1, 1)

    y = 1j * np.sqrt(p_row)
    private_root = -(y * e) / (1.0 + y * g)
    y = 1j * np.sqrt(q_row)
    a, b, c = y * e, y * s, 1.0 + y * g
    root = np.sqrt(b * b - 4.0 * a * c)
    big = -0.5 * np.where(np.abs(b + root) >= np.abs(b - root), b + root, b - root)
    small_root = np.divide(a, big, out=np.zeros_like(a), where=a != 0)

    # P - 1 in ascending powers of w, h*h and u*u summed in np.convolve's order;
    # the reversed quartic is v^4 + m1 v^3 + m2 v^2 + m3 v + m4 = v^4 P(1/v) / P(0).
    gg, ge, ee = g * g, g * e, e * e
    coefs = (p_row * np.array((gg, ge + ge, ee, 0.0, 0.0))
             + q_row * np.array((gg, g * s + s * g, ge + s * s + e * g, s * e + e * s, ee)))
    companion = np.zeros((len(coefs), 4, 4))
    companion[:, 0, :] = coefs[:, 1:] / (-1.0 - coefs[:, :1])
    companion[:, 1:, :-1] = np.eye(3)
    v = np.linalg.eigvals(companion)

    def reversed_quartic(v):
        # v^4 P(1/v) through (and with) v^2 h(1/v) and v^2 u(1/v): near the
        # roots the rounded monomial coefficients cancel, the responses do not.
        gv = g * v
        h_rev, u_rev = (gv + e) * v, (gv + s) * v + e
        v2 = v * v
        return v2 * v2 + p_row * h_rev * h_rev + q_row * u_rev * u_rev, h_rev, u_rev

    # Where the slope is 0 or the quartic overflows, the comparison sees inf
    # or nan and the step is not taken.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value, h_rev, u_rev = reversed_quartic(v)
        gv2 = 2.0 * g * v
        slope = 4.0 * v * v * v + 2.0 * (p_row * h_rev * (gv2 + e) + q_row * u_rev * (gv2 + s))
        stepped = v - value / slope
        v = np.where(np.abs(reversed_quartic(stepped)[0]) < np.abs(value), stepped, v)
    roots = np.concatenate((private_root, small_root, big / c, v), axis=1)
    phis = _phi(roots).reshape(*p.shape, 7)
    return {(1, 0): np.log1p(p * g * g) / _LN2 + 2.0 * phis[..., 0],
            (0, 1): np.log1p(q * g * g) / _LN2 + 2.0 * (phis[..., 1] + phis[..., 2]),
            (1, 1): np.log1p(coefs[:, 0].reshape(p.shape)) / _LN2 + phis[..., 3:].sum(axis=-1)}


# Label of each bound by its (coef_private, coef_common) key.
_LABELS = {
    (1, 0): "private-single",
    (0, 2): "common-2user",
    (0, 3): "common-3user",
    (1, 2): "sum-2",
    (1, 3): "sum-3",
    (0, 1): "common-joint",
    (1, 1): "sum-joint",
}


def _hop_lines(bounds: dict) -> list[tuple]:
    """A scalar ``*_bounds`` output as (coef_private, coef_common, bound,
    label) lines, in its order, each bound clamped at 0: one that is 0 in
    exact arithmetic can round below it (mcp's are sums of logarithms). A
    bound that is not finite raises ValueError, as in a ``Halfspace``."""
    lines = [(*key, max(float(bound), 0.0), _LABELS[key]) for key, bound in bounds.items()]
    if not all(math.isfinite(line[2]) for line in lines):
        raise ValueError(f"hop bounds must be finite, got {bounds!r}")
    return lines


def _hop_region(name: str, hop: int, bounds_fn, params: NetworkParams,
                split: HopSplit) -> RateRegion:
    """Region ``name`` (``hop1``, ``hop2-rs``, ``hop2-coop`` or ``hop2-mcp``)
    of hop ``hop``'s ``bounds_fn`` bounds at ``split``: one halfspace per
    line of ``_hop_lines``."""
    cross2, intra2, total = params.hop(hop)
    powers = split.powers(total)
    gains = (f"alpha2={cross2:g}, beta2={intra2:g}" if hop == 1
             else f"eta2={cross2:g}, gamma2={intra2:g}")
    lines = _hop_lines(bounds_fn(cross2, intra2, *powers))
    return RateRegion(tuple([Halfspace(*line) for line in lines]),
                      f"{name}({gains}, p_private={powers.p_private:g}, "
                      f"p_common={powers.p_common:g})")


def hop1_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Rate region of the terminal-to-relay hop for a fixed power split."""
    return _hop_region("hop1", 1, mac_bounds, params, split)


def hop2_rs_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Relay-to-base hop region when relays re-split independently
    (same constraint structure as hop 1 with the hop-2 gains and power)."""
    return _hop_region("hop2-rs", 2, mac_bounds, params, split)


def hop2_coop_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Relay-to-base hop region with cooperative common-message relaying."""
    return _hop_region("hop2-coop", 2, coop_bounds, params, split)


def hop2_mcp_region(params: NetworkParams, split: HopSplit) -> RateRegion:
    """Relay-to-base hop region with joint decoding across all base stations."""
    return _hop_region("hop2-mcp", 2, mcp_bounds, params, split)
