"""Achievable-rate polytopes in the (private rate, common rate) plane.

Each receiver sees a small Gaussian multiple-access channel once the decoding
strategy fixes which interfering codebooks are decoded and which are treated
as noise. Every builder here emits the reduced constraint set of that MAC as
``Halfspace`` lines ``coef_private*R_p + coef_common*R_c <= bound``: checked
(coef_private, coef_common, bound, label) tuples that every reader unpacks.

Every rate-splitting hop is one MAC of a private and a common codebook,
stated once: five gains per unit of power (``_RsGains``), the bounds
(``_rs_bounds``) and the max-sum corner (``_corner``) that scores the
split candidates in ``schemes``. Its two-message min-type common bounds
are emitted as two halfspaces (2-user and 3-user) so linear programs can
report binding constraints faithfully. The joint-decoding (MCP) bounds
are spectral integrals, evaluated by Jensen's formula over one root of each
conjugate pair, all in closed form and in real arithmetic: the private
response's linear factor, the common response's quadratic, and the two real
quadratics the sum bound's quartic factors into. One ``_phi`` takes the
five roots as one numpy array, for a scalar call and a batch alike.
Every log2(1 + SINR) term here is ``model.capacity``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import HopSplit, NetworkParams, capacity

class Halfspace(namedtuple("Halfspace", "coef_private coef_common bound label")):
    """One constraint coef_private*R_p + coef_common*R_c <= bound, as a tuple.
    Finite, non-negative coefficients, not both 0, make every region
    down-closed; the bound is finite and >= 0, checked on every build."""

    __slots__ = ()

    def __new__(cls, coef_private, coef_common, bound, label):
        a, b = coef_private, coef_common
        # one expression on the accepted path, then the first failure named
        if not (0 <= a < math.inf and 0 <= b < math.inf and (a or b) and 0.0 <= bound < math.inf):
            if not (0 <= a < math.inf and 0 <= b < math.inf):
                raise ValueError(f"halfspace coefficients must be finite and non-negative: {(a, b)!r}")
            if a == 0 and b == 0:
                raise ValueError("halfspace needs at least one non-zero coefficient")
            raise ValueError(f"halfspace bound must be finite and >= 0, got {bound!r}")
        return tuple.__new__(cls, (a, b, bound, label))

    @classmethod
    def _make(cls, iterable):  # namedtuple's skips __new__; _replace calls this one
        return cls(*iterable)


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
# one call. ``_hop_lines`` turns scalar bounds into ``Halfspace`` lines, and
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
        (1, 0): capacity(private / noise),
        (0, 2): capacity(two / noise),
        (0, 3): capacity(three / noise),
        (1, 2): capacity((private + two) / noise),
        (1, 3): capacity((private + three) / noise),
    }


def _corner(gains: _RsGains, p_private, p_common):
    """Private rate and the two- and three-user per-codeword common-rate
    bounds at the hop's max-sum corner, for scalar or array powers: the
    common codewords are decoded first, all private signals on air, and
    cancelled. The corner is the private rate and the smaller common bound."""
    common_noise = gains.noise_common * p_common
    noise = 1.0 + gains.noise_private * p_private + common_noise
    first = 1.0 + (gains.noise_private + gains.private) * p_private + common_noise
    r_private = capacity(gains.private * p_private / noise)
    rc_two = 0.5 * capacity(gains.two * p_common / first)
    rc_three = capacity(gains.three * p_common / first) / 3.0
    return r_private, rc_two, rc_three


def mac_bounds(cross2, intra2, p_private, p_common):
    """Bounds of a rate-splitting hop with the reduced 4-user MAC's gains
    (``_mac_gains``), keyed by (coef_private, coef_common)."""
    return _rs_bounds(_mac_gains(cross2, intra2), p_private, p_common)


def coop_bounds(cross2, intra2, p_private, p_common):
    """Second-hop MAC bounds when the three adjacent relays transmit each
    common codeword cooperatively (``_coop_gains``)."""
    return _rs_bounds(_coop_gains(cross2, intra2), p_private, p_common)


class _Elementwise(NamedTuple):
    """The functions the mcp closed forms apply besides +, -, *, /, abs and
    comparisons, for one kind of operand; ``_phi`` takes numpy's for both."""

    sqrt: Callable
    hypot: Callable
    maximum: Callable
    select: Callable  # select(condition, if_true, if_false)
    ldexp: Callable


def _float_maximum(x, y):
    """np.maximum on two floats: y on a tie (of signed zeros), NaN if either is."""
    return x if x > y or x != x else y


# numpy's ufuncs, for arrays and for numpy scalars
_ARRAYS = _Elementwise(np.sqrt, np.hypot, np.maximum,
                       lambda c, x, y: np.where(c, x, y)[()], np.ldexp)
# Python floats: math.sqrt and the operators round correctly, as numpy's loops
# do; hypot stays numpy's
_FLOATS = _Elementwise(math.sqrt, lambda x, y: float(np.hypot(x, y)), _float_maximum,
                       lambda c, x, y: x if c else y, math.ldexp)


def _phi(roots):
    """log2|J/w| at each v = 1/w = vr + i*vi of ``roots``, (vr, vi) pairs,
    where J is the root of z^2 - w*z + 1 with |J| >= 1, in real arithmetic.
    The pairs are stacked into one array, (n_roots,) for float roots and
    (n_roots, n) for a batch, so a scalar call and its batch meet the same
    numpy loops.

    J/w = (1 + s)/2 with s the principal square root of z = 1 - 4v^2, and
    |1 + s|^2 = 1 + |z| + 2 Re s, where (Re s)^2 = (|z| + Re z)/2 is summed
    from two non-negative terms. phi reads v through v^2 and is even in Im v,
    so the signs of vr and vi do not matter. phi(0) = 0, and a tiny v only
    brings its own tiny absolute error.
    """
    vr, vi = np.array([v[0] for v in roots]), np.array([v[1] for v in roots])
    zr, zi = 1.0 - 4.0 * (vr * vr - vi * vi), 8.0 * vr * vi
    modulus = np.hypot(zr, zi)
    re2 = np.maximum(zr, 0.0) + 0.5 * zi * (zi / (modulus + abs(zr)))
    return 0.5 * np.log2(0.25 * (1.0 + modulus + 2.0 * np.sqrt(re2)))


def _reciprocal(scale, x, y):
    """scale/(x + i*y) as (real, imaginary) parts, up to the signs ``_phi``
    ignores."""
    size = x * x + y * y
    return scale * x / size, scale * y / size


def _sum_roots(g, e, p, q, ops: _Elementwise):
    """One root v = 1/w of each of the two conjugate pairs of P = 1 + p*h^2 +
    q*u^2, as (real, imaginary) parts, for a cross amplitude e > 0.

    In h = g + e*w, with k = q/e^2 and delta = e - g, P is Q(h) = 1 + p*h^2 +
    k*h^2*(h + delta)^2. Q has no h term, so it factors into two real
    quadratics k*(h^2 + a*h + b)(h^2 + a'*h + b') with a, a' = delta +- tau.
    W = (p*e^2 + q*tau^2)/2 is the largest root of the resolvent cubic
    (W - A)(W^2 - B^2) = K*W^2, with A = p*e^2/2, B = sqrt(q)*e and K =
    q*delta^2/2. It is solved for d = W - max(A, B), so that W - A and W - B
    are sums of non-negative terms. The start is the root of a quadratic that
    holds (W + B)/W at its value at the root of W^2 - (A + K)*W = B^2*(1 -
    A/max(A, B)); both are exact where A = 0 or B = 0. Two Halley steps
    follow.

    Then tau^2 - delta^2 = 2e^2(W - A)/W^2, and with R = W + sqrt(W^2 - B^2)
    each factor's x = 2g + a and y^2 = 4b - a^2 are closed forms in R/W,
    B/W and e^2/W. Its roots are v = e/(h - g) = -2e/(x -+ i*y). One x is a
    sum of non-negative terms (which one depends on the sign of delta), and
    the other follows from x*x' = 4g*e - (tau^2 - delta^2). The pair that
    clusters at h = g as e -> 0 is divided through by e, and the pair that
    leaves to infinity as q -> 0 is multiplied through by sqrt(q), so both
    limits are continuous. Ratios to W are formed before products, so a tiny
    W does not underflow.

    Where q is 0, P is the private response's 1 + p*h^2, and e^2/W = 2/p
    overflows at a subnormal p: the cubic is solved at q = 1 there instead,
    and ``mcp_bounds`` drops those roots for the private bound.
    """
    delta = e - g
    a = p * (0.5 * e * e)
    q = q + (q == 0.0)
    sq = ops.sqrt(q)
    b, k = sq * e, q * (0.5 * delta * delta)
    top = ops.maximum(a, b)
    wa0, wb0 = top - a, top - b
    gap = wa0 + wb0
    d = 0.0 * k  # delta = 0: K = 0 and W = max(A, B)
    if delta != 0.0:
        ak = a + k
        c = 1.0 + 2.0 * b / (ak + ops.hypot(ak, 2.0 * b * ops.sqrt(wa0 / top)))
        # the root d >= 0 of c*d^2 + (c*gap - k)*d = k*top, as a sum of two
        # non-negative terms so that neither sign of c*gap - k cancels
        lin = c * gap - k
        d = (2.0 * top * (k / (ops.hypot(lin, 2.0 * ops.sqrt(c * top) * ops.sqrt(k)) + abs(lin)))
             + ops.maximum(-lin, 0.0) / c)
        for _ in range(2):
            # Halley on (W - A)(W^2 - B^2) - K*W^2 and its derivatives, each
            # divided by W^2
            w = top + d
            a1, a2, a3, kw = d / w, (d + gap) / w, 1.0 + b / w, k / w
            s12, a12 = a1 + a2, a1 * a2
            f0 = a12 * (w + b) - k
            f1 = s12 * a3 + a12 - 2.0 * kw
            d = d - f0 * f1 / (f1 * f1 - f0 * (a3 + s12 - kw) / w)
    # the factors are named by their constant term b; the big one's x is
    # returned as x/e and its y as sqrt(q)*y/e
    w = top + d
    ratio, bw, ew = (d + wa0) / w, b / w, e * e / w
    rw = 1.0 + ops.sqrt((d + wb0) / w * (1.0 + bw))  # R/W
    eps = 2.0 * ew * ratio  # tau^2 - delta^2
    tau = ops.sqrt(delta * delta + eps)
    if delta >= 0.0:
        x_big = 2.0 * g + tau * rw
        x_small, xe_big = (4.0 * g * e - eps) / x_big, x_big / e
    else:
        x_small = 2.0 * g + tau * bw * bw / rw
        xe_big = (4.0 * g - 2.0 * e * ratio / w) / x_small
    y_small = ops.sqrt(2.0 * (p * ew) * ew / rw + eps)  # p*ew <= 2, but 2p can overflow
    # p or q/w past 2^960 overflows the big pair's squares: t = 2^-32 scales it exactly
    t = 1.0 - (1.0 - 2.0 ** -32) * ((p > 2.0 ** 960) | (q * 2.0 ** -960 > w))
    qy_big = ops.sqrt(2.0 * (t * t * p) * rw + 2.0 * (t * t * q) * ratio / w)
    return (_reciprocal(2.0 * e, x_small, y_small),
            _reciprocal(2.0 * sq * t, sq * xe_big * t, qy_big))


def mcp_bounds(cross2, intra2, p_private, p_common):
    """Second-hop bounds under joint decoding across all base stations.

    The cell index acts as the tap axis of an inter-symbol-interference MAC,
    so each bound is a unit-interval spectral integral of log2 P(w), w =
    2cos 2*pi*f. With g, e the amplitude gains and q = p_common/3 the power
    of each common codeword, the private and common responses are
    h = g + e*w and u = (1 + w)(g + e*w), and P is 1 + p_private*h^2,
    1 + q*u^2 or 1 + p_private*h^2 + q*u^2. Jensen's formula, with w = z + 1/z,
    turns the integral of log2 P into log2 P(0) + sum_k phi(1/w_k) over the
    roots w_k of P. P is real, so its roots come in conjugate pairs, and
    each pair counts twice its one root.

    With y = i*sqrt(power), 1 + power*r^2 = |1 + y*r|^2 for a real response
    r, so the private and common roots are those of 1 + y*r. The private
    factor is linear, with the one reciprocal root -y*e/(1 + y*g). The
    common factor in v = 1/w is c*v^2 + b*v + a, (c, b, a) = (1 + y*g,
    y*(g + e), y*e). Its discriminant, -q*(g - e)^2 - 4i*e*sqrt(q), has a
    real part that is never positive, so -b + root has the larger modulus.
    The roots (-b + root)/(2c) and 2a/(-b + root) share a factor q^(1/4) that
    takes them to 0 with q. The sum's quartic factors into two real
    quadratics in closed form (``_sum_roots``); at q = 0 the sum is the
    private bound itself. Without a cross gain, h = g, and the common and
    sum polynomials are quadratics in 1 + w.

    All arithmetic is real and elementwise, and one ``_phi`` evaluation
    covers the five roots. A batch runs on numpy arrays. A call with two
    scalar powers runs the same code on Python floats up to the five roots
    and returns floats: +, -, *, / and ``math.sqrt`` round correctly there,
    as in numpy's loops, np.hypot on float pairs and ``capacity``'s np.log1p
    stay numpy's, and ``_phi`` stacks the five roots into one numpy array,
    as it does a batch's, so the call equals its one-row batch bit for bit.

    Python floats raise where numpy warns of a division by 0 or an invalid
    square root, and ``math.ldexp`` raises past the float range, but an
    overflow is silent, and the closed forms can absorb its inf (x/inf = 0).
    So where Python floats raise or a bound is NaN or reaches 960 bits, the
    call runs again on numpy scalars, which warn and raise as the batch does
    (``_phi`` is numpy's on both runs). The 960-bit rule is measured, not
    derived: over 80,000 draws of gains and powers from 0 and subnormals up
    to 1e308, and 40,000 more at tiny gains and subnormal powers, where the
    scaled powers are tiny, every scalar call gave its one-row batch's
    floats or warning.

    Scalar gains (``cross2`` = eta^2, ``intra2`` = gamma^2); the power pair
    may be scalars or arrays, and every bound has their broadcast shape.
    Returns the bounds keyed by (coef_private, coef_common).
    """
    g, e = math.sqrt(intra2), math.sqrt(cross2)
    scalar = isinstance(p_private, (int, float)) and isinstance(p_common, (int, float))
    if scalar:
        try:
            bounds = _jensen_bounds(g, e, float(p_private), float(p_common) / 3.0, _FLOATS)
            if all(abs(bound) < 960.0 for bound in bounds.values()):
                return {key: float(bound) for key, bound in bounds.items()}
        except (ArithmeticError, ValueError):
            pass
    p, q = np.broadcast_arrays(np.asarray(p_private, dtype=float),
                               np.asarray(p_common, dtype=float) / 3.0)
    bounds = _jensen_bounds(g, e, p[()], q[()], _ARRAYS)
    return {key: float(bound) for key, bound in bounds.items()} if scalar else bounds


def _jensen_bounds(g, e, p, q, ops: _Elementwise):
    """``mcp_bounds`` at amplitude gains g, e, private power p and power q
    of each common codeword, with the elementwise functions ``ops``."""
    # (g, e)/4^j, (p, q)*16^j: the same P, exactly; at max(g, e)/4^j in [1, 4) no square overflows
    j = (math.frexp(max(g, e))[1] - 1) // 2 if g or e else 0
    if j:
        g, e = math.ldexp(g, -2 * j), math.ldexp(e, -2 * j)
        p, q = ops.ldexp(p, 4 * j), ops.ldexp(q, 4 * j)
    sq = ops.sqrt(q)
    private_gain, common_gain = 1.0 + p * (g * g), 1.0 + q * (g * g)
    roots = [(p * (e * g) / private_gain, e * ops.sqrt(p) / private_gain)]
    if e == 0.0:
        zero = 0.0 * p
        sg = sq * g
        roots += [(zero, zero), (sg * sg / common_gain, sg / common_gain),
                  (zero, zero), _reciprocal(sg, sg, ops.sqrt(private_gain))]
    else:
        # -b + root = q^(1/4)*(2e/m - i*(q^(1/4)*(g + e) + m)), where m is
        # -Im(root)/q^(1/4), positive for e > 0
        quarter = ops.sqrt(sq)
        spread = sq * ((e - g) ** 2)
        m = ops.sqrt(0.5 * (ops.hypot(spread, 4.0 * e) + spread))
        nr, ni = 2.0 * e / m, quarter * (g + e) + m
        sg, half = sq * g, quarter / (2.0 * common_gain)
        roots += [((nr - ni * sg) * half, (ni + nr * sg) * half),
                  _reciprocal(2.0 * quarter * e, ni, nr), *_sum_roots(g, e, p, q, ops)]
    phis = _phi(roots)
    private = capacity(p * g * g) + 2.0 * phis[0]
    total = capacity((p + q) * (g * g)) + 2.0 * (phis[3] + phis[4])
    return {(1, 0): private,
            (0, 1): capacity(q * g * g) + 2.0 * (phis[1] + phis[2]),
            (1, 1): ops.select(q == 0.0, private, total)}


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


def _hop_lines(bounds: dict) -> tuple[Halfspace, ...]:
    """A scalar ``*_bounds`` output as ``Halfspace`` lines, in its order, each
    bound clamped at 0: one that is 0 in exact arithmetic can round below it
    (mcp's are sums of logarithms)."""
    return tuple([Halfspace(*key, max(float(bound), 0.0), _LABELS[key])
                  for key, bound in bounds.items()])


def _hop_region(name: str, hop: int, bounds_fn, params: NetworkParams,
                split: HopSplit) -> RateRegion:
    """Region ``name`` (``hop1``, ``hop2-rs``, ``hop2-coop`` or ``hop2-mcp``)
    of hop ``hop``'s ``bounds_fn`` bounds at ``split``: the lines of
    ``_hop_lines``."""
    cross2, intra2, total = params.hop(hop)
    p_private, p_common = split.powers(total)
    gains = (f"alpha2={cross2:g}, beta2={intra2:g}" if hop == 1
             else f"eta2={cross2:g}, gamma2={intra2:g}")
    return RateRegion(_hop_lines(bounds_fn(cross2, intra2, p_private, p_common)),
                      f"{name}({gains}, p_private={p_private:g}, p_common={p_common:g})")


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
