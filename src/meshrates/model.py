"""Core domain types and elementary rate functions.

All powers are linear-scale and noise-normalized (unit noise power at every
receiver), so powers double as SNRs. Rates are in bits per channel use, and
every rate formula takes C(x) = log2(1 + x) from ``capacity``, as log1p(x)/ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DUPLEX_MODES = ("full", "half")
_LN2 = math.log(2.0)


def capacity(x):
    """C(x) = log2(1 + x) as log1p(x)/ln 2, accurate where 1 + x rounds. A float must be
    finite and non-negative and gives a float; a numpy array (a validated network's SINRs)
    is taken elementwise, unchecked. Both use np.log1p: a scalar and a batch round alike."""
    if isinstance(x, np.ndarray):
        return np.log1p(x) / _LN2
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"capacity requires a finite non-negative SINR, got {x!r}")
    return float(np.log1p(x)) / _LN2


def db_to_linear(x_db: float) -> float:
    """Convert decibels to linear scale: 10^(x/10)."""
    if not math.isfinite(x_db):
        raise ValueError(f"db_to_linear requires a finite input, got {x_db!r}")
    return 10.0 ** (x_db / 10.0)


def _check_gain(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


@dataclass(frozen=True)
class NetworkParams:
    """Symmetric two-hop network instance.

    alpha2/beta2 are the inter-/intra-cell power gains of the terminal-to-relay
    hop, eta2/gamma2 the inter-/intra-cell gains of the relay-to-base hop.
    p1 and p2 are the per-terminal and per-relay transmit powers (linear,
    noise-normalized).

    ``power_boost`` needs half duplex: ``hop`` doubles both powers for the
    rate formulas (each source transmits half the time, so the average-power
    constraint allows doubling the instantaneous power). In full duplex it
    would do nothing, so it is refused there.
    """

    alpha2: float
    beta2: float
    gamma2: float
    eta2: float
    p1: float
    p2: float
    duplex: str = "full"
    power_boost: bool = False

    def __post_init__(self) -> None:
        _check_gain("alpha2", self.alpha2)
        _check_gain("beta2", self.beta2)
        _check_gain("gamma2", self.gamma2)
        _check_gain("eta2", self.eta2)
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not (isinstance(p, (int, float)) and math.isfinite(p) and p > 0.0):
                raise ValueError(f"{name} must be finite and strictly positive, got {p!r}")
        if self.duplex not in DUPLEX_MODES:
            raise ValueError(f"duplex must be one of {DUPLEX_MODES}, got {self.duplex!r}")
        if self.power_boost and self.duplex != "half":
            raise ValueError(f"power_boost needs duplex='half', got duplex={self.duplex!r}")
        # The largest gain x power terms the rate formulas form: the three-user common sum
        # (2*alpha2 + beta2)*P1 on hop 1, and on hop 2 the joint decoder's peak response
        # 3*(gamma + 2*eta)^2 * P2, which also bounds the rs and coop sums. Past a float
        # they give inf rates (a product overflows to inf, where ** would raise).
        peak = math.sqrt(self.gamma2) + 2.0 * math.sqrt(self.eta2)
        for hop, received in ((1, (2.0 * self.alpha2 + self.beta2) * self.hop(1)[2]),
                              (2, 3.0 * (peak * peak) * self.hop(2)[2])):
            if not math.isfinite(received):
                raise ValueError(f"hop {hop} gains times power overflow a float; "
                                 f"scale the gains or powers down")

    def hop(self, k: int) -> tuple[float, float, float]:
        """(cross2, intra2, power) of hop ``k`` as the rate formulas take it:
        (alpha2, beta2, p1), and for hop 2 the same with alpha2 -> eta2,
        beta2 -> gamma2 and p1 -> p2. Power boost doubles the power; the
        half-duplex 1/2 is left to :meth:`rate_scale`."""
        boost = 2.0 if self.power_boost else 1.0
        if k == 1:
            return self.alpha2, self.beta2, boost * self.p1
        if k == 2:
            return self.eta2, self.gamma2, boost * self.p2
        raise ValueError(f"hop must be 1 or 2, got {k!r}")

    def rate_scale(self) -> float:
        """End-to-end throughput factor: 0.5 for half duplex, else 1.0."""
        return 0.5 if self.duplex == "half" else 1.0


def split_powers(f, total):
    """Private and common powers of the private fraction ``f`` of ``total``,
    for scalars or arrays alike.

    The pair is constructed so that the two parts sum to ``total`` exactly in
    floating point (Sterbenz: whichever part is >= total/2 is recovered as an
    exact difference); each part stays within a rounding error of ``total``
    from its ideal value.
    """
    p_common = total - f * total
    return total - p_common, p_common


@dataclass(frozen=True)
class HopSplit:
    """Fraction of one hop's power assigned to the private codebook."""

    f_private: float

    def __post_init__(self) -> None:
        f = self.f_private
        if not (isinstance(f, (int, float)) and math.isfinite(f) and 0.0 <= f <= 1.0):
            raise ValueError(f"f_private must lie in [0, 1], got {f!r}")

    def powers(self, total: float) -> tuple[float, float]:
        """``split_powers``' (private, common) pair of ``total``."""
        if not (math.isfinite(total) and total >= 0.0):
            raise ValueError(f"total power must be finite and non-negative, got {total!r}")
        return split_powers(self.f_private, total)


@dataclass(frozen=True)
class RatePair:
    """Operating point in the (private rate, common rate) plane."""

    r_private: float
    r_common: float

    def __post_init__(self) -> None:
        x, y = self.r_private, self.r_common
        # one expression; math.isfinite raises on a non-number, r_private first
        if not (math.isfinite(x) and x >= 0.0 and math.isfinite(y) and y >= 0.0):
            name, r = ("r_common", y) if math.isfinite(x) and x >= 0.0 else ("r_private", x)
            raise ValueError(f"{name} must be finite and non-negative, got {r!r}")

    @property
    def total(self) -> float:
        return self.r_private + self.r_common
