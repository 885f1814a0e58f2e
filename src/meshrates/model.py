"""Core domain types and elementary rate functions.

All powers are linear-scale and noise-normalized (unit noise power at every
receiver), so powers double as SNRs. Rates are in bits per channel use
(capacity function fixed to base-2 logarithm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

DUPLEX_MODES = ("full", "half")


def capacity(x: float) -> float:
    """Gaussian capacity C(x) = log2(1 + x) for a non-negative SINR x."""
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"capacity requires a finite non-negative SINR, got {x!r}")
    return math.log2(1.0 + x)


def db_to_linear(x_db: float) -> float:
    """Convert decibels to linear scale: 10^(x/10)."""
    if not math.isfinite(x_db):
        raise ValueError(f"db_to_linear requires a finite input, got {x_db!r}")
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """Convert a positive linear value to decibels."""
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"linear_to_db requires a finite positive input, got {x!r}")
    return 10.0 * math.log10(x)


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

    ``power_boost`` needs half duplex: it doubles both powers before rates
    are computed (each source transmits half the time, so the average-power
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
        # The largest gain x power terms the rate formulas form: the
        # three-user common sum (2*alpha2 + beta2)*P1 on hop 1, and on hop 2
        # the joint decoder's peak response 3*(gamma + 2*eta)^2 * P2, which
        # also bounds the rs and coop sums. Past a float they give inf rates.
        boost = 2.0 if self.power_boost else 1.0
        peak2 = (math.sqrt(self.gamma2) + 2.0 * math.sqrt(self.eta2)) ** 2
        for hop, received in ((1, (2.0 * self.alpha2 + self.beta2) * (boost * self.p1)),
                              (2, 3.0 * peak2 * (boost * self.p2))):
            if not math.isfinite(received):
                raise ValueError(f"hop {hop} gains times power overflow a float; "
                                 f"scale the gains or powers down")

    def validate_paper_regime(self) -> bool:
        """True iff the inter-cell gains do not exceed the intra-cell ones
        (alpha2 <= beta2 and eta2 <= gamma2), the regime the closed-form
        region reduction is derived for. Computations outside it are allowed
        but should be treated with care."""
        return self.alpha2 <= self.beta2 and self.eta2 <= self.gamma2

    def hop(self, k: int) -> tuple[float, float, float]:
        """(cross2, intra2, power) of hop ``k``: (alpha2, beta2, p1), and for
        hop 2 the same with alpha2 -> eta2, beta2 -> gamma2 and p1 -> p2."""
        if k == 1:
            return self.alpha2, self.beta2, self.p1
        if k == 2:
            return self.eta2, self.gamma2, self.p2
        raise ValueError(f"hop must be 1 or 2, got {k!r}")

    def effective(self) -> "NetworkParams":
        """Full-duplex-equivalent parameters used inside the rate formulas.

        Half duplex with power boost doubles p1 and p2; the 1/2 pipeline
        factor is applied separately via :meth:`rate_scale`.
        """
        if self.power_boost:
            return replace(self, p1=2.0 * self.p1, p2=2.0 * self.p2,
                           duplex="full", power_boost=False)
        return replace(self, duplex="full", power_boost=False)

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


class SplitPowers(NamedTuple):
    """Private/common power pair of one hop, in bound-formula argument order."""

    p_private: float
    p_common: float


@dataclass(frozen=True)
class HopSplit:
    """Fraction of one hop's power assigned to the private codebook."""

    f_private: float

    def __post_init__(self) -> None:
        f = self.f_private
        if not (isinstance(f, (int, float)) and math.isfinite(f) and 0.0 <= f <= 1.0):
            raise ValueError(f"f_private must lie in [0, 1], got {f!r}")

    def powers(self, total: float) -> SplitPowers:
        """Split ``total`` into (private, common) powers by ``split_powers``."""
        if not (math.isfinite(total) and total >= 0.0):
            raise ValueError(f"total power must be finite and non-negative, got {total!r}")
        return SplitPowers(*split_powers(self.f_private, total))


@dataclass(frozen=True)
class RatePair:
    """Operating point in the (private rate, common rate) plane."""

    r_private: float
    r_common: float

    def __post_init__(self) -> None:
        for name, r in (("r_private", self.r_private), ("r_common", self.r_common)):
            if not (math.isfinite(r) and r >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {r!r}")

    @property
    def total(self) -> float:
        return self.r_private + self.r_common
