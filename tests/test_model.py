import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from meshrates.model import (
    HopSplit,
    NetworkParams,
    RatePair,
    capacity,
    db_to_linear,
)


class TestCapacity:
    def test_identity_cases(self):
        assert capacity(0.0) == 0.0
        assert capacity(1.0) == 1.0
        assert capacity(3.0) == 2.0

    @pytest.mark.parametrize("bad", [-1e-9, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            capacity(bad)

    def test_array_equals_float_calls(self):
        # a scalar bound call and a batch round alike: the same np.log1p
        xs = np.array([0.0, 5e-324, 1e-300, 1e-17, 1e-9, 0.3, 1.0, 2.5, 1e10, 1e300])
        batch = capacity(xs)
        assert batch.shape == xs.shape
        assert all(batch[i] == capacity(float(x)) for i, x in enumerate(xs))
        assert all(type(capacity(float(x))) is float for x in xs)

    @pytest.mark.parametrize("x", [1e-17, 1e-20, 1e-50, 1e-100, 1e-200, 1e-300])
    def test_low_snr_slope(self, x):
        # C(x) = x/ln 2 to first order: no 1 + x rounds the SINR away
        for value in (capacity(x), capacity(np.array([x]))[0]):
            assert abs(value * math.log(2.0) / x - 1.0) <= 1e-15

    @given(st.floats(min_value=0.0, max_value=1e9))
    def test_nonnegative_and_finite(self, x):
        y = capacity(x)
        assert y >= 0.0 and math.isfinite(y)

    def test_strictly_increasing_and_concave(self):
        xs = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
        ys = [capacity(x) for x in xs]
        assert all(a < b for a, b in zip(ys, ys[1:]))
        # chords lie below the function between sample points
        for (x0, y0), (x1, y1) in zip(zip(xs, ys), zip(xs[2:], ys[2:])):
            xm = (x0 + x1) / 2.0
            assert capacity(xm) >= (y0 + y1) / 2.0 - 1e-12


class TestDecibels:
    def test_known_values(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == 10.0
        assert db_to_linear(3.0) == pytest.approx(1.9953, abs=5e-5)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_round_trip(self, x_db):
        assert 10.0 * math.log10(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            db_to_linear(math.nan)


class TestNetworkParams:
    def test_valid_instance(self):
        p = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=1.0)
        assert p.rate_scale() == 1.0

    def test_hop_terms(self):
        p = NetworkParams(alpha2=0.3, beta2=1.2, gamma2=0.8, eta2=0.5, p1=2.0, p2=3.0)
        assert p.hop(1) == (0.3, 1.2, 2.0)
        assert p.hop(2) == (0.5, 0.8, 3.0)

    @pytest.mark.parametrize("k", [0, 3])
    def test_bad_hop(self, k):
        p = NetworkParams(alpha2=0.3, beta2=1.2, gamma2=0.8, eta2=0.5, p1=2.0, p2=3.0)
        with pytest.raises(ValueError, match="hop must be 1 or 2"):
            p.hop(k)

    def test_regime_flagging_not_an_error(self):
        NetworkParams(alpha2=3.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=1.0, p2=1.0)

    @pytest.mark.parametrize("field,value", [
        ("alpha2", -0.1), ("beta2", math.inf), ("p1", 0.0), ("p2", -1.0),
    ])
    def test_invalid_fields(self, field, value):
        kwargs = dict(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            NetworkParams(**kwargs)

    @pytest.mark.parametrize("fields", [
        dict(alpha2=1e200, p1=1e200), dict(eta2=1e200, p2=1e200),
        dict(beta2=1e155, p1=1e155), dict(gamma2=1e154, p2=1e154),
    ])
    def test_overflowing_products_rejected(self, fields):
        kwargs = dict(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=1.0)
        with pytest.raises(ValueError, match="overflow"):
            NetworkParams(**{**kwargs, **fields})

    def test_hop2_peak_square_overflow_rejected(self):
        # (sqrt(gamma2) + 2*sqrt(eta2))^2 passes the float range first, before
        # the tiny power brings the product back: a ValueError, not an
        # OverflowError from the square
        with pytest.raises(ValueError, match="hop 2 gains times power overflow"):
            NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=5e307, p1=2.0, p2=1e-300)

    def test_power_boost_doubling_counts_towards_overflow(self):
        kwargs = dict(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=1e308, p2=1.0)
        NetworkParams(**kwargs, duplex="half")
        with pytest.raises(ValueError, match="overflow"):
            NetworkParams(**kwargs, duplex="half", power_boost=True)

    def test_bad_duplex(self):
        with pytest.raises(ValueError):
            NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0,
                          p1=1.0, p2=1.0, duplex="simplex")

    def test_power_boost_needs_half_duplex(self):
        kwargs = dict(alpha2=0.3, beta2=1.0, gamma2=1.0, eta2=0.3, p1=2.0, p2=2.0)
        with pytest.raises(ValueError, match="power_boost needs duplex='half'"):
            NetworkParams(**kwargs, power_boost=True)
        with pytest.raises(ValueError, match="power_boost needs duplex='half'"):
            NetworkParams(**kwargs, duplex="full", power_boost=True)

    def test_half_duplex_hop_powers(self):
        half = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0,
                             p1=1.0, p2=2.0, duplex="half")
        assert half.rate_scale() == 0.5
        assert (half.hop(1), half.hop(2)) == ((0.0, 1.0, 1.0), (0.0, 1.0, 2.0))

        boosted = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0,
                                p1=1.0, p2=2.0, duplex="half", power_boost=True)
        assert boosted.rate_scale() == 0.5
        assert (boosted.hop(1), boosted.hop(2)) == ((0.0, 1.0, 2.0), (0.0, 1.0, 4.0))


class TestHopSplit:
    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
    def test_fraction_range(self, bad):
        with pytest.raises(ValueError):
            HopSplit(bad)

    def test_powers_unpack_in_bound_order(self):
        assert tuple(HopSplit(0.25).powers(4.0)) == (1.0, 3.0)

    @pytest.mark.parametrize("total", [math.nan, math.inf, -1e-300])
    def test_powers_refuse_bad_total(self, total):
        with pytest.raises(ValueError, match="total power must be finite and non-negative"):
            HopSplit(0.5).powers(total)

    def test_degenerate_splits_exact(self):
        assert HopSplit(0.0).powers(3.0)[0] == 0.0
        assert HopSplit(1.0).powers(3.0)[1] == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_powers_sum_exactly(self, f, total):
        p_private, p_common = HopSplit(f).powers(total)
        assert p_private + p_common == total
        assert p_private >= 0.0 and p_common >= 0.0
        # each part stays within a rounding error of the total from its ideal
        assert abs(p_private - f * total) <= 2.0 ** -50 * total


class TestRatePair:
    def test_total(self):
        assert RatePair(0.25, 0.5).total == 0.75

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RatePair(-0.1, 0.0)

    @staticmethod
    def per_coordinate(r_private, r_common):
        """The check in its former form, one coordinate at a time, kept as a
        reference: the exception it raises, as (type, message), or None."""
        try:
            for name, r in (("r_private", r_private), ("r_common", r_common)):
                if not (math.isfinite(r) and r >= 0.0):
                    raise ValueError(f"{name} must be finite and non-negative, got {r!r}")
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            return type(exc), str(exc)
        return None

    def test_same_exception_as_per_coordinate_check(self):
        # every pair of good and bad values, in either coordinate: the first
        # bad coordinate names the error, and a non-number raises TypeError
        # (a str) or OverflowError (an int past the float range) from
        # math.isfinite, as before
        values = [0.0, -0.0, 5e-324, 1.5, 10 ** 300, math.nan, math.inf, -math.inf, -1e-300,
                  -2, 10 ** 400, -(10 ** 400), "0.5"]
        for r_private in values:
            for r_common in values:
                want = self.per_coordinate(r_private, r_common)
                try:
                    RatePair(r_private, r_common)
                    got = None
                except Exception as exc:  # noqa: BLE001
                    got = type(exc), str(exc)
                assert got == want, (r_private, r_common)
        assert {kind for kind, _ in filter(None, (self.per_coordinate(v, 0.0) for v in values))} \
            == {ValueError, TypeError, OverflowError}
