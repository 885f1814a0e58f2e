import math

import pytest
from hypothesis import given, strategies as st

from meshrates.model import (
    HopSplit,
    NetworkParams,
    RatePair,
    capacity,
    db_to_linear,
    linear_to_db,
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
        assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            db_to_linear(math.nan)
        with pytest.raises(ValueError):
            linear_to_db(0.0)


class TestNetworkParams:
    def test_valid_instance(self):
        p = NetworkParams(alpha2=0.4, beta2=1.0, gamma2=1.0, eta2=0.4, p1=2.0, p2=1.0)
        assert p.validate_paper_regime()
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
        p = NetworkParams(alpha2=3.0, beta2=1.0, gamma2=1.0, eta2=0.0, p1=1.0, p2=1.0)
        assert not p.validate_paper_regime()

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

    def test_half_duplex_effective_powers(self):
        half = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0,
                             p1=1.0, p2=2.0, duplex="half")
        assert half.rate_scale() == 0.5
        assert half.effective().p1 == 1.0

        boosted = NetworkParams(alpha2=0.0, beta2=1.0, gamma2=1.0, eta2=0.0,
                                p1=1.0, p2=2.0, duplex="half", power_boost=True)
        eff = boosted.effective()
        assert (eff.p1, eff.p2) == (2.0, 4.0)
        assert eff.duplex == "full"


class TestHopSplit:
    @pytest.mark.parametrize("bad", [-0.01, 1.01, math.nan])
    def test_fraction_range(self, bad):
        with pytest.raises(ValueError):
            HopSplit(bad)

    def test_powers_unpack_in_bound_order(self):
        assert tuple(HopSplit(0.25).powers(4.0)) == (1.0, 3.0)

    def test_degenerate_splits_exact(self):
        assert HopSplit(0.0).powers(3.0).p_private == 0.0
        assert HopSplit(1.0).powers(3.0).p_common == 0.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    def test_powers_sum_exactly(self, f, total):
        pw = HopSplit(f).powers(total)
        assert pw.p_private + pw.p_common == total
        assert pw.p_private >= 0.0 and pw.p_common >= 0.0
        # each part stays within a rounding error of the total from its ideal
        assert abs(pw.p_private - f * total) <= 2.0 ** -50 * total


class TestRatePair:
    def test_total(self):
        assert RatePair(0.25, 0.5).total == 0.75

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RatePair(-0.1, 0.0)
