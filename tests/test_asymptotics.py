"""Log-space measurement tests: anchors for the big-rational logarithm,
exact sandwich bounds, and the peak-versus-law ratios."""

import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powsumseq import (
    SeqParams,
    TheoryViolation,
    asymptotics,
    central_ratio,
    conjectured_ratio,
    exact_core,
    log_of_rational,
    peak_window,
    sandwich_bounds,
    sequence_entry,
)

positive_rationals = st.fractions(
    min_value=Fraction(1, 10**6), max_value=Fraction(10**6), max_denominator=10**6
)


def decimal_log_ratio(p: int, q: int) -> Decimal:
    """log(p / q) to 60 significant digits with the decimal module.

    Near 1 it sums the series of log(1 + x) for the exact x = (p - q) / q,
    since the difference of two 60-digit logs would cancel there.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(p - q) / q
        if abs(x) < Decimal("1e-20"):
            return x - x * x / 2 + x * x * x / 3
        return Decimal(p).ln() - Decimal(q).ln()


def log_ratio_cases():
    """(p, q) pairs of 10 to 300 000 bits: p < q, p = q, p = q +- 1, p > q."""
    rng = random.Random(11)
    cases = []
    for bits in (10, 53, 60, 200, 2000, 300_000):
        q = rng.getrandbits(bits) | 1 << (bits - 1)
        below = rng.getrandbits(bits - 1) | 1 << (bits - 2)
        short = rng.getrandbits(10) | 1 << 9
        pairs = {
            "equal": (q, q),
            "plus1": (q + 1, q),
            "minus1": (q - 1, q),
            "below": (below, q),
            "above": (q, below),
            "short-over-long": (short, q),
            "long-over-3": (q, 3),
        }
        cases += [pytest.param(p, q, id=f"{bits}-{name}") for name, (p, q) in pairs.items()]
    return cases


class TestLogRatioOracle:
    @pytest.mark.parametrize("p, q", log_ratio_cases())
    def test_matches_decimal_oracle(self, p, q):
        result = asymptotics._log_ratio(p, q)
        expected = decimal_log_ratio(p, q)
        with localcontext() as ctx:
            ctx.prec = 60
            miss = abs(Decimal(result.value) - expected)
            assert miss <= Decimal(result.error)
            # The documented relative bound, down to the smallest normal float.
            assert miss <= Decimal(1e-12) * abs(expected) + Decimal(sys.float_info.min)


class TestLogOfRational:
    def test_anchor_one_is_exact(self):
        result = log_of_rational(1)
        assert result.value == 0.0

    def test_anchor_power_of_two(self):
        result = log_of_rational(2**64)
        assert math.isclose(result.value, 64 * math.log(2), rel_tol=1e-14)
        assert math.isclose(result.value, 44.3614195558365, abs_tol=1e-10)

    def test_anchor_small_fraction(self):
        result = log_of_rational(Fraction(5, 2))
        assert math.isclose(result.value, math.log(2.5), rel_tol=1e-13)

    def test_near_one_no_cancellation(self):
        # log((2^1000 + 1) / 2^1000) = log1p(2^-1000) ~ 2^-1000: the shifted
        # split must not lose this to cancellation.
        result = log_of_rational(Fraction(2**1000 + 1, 2**1000))
        assert math.isclose(result.value, 2.0**-1000, rel_tol=1e-12)

    def test_huge_power_scales_linearly(self):
        result = log_of_rational(Fraction(3) ** 12345)
        assert math.isclose(result.value, 12345 * math.log(3), rel_tol=1e-12)

    def test_reciprocal_negates(self):
        x = Fraction(123456789, 987)
        assert math.isclose(
            log_of_rational(x).value, -log_of_rational(1 / x).value, rel_tol=1e-13
        )

    def test_error_bound_reported(self):
        result = log_of_rational(Fraction(7, 3))
        assert 0 < result.error < 1e-12
        assert abs(result.value - math.log(7 / 3)) <= result.error

    def test_rejects_nonpositive_and_floats(self):
        with pytest.raises(ValueError):
            log_of_rational(0)
        with pytest.raises(ValueError):
            log_of_rational(Fraction(-2, 7))
        with pytest.raises(TypeError):
            log_of_rational(2.5)

    @given(positive_rationals, positive_rationals)
    @settings(max_examples=120, deadline=None)
    def test_multiplicative(self, x, y):
        lx = log_of_rational(x).value
        ly = log_of_rational(y).value
        lxy = log_of_rational(x * y).value
        assert abs(lxy - lx - ly) <= 1e-11 * max(1.0, abs(lxy))

    @given(positive_rationals, st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_powers(self, x, k):
        lx = log_of_rational(x).value
        lxk = log_of_rational(x**k).value
        assert abs(lxk - k * lx) <= 1e-11 * max(1.0, abs(lxk))


class TestSandwichBounds:
    def test_documented_m6(self):
        bounds = sandwich_bounds(6)
        assert bounds.peak_index == 2
        assert bounds.lower == Fraction(10800, 378)
        assert bounds.value == Fraction(262, 6)
        assert bounds.upper == Fraction(225, 4)

    def test_smallest_m(self):
        bounds = sandwich_bounds(2)
        assert bounds.peak_index == 1
        assert bounds.lower < bounds.value < bounds.upper

    def test_containment_strict_sampled(self):
        for m in range(2, 301):
            bounds = sandwich_bounds(m)
            assert bounds.lower < bounds.value < bounds.upper

    def test_sandwich_tightens(self):
        widths = [
            float(sandwich_bounds(m).upper / sandwich_bounds(m).lower)
            for m in (20, 200, 2000)
        ]
        assert widths[0] > widths[1] > widths[2]
        assert widths[2] < 1.01

    def test_validation(self):
        with pytest.raises(ValueError):
            sandwich_bounds(1)

    def test_json_dict_uses_exact_strings(self):
        payload = sandwich_bounds(6).to_json_dict()
        assert payload["lower"] == "200/7"  # 10800/378 in lowest terms
        assert payload["value"] == "131/3"
        assert payload["upper"] == "225/4"


class TestCentralRatio:
    # Deterministic double-precision pipeline: values frozen at build time.
    FROZEN = {
        2: 0.7146679057365605,
        10: 0.8428494408365911,
        100: 0.9790865887592105,
        1000: 0.9978050337526788,
    }

    def test_frozen_values(self):
        for m, expected in self.FROZEN.items():
            assert math.isclose(central_ratio(m).ratio, expected, rel_tol=1e-10)

    def test_below_one_and_rising(self):
        ratios = [central_ratio(m).ratio for m in (2, 5, 10, 50, 100, 500)]
        assert all(0 < r < 1 for r in ratios)
        assert ratios == sorted(ratios)

    def test_decade_decay(self):
        gaps = [abs(central_ratio(10**k).ratio - 1) for k in (1, 2, 3, 4)]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
        assert gaps[3] < 0.01

    @pytest.mark.parametrize("m", [400, 1000, 5000])
    def test_central_peak_matches_comb(self, m):
        from powsumseq.asymptotics import _central_peak

        r = (m + 2) // 3
        assert _central_peak(m) == (
            r,
            sum(math.comb(m, i) ** 2 for i in range(r + 1)),
            math.comb(2 * r, r),
        )

    def test_documented_scale_m_100000(self):
        # The log-space pipeline stays finite far beyond float overflow of
        # the peak itself; this is the documented large-scale spot check.
        result = central_ratio(100000)
        assert math.isfinite(result.ratio)
        assert abs(result.ratio - 1) < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            central_ratio(1)

    def test_json_dict_has_twelve_significant_digits(self):
        payload = central_ratio(10).to_json_dict()
        assert payload["ratio"] == f"{self.FROZEN[10]:.12g}"
        assert payload["m"] == 10
        assert payload["log_error"] > 0


class TestConjecturedRatio:
    def test_agrees_with_central_route(self):
        for m in (10, 100):
            general = conjectured_ratio(SeqParams(m, 2, 1)).ratio
            central = central_ratio(m).ratio
            assert math.isclose(general, central, rel_tol=1e-9)

    def test_l1_documented_scale(self):
        result = conjectured_ratio(SeqParams(10000, 1, 1))
        assert math.isclose(result.ratio, 0.9995218781882691, rel_tol=1e-9)
        assert abs(result.ratio - 1) < 0.05

    def test_noncentral_parameters_converge(self):
        for l, a in [(3, Fraction(2)), (3, Fraction(2, 3))]:
            near = conjectured_ratio(SeqParams(20, l, a)).ratio
            far = conjectured_ratio(SeqParams(200, l, a)).ratio
            assert 0 < near < 2 and 0 < far < 2
            assert abs(far - 1) < abs(near - 1)

    def test_scale_m_2000_at_l3_uses_the_recurrence(self, monkeypatch):
        # Only the recurrence's seeds D_0..D_2 and its check row D_3 may be
        # summed directly; the Theta(m^2) route would sum every D_r.
        direct_r = []
        in_rows = []
        sums = exact_core._binomial_power_sums
        rows = exact_core.scaled_row_sums

        def counting_sums(n, l, a, r_max):
            if in_rows:
                direct_r.append(r_max)
            return sums(n, l, a, r_max)

        def flagged_rows(*args):
            in_rows.append(True)
            try:
                return rows(*args)
            finally:
                in_rows.pop()

        monkeypatch.setattr(exact_core, "_binomial_power_sums", counting_sums)
        monkeypatch.setattr(exact_core, "scaled_row_sums", flagged_rows)
        params = SeqParams(2000, 3, Fraction(2, 3))
        result = conjectured_ratio(params)
        assert direct_r and max(direct_r) <= 3
        best = max(sequence_entry(params, r) for r in peak_window(2000, params.a))
        expected = log_of_rational(best)
        assert abs(result.log_value - expected.value) <= result.log_error + expected.error

    def test_validation(self):
        with pytest.raises(ValueError):
            conjectured_ratio(SeqParams(1, 2, 1))
