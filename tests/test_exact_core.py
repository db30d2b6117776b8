"""Exact-construction tests, checked against an independent brute-force oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powsumseq import (
    ExactSequence,
    SeqParams,
    binomial_power_sums,
    central_binomial_sequence,
    full_sequence,
    parse_rational,
    scaled_prefix_sums,
    scaled_row_sums,
    sequence_entry,
    weighted_power_sum,
)


def oracle_power_sum(m: int, l: int, a: Fraction, r: int) -> Fraction:
    """P(m, r) straight from the definition, term by term."""
    return sum(
        (Fraction(math.comb(m, i)) * a**i) ** l for i in range(r + 1)
    )


def oracle_entry(m: int, l: int, a: Fraction, r: int) -> Fraction:
    return oracle_power_sum(m, l, a, r) / oracle_power_sum(r, l, a, r)


small_rationals = st.fractions(
    min_value=Fraction(1, 12), max_value=Fraction(12), max_denominator=12
)


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Fraction(3)),
            ("2/5", Fraction(2, 5)),
            ("0.25", Fraction(1, 4)),
            (" 7/3 ", Fraction(7, 3)),
            (4, Fraction(4)),
            (Fraction(9, 2), Fraction(9, 2)),
        ],
    )
    def test_accepts(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["abc", "1/0", "2//3", ""])
    def test_rejects_garbage(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            parse_rational(0.25)

    def test_returns_a_fraction_unchanged(self):
        x = Fraction(7, 3)
        assert parse_rational(x) is x

        class Weight(Fraction):
            pass

        assert type(parse_rational(Weight(7, 3))) is Fraction


class TestSeqParams:
    def test_normalises_weight(self):
        assert SeqParams(3, 2, "1/2").a == Fraction(1, 2)
        assert SeqParams(3, 2, 4).a == Fraction(4)

    def test_label(self):
        assert SeqParams(3, 2, 1).label() == "(m=3, l=2, a=1)"

    @pytest.mark.parametrize("m,l,a", [(-1, 1, 1), (2, 0, 1), (2, 1, 0), (2, 1, "-1/2")])
    def test_rejects_bad_ranges(self, m, l, a):
        with pytest.raises(ValueError):
            SeqParams(m, l, a)

    @pytest.mark.parametrize("m,l,a", [(2.0, 1, 1), (2, 1.0, 1), (2, 1, 0.5)])
    def test_rejects_inexact_types(self, m, l, a):
        with pytest.raises(TypeError):
            SeqParams(m, l, a)

    def test_frozen(self):
        params = SeqParams(3, 2, 1)
        with pytest.raises(AttributeError):
            params.m = 4


class TestWeightedPowerSum:
    def test_documented_examples(self):
        assert weighted_power_sum(2, 2, 1, 1) == 5
        assert weighted_power_sum(2, 1, 2, 2) == 9

    def test_r_zero_is_one(self):
        assert weighted_power_sum(9, 3, Fraction(5, 7), 0) == 1

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            weighted_power_sum(3, 2, 1, 4)
        with pytest.raises(ValueError):
            weighted_power_sum(3, 2, 1, -1)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            weighted_power_sum(-1, 2, 1, 0)
        with pytest.raises(ValueError):
            weighted_power_sum(3, 0, 1, 0)
        with pytest.raises(ValueError):
            weighted_power_sum(3, 2, 0, 0)

    def test_strictly_increasing_in_r(self):
        values = [weighted_power_sum(8, 3, Fraction(2, 3), r) for r in range(9)]
        assert all(x < y for x, y in zip(values, values[1:]))

    @given(
        st.integers(0, 10),
        st.integers(1, 4),
        small_rationals,
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, m, l, a, data):
        r = data.draw(st.integers(0, m))
        assert weighted_power_sum(m, l, a, r) == oracle_power_sum(m, l, a, r)


class TestBinomialPowerSums:
    @given(
        st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
        st.integers(1, 5),
        st.one_of(st.just(Fraction(1)), small_rationals),
    )
    @example((0, 0), 3, Fraction(1))
    @example((0, 0), 2, Fraction(2, 3))
    @example((9, 9), 2, Fraction(1))
    @example((9, 4), 3, Fraction(1))
    @example((9, 9), 3, Fraction(5, 2))
    @example((9, 4), 4, Fraction(2, 7))
    @settings(max_examples=80, deadline=None)
    def test_matches_comb_definition(self, n_r, l, a):
        n, r_max = n_r
        p, q = a.numerator, a.denominator
        expected = [
            sum(
                math.comb(n, i) ** l * p ** (i * l) * q ** ((r - i) * l)
                for i in range(r + 1)
            )
            for r in range(r_max + 1)
        ]
        assert list(binomial_power_sums(n, l, a, r_max)) == expected

    @pytest.mark.parametrize("n", [399, 400, 401, 1000])
    def test_both_term_rules_match_one_term_extension(self, n):
        # n = 399 takes the w**l rule and n >= 400 the term-ratio rule; the
        # oracle is the one-term extension with math.comb, O(r) per row.
        for l in (1, 2, 3, 5, 20):
            for a in (Fraction(1), Fraction(3), Fraction(4, 7), Fraction(7, 4)):
                p, q = a.numerator, a.denominator
                expected = [1]
                for r in range(1, n + 1):
                    expected.append(
                        expected[-1] * q**l + math.comb(n, r) ** l * p ** (r * l)
                    )
                for r_max in (0, 1, n // 3, n):
                    got = list(binomial_power_sums(n, l, a, r_max))
                    assert got == expected[: r_max + 1], (n, l, a, r_max)

    @pytest.mark.parametrize("n, ratio_rule", [(399, False), (400, True), (1000, True)])
    def test_term_rule_follows_the_crossover(self, n, ratio_rule):
        bases = []

        class RecordingExponent(int):
            """An exponent l that records the bit length of each base raised to it."""

            def __rpow__(self, base, mod=None):
                bases.append(base.bit_length())
                return pow(base, int(self), mod)

        for a in (Fraction(1), Fraction(4, 7)):
            bases.clear()
            expected = list(binomial_power_sums(n, 2, a, n // 2))
            assert list(binomial_power_sums(n, RecordingExponent(2), a, n // 2)) == expected
            # The ratio rule powers only (n - i + 1) * p, i and q; the w**l
            # rule powers w = C(n, i) * p**i, hundreds of bits long here.
            assert (max(bases) <= 16) == ratio_rule, (n, a)

    def test_streams_without_building_the_whole_row(self):
        n = 10**9
        sums = binomial_power_sums(n, 2, Fraction(1), n)
        assert [next(sums) for _ in range(3)] == [
            1,
            1 + n**2,
            1 + n**2 + math.comb(n, 2) ** 2,
        ]

    def test_float_weight_rejected(self):
        with pytest.raises(TypeError, match="refusing to convert a float"):
            list(binomial_power_sums(5, 2, 1.5, 5))
        assert list(binomial_power_sums(5, 2, 3, 5)) == list(
            binomial_power_sums(5, 2, Fraction(3), 5)
        )


class TestBuilderChecks:
    """Each public builder checks its arguments when called, before any work."""

    @pytest.mark.parametrize(
        "build, args, error",
        [
            pytest.param(binomial_power_sums, (5, 2, 1.5, 5), TypeError, id="sums-float-a"),
            pytest.param(binomial_power_sums, (5, 2, 0, 5), ValueError, id="sums-zero-a"),
            pytest.param(binomial_power_sums, (-1, 2, 1, 5), ValueError, id="sums-negative-n"),
            pytest.param(binomial_power_sums, (5, 0, 1, 5), ValueError, id="sums-zero-l"),
            pytest.param(binomial_power_sums, (5, 2, 1, -1), ValueError, id="sums-negative-r_max"),
            pytest.param(scaled_row_sums, (-1, 2, 3), ValueError, id="rows-negative-l"),
            pytest.param(scaled_row_sums, (0, 1, 4), ValueError, id="rows-zero-l"),
            pytest.param(scaled_row_sums, (2, -1, 4), ValueError, id="rows-negative-a"),
            pytest.param(scaled_row_sums, (2, 1, -1), ValueError, id="rows-negative-r_max"),
            pytest.param(scaled_prefix_sums, (3, 2, -2), ValueError, id="prefix-negative-a"),
        ],
    )
    def test_bad_arguments_raise_at_the_call(self, build, args, error):
        # Not iterated: a generator must raise before its first value.
        with pytest.raises(error):
            build(*args)

    def test_r_max_past_n_is_allowed(self):
        # verify_right_peak_inequality reads S(2) at n = 1.
        assert list(binomial_power_sums(1, 2, 1, 3)) == [1, 2, 2, 2]


class TestScaledArrays:
    def test_prefix_sums_match_power_sum(self):
        m, l, a = 7, 3, Fraction(3, 4)
        nums = scaled_prefix_sums(m, l, a)
        q = a.denominator
        for r in range(m + 1):
            assert Fraction(nums[r], q ** (r * l)) == weighted_power_sum(m, l, a, r)

    def test_row_sums_match_power_sum(self):
        l, a = 3, Fraction(3, 4)
        dens = scaled_row_sums(l, a, 7)
        q = a.denominator
        for r in range(8):
            assert Fraction(dens[r], q ** (r * l)) == weighted_power_sum(r, l, a, r)

    def test_l1_fast_path_is_binomial_theorem(self):
        a = Fraction(2, 5)
        assert scaled_row_sums(1, a, 6) == [7**r for r in range(7)]

    def test_central_fast_path_is_central_binomials(self):
        assert scaled_row_sums(2, Fraction(1), 8) == [math.comb(2 * r, r) for r in range(9)]

    def test_fast_paths_agree_with_defining_sum(self):
        for l, a in [(1, Fraction(3, 2)), (2, Fraction(1))]:
            generic = [
                sum(
                    math.comb(r, i) ** l * a.numerator ** (i * l)
                    * a.denominator ** ((r - i) * l)
                    for i in range(r + 1)
                )
                for r in range(12)
            ]
            assert scaled_row_sums(l, a, 11) == generic

    @pytest.mark.parametrize("l", [2, 4])
    def test_row_sums_reject_float_weight(self, l):
        # l = 2 steps a recurrence, l = 4 sums each row directly.
        with pytest.raises(TypeError, match="refusing to convert a float"):
            scaled_row_sums(l, 1.5, 5)


class TestExactSequence:
    def test_full_sequence_oracle_values(self):
        seq = full_sequence(SeqParams(3, 2, 1))
        assert seq.entries == (1, 5, Fraction(19, 6), 1)

    def test_endpoints_are_one(self):
        for params in [SeqParams(6, 3, Fraction(2, 7)), SeqParams(4, 1, 5)]:
            seq = full_sequence(params)
            assert seq.entry(0) == 1
            assert seq.entry(params.m) == 1

    def test_tiny_m(self):
        assert full_sequence(SeqParams(0, 4, 3)).entries == (1,)
        assert full_sequence(SeqParams(1, 4, 3)).entries == (1, 1)

    def test_len_and_entry_bounds(self):
        seq = full_sequence(SeqParams(5, 2, 1))
        assert len(seq) == 6
        with pytest.raises(ValueError):
            seq.entry(6)
        with pytest.raises(ValueError):
            seq.entry(-1)

    def test_pair_lengths_validated(self):
        with pytest.raises(ValueError):
            ExactSequence(SeqParams(2, 1, 1), (1, 2), (1, 1, 1))

    def test_sequence_entry_matches_full(self):
        params = SeqParams(6, 2, Fraction(1, 2))
        seq = full_sequence(params)
        for r in range(7):
            assert sequence_entry(params, r) == seq.entry(r)
        with pytest.raises(ValueError):
            sequence_entry(params, 7)

    @given(
        st.integers(0, 9),
        st.integers(1, 4),
        small_rationals,
    )
    @settings(max_examples=60, deadline=None)
    def test_full_sequence_matches_oracle(self, m, l, a):
        seq = full_sequence(SeqParams(m, l, a))
        expected = tuple(oracle_entry(m, l, a, r) for r in range(m + 1))
        assert seq.entries == expected


class TestCentralBinomialSequence:
    def test_documented_m6_values(self):
        seq = central_binomial_sequence(6)
        assert seq.entries == (
            1,
            Fraction(37, 2),
            Fraction(131, 3),
            Fraction(331, 10),
            Fraction(887, 70),
            Fraction(923, 252),
            1,
        )

    def test_m2(self):
        assert central_binomial_sequence(2).entries == (1, Fraction(5, 2), 1)

    def test_denominators_are_central_binomials(self):
        seq = central_binomial_sequence(10)
        assert seq.denominators == tuple(math.comb(2 * r, r) for r in range(11))

    def test_total_is_central_binomial_identity(self):
        # sum_i C(m, i)^2 = C(2m, m), so the last numerator collapses.
        for m in range(1, 30):
            seq = central_binomial_sequence(m)
            assert seq.numerators[m] == math.comb(2 * m, m)

    def test_equals_general_construction(self):
        for m in range(21):
            fast = central_binomial_sequence(m)
            general = full_sequence(SeqParams(m, 2, 1))
            assert fast.entries == general.entries
