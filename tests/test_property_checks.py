"""Structural-check tests: frozen examples, naive-oracle agreement, and the
prefix-sum log-concavity property behind the main construction."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powsumseq import (
    PropertyReport,
    SeqParams,
    central_binomial_sequence,
    check_log_concave,
    check_unimodal,
    conjecture_report,
    conjectured_center,
    full_sequence,
    known_l1_exception,
    peak_indices,
    peak_window,
    scan,
)

positive_fractions = st.fractions(
    min_value=Fraction(1, 40), max_value=Fraction(60), max_denominator=40
)
rational_sequences = st.lists(positive_fractions, min_size=1, max_size=12)


# ---------------------------------------------------------------------------
# Naive oracles: direct Fraction arithmetic, no cross-multiplication tricks.
# ---------------------------------------------------------------------------

def naive_unimodal(entries):
    values = [Fraction(e) for e in entries]
    fallen = False
    for x, y in zip(values, values[1:]):
        if y < x:
            fallen = True
        elif y > x and fallen:
            return False
    return True


def naive_log_concave(entries):
    values = [Fraction(e) for e in entries]
    for i in range(1, len(values) - 1):
        if values[i] ** 2 < values[i - 1] * values[i + 1]:
            return False, i
    return True, None


def naive_peaks(entries):
    values = [Fraction(e) for e in entries]
    top = max(values)
    return tuple(i for i, v in enumerate(values) if v == top)


def random_log_concave(rng: random.Random, length: int) -> list[Fraction]:
    """Positive sequence with weakly decreasing consecutive ratios."""
    ratios = sorted(
        (Fraction(rng.randint(1, 24), rng.randint(1, 24)) for _ in range(length - 1)),
        reverse=True,
    )
    seq = [Fraction(rng.randint(1, 30), rng.randint(1, 30))]
    for ratio in ratios:
        seq.append(seq[-1] * ratio)
    return seq


class TestUnimodality:
    def test_frozen_examples(self):
        assert check_unimodal([1, Fraction(5, 2), 1]) == check_unimodal(
            central_binomial_sequence(2)
        )
        assert check_unimodal([1, Fraction(5, 2), 1]).plateau == (1, 1)
        assert check_unimodal([1, 1]).plateau == (0, 1)
        assert not check_unimodal([2, 1, 2]).unimodal
        assert check_unimodal([2, 1, 2]).plateau is None

    def test_interior_plateau(self):
        verdict = check_unimodal([1, 1, 2, 2, 1])
        assert verdict.unimodal
        assert verdict.plateau == (2, 3)

    def test_singleton(self):
        assert check_unimodal([Fraction(7, 3)]) == check_unimodal([5])
        assert check_unimodal([5]).plateau == (0, 0)

    def test_monotone_sequences(self):
        assert check_unimodal([1, 2, 3]).plateau == (2, 2)
        assert check_unimodal([3, 2, 1]).plateau == (0, 0)


class TestLogConcavity:
    def test_frozen_examples(self):
        assert check_log_concave([1, 5, Fraction(19, 6), 1]).log_concave
        verdict = check_log_concave([1, 1, 2])
        assert not verdict.log_concave
        assert verdict.first_violation == 1

    def test_geometric_is_borderline(self):
        verdict = check_log_concave([1, 2, 4, 8])
        assert verdict.log_concave
        assert not verdict.strict

    def test_strict_flag(self):
        assert check_log_concave([1, 3, 4, 3, 1]).strict

    def test_sequence_input(self):
        seq = full_sequence(SeqParams(5, 6, 1))
        verdict = check_log_concave(seq)
        assert not verdict.log_concave
        assert verdict.first_violation is not None


class TestPeaks:
    def test_frozen_examples(self):
        assert peak_indices([1, Fraction(5, 2), 1]).indices == (1,)
        assert peak_indices([1, Fraction(5, 2), 1]).unique
        assert peak_indices([1, 1]).indices == (0, 1)
        assert not peak_indices([1, 1]).unique

    def test_non_unimodal_peaks_found_by_fallback(self):
        assert peak_indices([2, 1, 2]).indices == (0, 2)

    def test_central_m20_peak(self):
        assert peak_indices(central_binomial_sequence(20)).indices == (7,)


class TestInputValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scan([])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            scan([1, 0, 1])
        with pytest.raises(ValueError):
            scan([1, Fraction(-1, 2)])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            scan([1.5, 2.5])


class TestWindow:
    def test_conjectured_center_examples(self):
        assert conjectured_center(12, 1) == 5
        assert conjectured_center(2, 1) == 1
        assert conjectured_center(10, 2) == 4
        # floor((a(m+1) + 2) / (2a + 1)) with a = 3/2 and m = 10: 37/8 -> 4
        assert conjectured_center(10, Fraction(3, 2)) == 4

    def test_window_contains_proven_central_peak(self):
        # At l=2, a=1 the proven peak index floor((m+2)/3) equals the center
        # or sits one below it (exactly at multiples of 3), so it is always
        # inside the +-1 window.
        for m in range(0, 60):
            center = conjectured_center(m, 1)
            proven = (m + 2) // 3
            assert proven in (center - 1, center)
            assert proven in peak_window(m, 1)

    def test_window_clamps(self):
        assert peak_window(0, 1) == (0,)
        assert peak_window(2, 1) == (0, 1, 2)
        assert peak_window(30, 1) == (10, 11, 12)

    def test_validation(self):
        with pytest.raises(ValueError):
            conjectured_center(-1, 1)
        with pytest.raises(ValueError):
            conjectured_center(3, 0)


class TestKnownExceptions:
    def test_only_l1(self):
        assert not known_l1_exception(SeqParams(3, 2, 1))
        assert known_l1_exception(SeqParams(3, 1, 1))

    def test_integer_weight_list(self):
        # m in {3, 2a+4, 4a+5}, plus 12 for a = 1.
        for a in range(1, 6):
            expected = {3, 2 * a + 4, 4 * a + 5} | ({12} if a == 1 else set())
            got = {
                m
                for m in range(1, 60)
                if known_l1_exception(SeqParams(m, 1, a))
            }
            assert got == expected

    def test_fractional_weight_uses_exact_equality(self):
        # 2a+4 and 4a+5 are compared exactly: for a = 1/2 they are the
        # integers 5 and 7, so those lengths (and m = 3) are flagged.
        a = Fraction(1, 2)
        got = {m for m in range(1, 60) if known_l1_exception(SeqParams(m, 1, a))}
        assert got == {3, 5, 7}

    def test_exceptions_really_miss_the_center(self):
        # On the exceptional lengths the l=1 peak is off-center (that is why
        # they are listed); elsewhere it sits exactly at the center.
        for a in (1, 2, 3):
            for m in range(2, 40):
                report = conjecture_report(SeqParams(m, 1, a))
                centered = report.peak_set == (report.conjectured_center,)
                assert centered != known_l1_exception(SeqParams(m, 1, a))


class TestConjectureReport:
    def test_central_hit(self):
        report = conjecture_report(SeqParams(20, 2, 1))
        assert report.unimodal and report.log_concave
        assert report.peak_set == (7,)
        assert report.window_hit and report.unique_max
        assert not report.known_exception

    def test_non_log_concave_case_still_unimodal(self):
        report = conjecture_report(SeqParams(5, 6, 1))
        assert report.unimodal
        assert not report.log_concave
        assert report.first_lc_violation is not None

    def test_accepts_prebuilt_sequence(self):
        params = SeqParams(9, 2, 1)
        seq = full_sequence(params)
        assert PropertyReport.from_scan(params, scan(seq)) == conjecture_report(params)

    def test_json_dict_is_flat_and_serialisable(self):
        payload = conjecture_report(SeqParams(7, 3, Fraction(1, 2))).to_json_dict()
        assert payload["m"] == 7
        assert payload["a"] == "1/2"
        assert payload["peak_set"] == list(payload["peak_set"])
        assert isinstance(payload["window_hit"], bool)


class TestConforms:
    """The conjecture's verdict on one report."""

    def test_unimodal_unique_peak_in_window(self):
        assert conjecture_report(SeqParams(20, 2, 1)).conforms

    def test_non_unimodal_fails(self):
        report = replace(conjecture_report(SeqParams(20, 2, 1)), unimodal=False)
        assert not report.conforms
        exception = replace(conjecture_report(SeqParams(12, 1, 1)), unimodal=False)
        assert not exception.conforms

    def test_l1_exception_is_set_aside(self):
        report = replace(
            conjecture_report(SeqParams(12, 1, 1)), window_hit=False, unique_max=False
        )
        assert report.known_exception
        assert report.conforms

    def test_short_sequence_is_set_aside(self):
        # m = 1: both entries equal 1, so the peak is a tie.
        report = conjecture_report(SeqParams(1, 3, 2))
        assert not report.unique_max
        assert report.conforms
        assert replace(report, window_hit=False).conforms

    def test_window_miss_or_tie_fails(self):
        report = conjecture_report(SeqParams(20, 2, 1))
        assert not replace(report, window_hit=False).conforms
        assert not replace(report, unique_max=False).conforms


class TestAgainstNaiveOracles:
    @given(rational_sequences)
    @settings(max_examples=150, deadline=None)
    def test_scan_matches_naive(self, entries):
        result = scan(entries)
        assert result.unimodality.unimodal == naive_unimodal(entries)
        lc, first = naive_log_concave(entries)
        assert result.log_concavity.log_concave == lc
        assert result.log_concavity.first_violation == first
        assert result.peaks.indices == naive_peaks(entries)

    @given(rational_sequences)
    @settings(max_examples=150, deadline=None)
    def test_log_concave_implies_unimodal(self, entries):
        result = scan(entries)
        if result.log_concavity.log_concave:
            assert result.unimodality.unimodal

    @given(st.integers(0, 2**64), st.data())
    @settings(max_examples=50, deadline=None)
    def test_lemma_prefix_sums_are_log_concave(self, seed, data):
        # Prefix sums z_k = sum_{i<=k} x_i y_i of two positive log-concave
        # sequences are log-concave.
        rng = random.Random(seed)
        length = data.draw(st.integers(3, 9))
        xs = random_log_concave(rng, length)
        ys = random_log_concave(rng, length)
        prefix = []
        acc = Fraction(0)
        for x, y in zip(xs, ys):
            acc += x * y
            prefix.append(acc)
        assert check_log_concave(prefix).log_concave
