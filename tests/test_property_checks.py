"""Structural-check tests: frozen examples, naive-oracle agreement, the
float filter against the exact all-products scan, and the prefix-sum
log-concavity property behind the main construction."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powsumseq import (
    ExactSequence,
    LogConcavity,
    Peaks,
    PropertyReport,
    SeqParams,
    SequenceScan,
    Unimodality,
    central_binomial_sequence,
    conjecture_report,
    conjectured_center,
    full_sequence,
    known_l1_exception,
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


# ---------------------------------------------------------------------------
# Exact oracle: every adjacent comparison and every second difference decided
# by integer cross-multiplication, with no float filter.  Its exact_fallbacks
# counts the comparisons it makes that are exact ties: no float filter can
# decide a tie, so the filtered scan settles at least that many exactly.
# ---------------------------------------------------------------------------

def exact_scan_pairs(nums, dens) -> SequenceScan:
    n = len(nums)
    if n == 1:
        return SequenceScan(Unimodality(True), LogConcavity(True, None), Peaks((0,), True))

    # P[r] vs Q[r] compares z_{r+1} with z_r.
    P = [nums[r + 1] * dens[r] for r in range(n - 1)]
    Q = [nums[r] * dens[r + 1] for r in range(n - 1)]
    signs = [(P[r] > Q[r]) - (P[r] < Q[r]) for r in range(n - 1)]
    ties = signs.count(0)

    fallen = False
    unimodal = True
    for s in signs:
        if s < 0:
            fallen = True
        elif s > 0 and fallen:
            unimodal = False
            break

    first_violation = None
    for i in range(1, n - 1):
        lhs = P[i - 1] * Q[i]
        rhs = P[i] * Q[i - 1]
        if lhs < rhs:
            first_violation = i
            break
        ties += lhs == rhs

    if unimodal:
        last_rise = -1
        first_fall = -1
        for r in range(n - 1):
            if signs[r] > 0:
                last_rise = r
            elif signs[r] < 0 and first_fall < 0:
                first_fall = r
        hi = first_fall if first_fall >= 0 else n - 1
        peak_list = tuple(range(last_rise + 1, hi + 1))
    else:
        best = [0]
        for r in range(1, n):
            cmp_lhs = nums[r] * dens[best[0]]
            cmp_rhs = nums[best[0]] * dens[r]
            if cmp_lhs > cmp_rhs:
                best = [r]
            elif cmp_lhs == cmp_rhs:
                best.append(r)
                ties += 1
        peak_list = tuple(best)

    return SequenceScan(
        Unimodality(unimodal),
        LogConcavity(first_violation is None, first_violation),
        Peaks(peak_list, len(peak_list) == 1),
        ties,
    )


def exact_scan(entries) -> SequenceScan:
    if isinstance(entries, ExactSequence):
        return exact_scan_pairs(entries.numerators, entries.denominators)
    fracs = [Fraction(e) for e in entries]
    return exact_scan_pairs(
        [f.numerator for f in fracs], [f.denominator for f in fracs]
    )


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
        assert (
            scan([1, Fraction(5, 2), 1]).unimodality
            == scan(central_binomial_sequence(2)).unimodality
        )
        assert scan([1, Fraction(5, 2), 1]).unimodality.unimodal
        assert scan([1, 1]).unimodality.unimodal
        assert scan([1, 1]).peaks.indices == (0, 1)
        assert not scan([2, 1, 2]).unimodality.unimodal

    def test_interior_plateau(self):
        result = scan([1, 1, 2, 2, 1])
        assert result.unimodality.unimodal
        assert result.peaks.indices == (2, 3)

    def test_singleton(self):
        expected = SequenceScan(Unimodality(True), LogConcavity(True, None), Peaks((0,), True))
        for seq in ([5], [Fraction(7, 3)]):
            result = scan(seq)
            assert result == expected
            assert result.exact_fallbacks == 0

    def test_monotone_sequences(self):
        assert scan([1, 2, 3]).peaks.indices == (2,)
        assert scan([3, 2, 1]).peaks.indices == (0,)


class TestLogConcavity:
    def test_frozen_examples(self):
        assert scan([1, 5, Fraction(19, 6), 1]).log_concavity.log_concave
        verdict = scan([1, 1, 2]).log_concavity
        assert not verdict.log_concave
        assert verdict.first_violation == 1

    def test_geometric_is_borderline(self):
        # Both interior indices are exact ties, so both are settled exactly;
        # the filter decides the three rises.
        result = scan([1, 2, 4, 8])
        assert result.log_concavity.log_concave
        assert result.exact_fallbacks == 2

    def test_sequence_input(self):
        seq = full_sequence(SeqParams(5, 6, 1))
        verdict = scan(seq).log_concavity
        assert not verdict.log_concave
        assert verdict.first_violation is not None


class TestPeaks:
    def test_frozen_examples(self):
        assert scan([1, Fraction(5, 2), 1]).peaks.indices == (1,)
        assert scan([1, Fraction(5, 2), 1]).peaks.unique
        assert scan([1, 1]).peaks.indices == (0, 1)
        assert not scan([1, 1]).peaks.unique

    def test_non_unimodal_peaks_found_by_fallback(self):
        assert scan([2, 1, 2]).peaks.indices == (0, 2)

    def test_central_m20_peak(self):
        assert scan(central_binomial_sequence(20)).peaks.indices == (7,)


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

    def test_float_weight_rejected(self):
        with pytest.raises(TypeError):
            conjectured_center(10, 0.1)
        with pytest.raises(TypeError):
            peak_window(10, 0.1)
        assert peak_window(10, "1/10") == peak_window(10, Fraction(1, 10))


def report_window_hit(m, a, peaks):
    """``window_hit`` of the report on (m, 1, a) given a scan with these peaks."""
    result = SequenceScan(
        Unimodality(False),
        LogConcavity(True, None),
        Peaks(peaks, len(peaks) == 1),
    )
    return PropertyReport.from_scan(SeqParams(m, 1, a), result).window_hit


@st.composite
def window_cases(draw):
    """(m, a, peaks): peaks a nonempty sorted subset of [0, m], often near the center."""
    m = draw(st.integers(0, 200))
    a = Fraction(draw(st.integers(1, 50)), draw(st.integers(1, 50)))
    c = conjectured_center(m, a)
    indices = st.integers(0, m) | st.integers(max(c - 2, 0), min(c + 2, m))
    peaks = draw(st.sets(indices, min_size=1, max_size=6))
    return m, a, tuple(sorted(peaks))


class TestReportWindowHit:
    @given(window_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_clamped_window(self, case):
        m, a, peaks = case
        assert report_window_hit(m, a, peaks) == (set(peaks) <= set(peak_window(m, a)))

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("a", [Fraction(1, 50), Fraction(1), Fraction(50)])
    def test_clamped_at_short_lengths(self, m, a):
        # At m = 0 and m = 1 the window {c-1, c, c+1} reaches past [0, m].
        for peaks in [(0,), (1,), (0, 1)]:
            if peaks[-1] <= m:
                expected = set(peaks) <= set(peak_window(m, a))
                assert report_window_hit(m, a, peaks) == expected


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
        assert scan(prefix).log_concavity.log_concave


# ---------------------------------------------------------------------------
# The float filter against the exact all-products scan.
# ---------------------------------------------------------------------------

# A few values, two of them 1 +- 10**-40, so that drawn lists are full of
# ties, plateaus, non-unimodal dips and near-ties.
tie_pool = st.sampled_from([
    Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 7),
    Fraction(10**40 + 1, 10**40), Fraction(10**40, 10**40 + 1),
])
tied_sequences = st.lists(tie_pool, min_size=1, max_size=14)
geometric_ratios = st.fractions(
    min_value=Fraction(1, 30), max_value=Fraction(30), max_denominator=30
)


def expected_exact_comparisons(result: SequenceScan, n: int) -> int:
    """Comparisons a scan of n entries makes when the filter decides none."""
    examined = result.log_concavity.first_violation or max(n - 2, 0)
    peak_search = 0 if result.unimodality.unimodal else n - 1
    return (n - 1) + examined + peak_search


def near_tie_entries(k: int, deltas, seed: int) -> list[Fraction]:
    """z_0 = x / y of 2000 bits each, then z_{r+1} = z_r * (1 + delta_r / 2**k).

    Adjacent ratios are 1 + delta * 2**-k and the second differences of
    log z are about (delta_{i-1} - delta_i) * 2**-k, exactly 0 where two
    consecutive deltas agree.
    """
    rng = random.Random(seed)
    entry = Fraction(rng.getrandbits(2000) | 1 << 1999, rng.getrandbits(2000) | 1 << 1999)
    entries = [entry]
    for delta in deltas:
        entry *= Fraction((1 << k) + delta, 1 << k)
        entries.append(entry)
    return entries


class TestFilterAgainstExactOracle:
    @pytest.mark.parametrize("above_one", [True, False])
    @given(
        m=st.integers(0, 120),
        l=st.integers(1, 20),
        p=st.integers(1, 10**6),
        q=st.integers(1, 10**6),
    )
    @example(m=120, l=20, p=10**6, q=10**6 - 1)
    @example(m=120, l=1, p=10**6, q=1)
    @example(m=80, l=13, p=999_983, q=3)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_parameters(self, above_one, m, l, p, q):
        big, small = max(p, q), min(p, q)
        a = Fraction(big, small) if above_one else Fraction(small, big)
        seq = full_sequence(SeqParams(m, l, a))
        assert scan(seq) == exact_scan(seq)

    @given(tied_sequences, st.booleans())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_ties_plateaus_and_dips(self, middle, unit_ends):
        entries = [1, *middle, 1] if unit_ends else middle
        result = scan(entries)
        exact = exact_scan(entries)
        assert result == exact
        assert result.exact_fallbacks >= exact.exact_fallbacks

    @given(geometric_ratios, geometric_ratios, st.integers(1, 16))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_geometric_is_never_strict(self, first, ratio, length):
        entries = [first * ratio**r for r in range(length)]
        result = scan(entries)
        assert result == exact_scan(entries)
        assert result.log_concavity.log_concave
        # Every interior index is a tie and is settled exactly; the signs are
        # ties too when the ratio is 1, and the filter decides them otherwise.
        sign_ties = length - 1 if ratio == 1 else 0
        assert result.exact_fallbacks == max(length - 2, 0) + sign_ties

    @pytest.mark.parametrize("k", [60, 64, 200, 1000, 3000])
    def test_near_ties_all_go_exact(self, k):
        rng = random.Random(k)
        patterns = [
            [1] * 8,
            [-1] * 8,
            [0] * 8,
            [1, 1, 0, 0, -1, -1],
            [1, 0, 1, -1],
            [-1, 1, 1, -1],
            [1, -1, 1, -1, 1],
        ] + [[rng.choice((-1, 0, 1)) for _ in range(9)] for _ in range(6)]
        for seed, deltas in enumerate(patterns):
            entries = near_tie_entries(k, deltas, seed)
            result = scan(entries)
            assert result == exact_scan(entries), (k, deltas)
            assert result.exact_fallbacks == expected_exact_comparisons(
                result, len(entries)
            ), (k, deltas)


class TestExactFallbacks:
    def test_central_m2000_needs_none(self):
        assert scan(central_binomial_sequence(2000)).exact_fallbacks == 0

    @pytest.mark.parametrize("ratio", [Fraction(3, 2), Fraction(2, 3), Fraction(7)])
    @pytest.mark.parametrize("length", [3, 10, 50])
    def test_geometric_takes_one_per_interior_index(self, ratio, length):
        entries = [Fraction(5, 3) * ratio**r for r in range(length)]
        assert scan(entries).exact_fallbacks == length - 2

    def test_signs_after_a_filter_decided_violation(self):
        # z_0..z_2 = 1, 2, 8: log-concavity fails at 1 by a wide margin, so
        # the filter decides it, and no later index is examined.  The six
        # ratios 1 + 2**-80 after it are near-ties: each sign goes exact,
        # while their second differences (exact ties) are never examined.
        entries = [Fraction(1), Fraction(2), Fraction(8)]
        for _ in range(6):
            entries.append(entries[-1] * (1 + Fraction(1, 2**80)))
        result = scan(entries)
        assert result == exact_scan(entries)
        assert result.log_concavity.first_violation == 1
        assert result.peaks.indices == (8,)
        assert result.exact_fallbacks == 6
