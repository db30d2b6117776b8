"""Exact structural checks on positive rational sequences.

Every verdict is exact: a floating-point filter with a proven error bound
decides the comparisons that are far from a tie, and integer
cross-multiplication on the numerator/denominator pairs decides the rest.
No entry is divided out or reduced to lowest terms.

* weak unimodality: the sequence rises (weakly) and then falls (weakly);
  equivalently, no strict rise ever follows a strict fall,
* log-concavity: z_i^2 >= z_{i-1} * z_{i+1} at every interior index,
* peak set: all indices attaining the maximum value,
* the conjectured peak window: for weight ``a`` the peak of the (m, l, a)
  power-sum ratio sequence is conjectured to sit at

      c = floor((a*m + a + 2) / (2*a + 1))

  give or take one, i.e. within {c-1, c, c+1} clamped to [0, m].  For l = 1
  a short list of exceptional m (3, 2a+4, 4a+5, and 12 when a = 1) is known
  to break the exact-center formula; checks report those separately rather
  than flagging them as failures.

``scan`` makes the first three checks in one loop over the pairs (see The
loop, below).  It accepts either an
:class:`~powsumseq.exact_core.ExactSequence` (whose pre-scaled integer pairs
are used as-is) or any iterable of positive rationals (Fractions or ints).

Exact comparisons.  One comparison, ``_ratio_sign``, gives the sign of
a/b - c/d (b, d > 0) as that of a*d - c*b.  It is used three ways on the
entries z_r = N_r / D_r: (N_{r+1}, D_{r+1}) against (N_r, D_r) for the sign
of z_{r+1} - z_r; z_i^2 = N_i^2 / D_i^2 against z_{i-1} z_{i+1} =
N_{i-1} N_{i+1} / (D_{i-1} D_{i+1}) for log-concavity at i, the textbook
form N_i^2 D_{i-1} D_{i+1} >= N_{i-1} N_{i+1} D_i^2; and, in the peak search
of a non-unimodal sequence, each entry against the current maximum.

The filter (Fortune & Van Wyk 1993; Shewchuk 1997).  Both questions are
signs of logs: z_{r+1} - z_r has the sign of lambda_r = log(z_{r+1} / z_r),
and log-concavity at i holds iff lambda_{i-1} - lambda_i >= 0.  Each
positive integer is split exactly as x = 2**s * (t + theta) with
s = max(bit_length(x) - 53, 0), t = x >> s and 0 <= theta < 1, so t has at
most 53 bits and float(t) is exact.  With f_r = fl(tN_r / tD_r),
e_r = sN_r - sD_r and k = e_{r+1} - e_r,

    lambda_r ~ lam_r = fl(ell_r + fl(k * LN2)),  ell_r = log(fl(f_{r+1} / f_r)).

Error bound, with u = 2**-53 and every rounding to nearest:

* truncation: log x = s ln 2 + log t + log(1 + theta/t), and
  0 <= log(1 + theta/t) < 2**-52 (t >= 2**52 whenever s > 0, theta = 0
  otherwise); two operands enter with + and two with -, so < 2**-51;
* quotient rounding: f_r, f_{r+1} and their quotient are three roundings,
  each moving the log by at most u / (1 - u): < 2**-51 in all;
* ``math.log``: glibc states at most 1 ulp; allowing 4 ulp as a safety
  factor costs at most 2**-50 |log q| <= 2**-49.99 |ell_r|;
* k * LN2: |LN2 - ln 2| <= 2**-54 and the product rounds by at most
  u |k LN2|, so together < 2**-52 |k|;
* the final sum rounds by at most u |ell_r + fl(k LN2)| < 2**-53 (|ell_r| + |k|).

So |lam_r - lambda_r| < 2**-49 * (1 + |ell_r| + |k|), and the filter uses
twice that,

    eps_r = 2**-48 * (1 + |ell_r| + |k|),

whose slack also absorbs the few roundings made while computing eps_r.
The sign of z_{r+1} - z_r is decided when |lam_r| > eps_r.  Log-concavity at
i is decided when |d| > eps_{i-1} + eps_i for d = fl(lam_{i-1} - lam_i):
the true difference is off by at most half that sum (each eps is twice
its error) plus the rounding u |d| of the subtraction, which is less than
|d|.  Every other comparison, which includes every exact tie, goes to the
exact comparison, so ``first_violation`` and the peak set are those of an
all-exact scan.

The loop.  ``scan`` reads the (N_i, D_i) pairs once, in order.  At entry i
it rejects a nonpositive pair, splits both integers, and for r = i - 1 forms
lam_r and eps_r and decides the sign of z_{r+1} - z_r, keeping only the last
index of a rise and the first of a fall.  Until the first log-concavity
violation it also decides log-concavity at r from lam_{r-1} and lam_r; no
index after that violation is examined.  What one index hands the next is
fixed in size: entries i-1 and i-2, the split of i-1, and lam_{r-1} and
eps_{r-1}; no product outlives the comparison that formed it.  The
sequence is unimodal iff no rise follows the first fall, and its peak set is
then every index from last rise + 1 to the first fall, or to the last index
when nothing falls.  The peak search of a non-unimodal sequence is the one
second walk and makes the only comparisons between non-adjacent entries.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from .exact_core import ExactSequence, SeqParams, full_sequence, parse_rational

__all__ = [
    "Unimodality",
    "LogConcavity",
    "Peaks",
    "SequenceScan",
    "PropertyReport",
    "scan",
    "conjectured_center",
    "peak_window",
    "known_l1_exception",
    "conjecture_report",
]

# ln 2 correctly rounded to double (0x1.62e42fefa39efp-1).
_LN2 = 0.6931471805599453
# 2**-48: twice the 2**-49 factor of the lam_r error bound (module docstring).
_EPS_UNIT = math.ldexp(1.0, -48)


@dataclass(frozen=True)
class Unimodality:
    """Weak-unimodality verdict.

    The maximum of a unimodal sequence is one run, from the first to the
    last index of its :class:`Peaks`.
    """

    unimodal: bool


@dataclass(frozen=True)
class LogConcavity:
    """Log-concavity verdict.

    ``first_violation`` is the least interior index i with
    z_i^2 < z_{i-1} * z_{i+1}, or None when log-concave.
    """

    log_concave: bool
    first_violation: int | None


@dataclass(frozen=True)
class Peaks:
    """All argmax indices, ascending, plus a uniqueness flag."""

    indices: tuple[int, ...]
    unique: bool


@dataclass(frozen=True)
class SequenceScan:
    """Combined result of one pass over a sequence.

    ``exact_fallbacks`` counts the comparisons decided by integer
    cross-multiplication rather than by the float filter; it is a work
    counter, not part of the verdict, so it takes no part in equality.
    """

    unimodality: Unimodality
    log_concavity: LogConcavity
    peaks: Peaks
    exact_fallbacks: int = field(default=0, compare=False)


def _integer_pairs(seq) -> tuple[Sequence[int], Sequence[int]]:
    """The (numerator, denominator) pairs of any input form, nonempty."""
    if isinstance(seq, ExactSequence):
        nums, dens = seq.numerators, seq.denominators
    else:
        nums, dens = [], []
        for value in seq:
            if isinstance(value, float):
                raise TypeError(
                    "refusing to check floats; pass Fractions or ints"
                )
            frac = Fraction(value)
            nums.append(frac.numerator)
            dens.append(frac.denominator)
    if not nums:
        raise ValueError("sequence must be nonempty")
    return nums, dens


def _ratio_sign(a: int, b: int, c: int, d: int) -> int:
    """The sign (-1, 0 or 1) of a/b - c/d for positive b and d."""
    lhs = a * d
    rhs = c * b
    return (lhs > rhs) - (lhs < rhs)


def _scan_pairs(nums: Sequence[int], dens: Sequence[int]) -> SequenceScan:
    exact = 0
    last_rise = first_fall = -1
    first_violation = None
    # This entry is r + 1.  prev_* hold entry r, its split and the lam and eps
    # of r - 1; prev2_* hold entry r - 1.
    prev_num = prev_den = None
    for r, (num, den) in enumerate(zip(nums, dens), -1):
        if num <= 0 or den <= 0:
            raise ValueError("sequence entries must be positive")
        sn = num.bit_length() - 53
        sd = den.bit_length() - 53
        if sn < 0:
            sn = 0
        if sd < 0:
            sd = 0
        # Both shifted operands are below 2**53, so the quotient is rounded once.
        f = (num >> sn) / (den >> sd)
        e = sn - sd
        if r >= 0:
            ell = math.log(f / prev_f)
            k = e - prev_e
            lam = ell + k * _LN2
            eps = _EPS_UNIT * (1.0 + abs(ell) + abs(k))
            if lam > eps:
                last_rise = r
            elif lam < -eps:
                if first_fall < 0:
                    first_fall = r
            else:
                exact += 1
                sign = _ratio_sign(num, den, prev_num, prev_den)
                if sign > 0:
                    last_rise = r
                elif sign < 0 and first_fall < 0:
                    first_fall = r
            if r and first_violation is None:
                d = prev_lam - lam
                bound = prev_eps + eps
                if d < -bound:
                    first_violation = r
                elif d <= bound:
                    exact += 1
                    if _ratio_sign(prev_num * prev_num, prev_den * prev_den,
                                   prev2_num * num, prev2_den * den) < 0:
                        first_violation = r
            prev_lam = lam
            prev_eps = eps
        prev2_num = prev_num
        prev2_den = prev_den
        prev_num = num
        prev_den = den
        prev_f = f
        prev_e = e

    n = len(nums)
    unimodal = first_fall < 0 or last_rise < first_fall
    if unimodal:
        hi = first_fall if first_fall >= 0 else n - 1
        peak_list = tuple(range(last_rise + 1, hi + 1))
    else:
        best = [0]
        for r in range(1, n):
            exact += 1
            sign = _ratio_sign(nums[r], dens[r], nums[best[0]], dens[best[0]])
            if sign > 0:
                best = [r]
            elif sign == 0:
                best.append(r)
        peak_list = tuple(best)

    return SequenceScan(
        Unimodality(unimodal),
        LogConcavity(first_violation is None, first_violation),
        Peaks(peak_list, len(peak_list) == 1),
        exact,
    )


def scan(seq) -> SequenceScan:
    """Run all structural checks in one pass over the sequence.

    A sequence that is not unimodal takes a second, exact walk for its
    peak set.
    """
    nums, dens = _integer_pairs(seq)
    return _scan_pairs(nums, dens)


def conjectured_center(m: int, a: Fraction | int | str) -> int:
    """floor((a*m + a + 2) / (2*a + 1)), evaluated exactly.

    With a = p/q this is floor((p*(m+1) + 2*q) / (2*p + q)), a single integer
    floor division.  ``a`` is read by ``parse_rational``, so a float raises
    ``TypeError``.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    a = parse_rational(a)
    if a <= 0:
        raise ValueError(f"a must be > 0, got {a}")
    p, q = a.numerator, a.denominator
    return (p * (m + 1) + 2 * q) // (2 * p + q)


def peak_window(m: int, a: Fraction | int | str) -> tuple[int, ...]:
    """{c-1, c, c+1} clamped to [0, m], where c is the conjectured center."""
    c = conjectured_center(m, a)
    return tuple(r for r in (c - 1, c, c + 1) if 0 <= r <= m)


def known_l1_exception(params: SeqParams) -> bool:
    """Whether (m, l, a) is on the known l = 1 exceptional list.

    For l = 1 the peak sits exactly at the conjectured center except for
    m in {3, 2a+4, 4a+5}, plus m = 12 when a = 1.  Membership is tested with
    exact rational equality, so non-integer weights simply never match the
    non-integer entries.  With a = p/q in lowest terms the tests are integer
    equalities, m - 4 = 2a as (m - 4) q = 2p and m - 5 = 4a as (m - 5) q = 4p.
    """
    if params.l != 1:
        return False
    m, a = params.m, params.a
    p, q = a.numerator, a.denominator
    if m == 3 or (m - 4) * q == 2 * p or (m - 5) * q == 4 * p:
        return True
    return a == 1 and m == 12


@dataclass(frozen=True)
class PropertyReport:
    """Everything the conjecture checks have to say about one sequence.

    Built by :meth:`from_scan`, the one place the conjecture's window,
    uniqueness and ``l = 1``-exception rules are applied.
    """

    params: SeqParams
    unimodal: bool
    log_concave: bool
    first_lc_violation: int | None
    peak_set: tuple[int, ...]
    unique_max: bool
    conjectured_center: int
    window_hit: bool
    known_exception: bool

    @classmethod
    def from_scan(cls, params: SeqParams, result: SequenceScan) -> "PropertyReport":
        """The report on ``params`` given the scan of its sequence.

        ``window_hit`` says whether every peak index is within 1 of the
        conjectured center, which, as peaks lie in [0, m], is the peak set
        inside ``peak_window``; ``known_exception`` marks the l = 1
        exceptional list.
        """
        center = conjectured_center(params.m, params.a)
        return cls(
            params=params,
            unimodal=result.unimodality.unimodal,
            log_concave=result.log_concavity.log_concave,
            first_lc_violation=result.log_concavity.first_violation,
            peak_set=result.peaks.indices,
            unique_max=result.peaks.unique,
            conjectured_center=center,
            window_hit=all(abs(i - center) <= 1 for i in result.peaks.indices),
            known_exception=known_l1_exception(params),
        )

    @property
    def peak_rules_apply(self) -> bool:
        """Whether the peak must be unique and in the window: m >= 2 and
        (m, l, a) is not a known l = 1 exception."""
        return self.params.m >= 2 and not self.known_exception

    @property
    def conforms(self) -> bool:
        """Whether the sequence is as conjectured: unimodal and, where the
        peak rules apply, with a unique peak inside the window."""
        if not self.unimodal:
            return False
        return not self.peak_rules_apply or (self.window_hit and self.unique_max)

    def to_json_dict(self) -> dict:
        """Flat JSON form; rationals rendered as 'N/D' strings."""
        return {
            "m": self.params.m,
            "l": self.params.l,
            "a": str(self.params.a),
            "unimodal": self.unimodal,
            "log_concave": self.log_concave,
            "first_lc_violation": self.first_lc_violation,
            "peak_set": list(self.peak_set),
            "unique_max": self.unique_max,
            "conjectured_center": self.conjectured_center,
            "window_hit": self.window_hit,
            "known_exception": self.known_exception,
        }


def conjecture_report(params: SeqParams) -> PropertyReport:
    """Build the sequence of ``params`` and run every conjecture check."""
    return PropertyReport.from_scan(params, scan(full_sequence(params)))
