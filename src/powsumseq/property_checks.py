"""Exact structural checks on positive rational sequences.

Checks are decided by integer cross-multiplication on numerator/denominator
pairs — no division, no floats, no reduction to lowest terms:

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

Every check accepts either an :class:`~powsumseq.exact_core.ExactSequence`
(whose pre-scaled integer pairs are used as-is) or any iterable of positive
rationals (Fractions or ints).

Adjacent entries are compared through the products P_r = N_{r+1} * D_r and
Q_r = N_r * D_{r+1}: the sign of z_{r+1} - z_r is the sign of P_r - Q_r, and
log-concavity at i reduces to P_{i-1} * Q_i >= P_i * Q_{i-1}, which equals
the textbook cross-multiplied form N_i^2 D_{i-1} D_{i+1} >= N_{i-1} N_{i+1}
D_i^2.  Computing P and Q once serves all three checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_core import ExactSequence, SeqParams, full_sequence

__all__ = [
    "Unimodality",
    "LogConcavity",
    "Peaks",
    "SequenceScan",
    "PropertyReport",
    "scan",
    "check_unimodal",
    "check_log_concave",
    "peak_indices",
    "conjectured_center",
    "peak_window",
    "known_l1_exception",
    "conjecture_report",
]


@dataclass(frozen=True)
class Unimodality:
    """Weak-unimodality verdict; ``plateau`` bounds the maximum run.

    ``plateau`` is the inclusive index range (lo, hi) of the maximum when the
    sequence is unimodal, and None otherwise.
    """

    unimodal: bool
    plateau: tuple[int, int] | None


@dataclass(frozen=True)
class LogConcavity:
    """Log-concavity verdict.

    ``first_violation`` is the least interior index i with
    z_i^2 < z_{i-1} * z_{i+1}, or None when log-concave.  ``strict`` reports
    whether every interior inequality held strictly (diagnostic only).
    """

    log_concave: bool
    first_violation: int | None
    strict: bool


@dataclass(frozen=True)
class Peaks:
    """All argmax indices, ascending, plus a uniqueness flag."""

    indices: tuple[int, ...]
    unique: bool


@dataclass(frozen=True)
class SequenceScan:
    """Combined result of one pass over a sequence."""

    unimodality: Unimodality
    log_concavity: LogConcavity
    peaks: Peaks


def _integer_pairs(seq) -> tuple[list[int], list[int]]:
    """Extract positive (numerator, denominator) pairs from any input form."""
    if isinstance(seq, ExactSequence):
        nums = list(seq.numerators)
        dens = list(seq.denominators)
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
    for n, d in zip(nums, dens):
        if n <= 0 or d <= 0:
            raise ValueError("sequence entries must be positive")
    return nums, dens


def _scan_pairs(nums: list[int], dens: list[int]) -> SequenceScan:
    n = len(nums)
    if n == 1:
        return SequenceScan(
            Unimodality(True, (0, 0)),
            LogConcavity(True, None, True),
            Peaks((0,), True),
        )

    # P[r] vs Q[r] compares z_{r+1} with z_r.
    P = [nums[r + 1] * dens[r] for r in range(n - 1)]
    Q = [nums[r] * dens[r + 1] for r in range(n - 1)]
    signs = [(P[r] > Q[r]) - (P[r] < Q[r]) for r in range(n - 1)]

    fallen = False
    unimodal = True
    for s in signs:
        if s < 0:
            fallen = True
        elif s > 0 and fallen:
            unimodal = False
            break

    first_violation = None
    strict = True
    for i in range(1, n - 1):
        lhs = P[i - 1] * Q[i]
        rhs = P[i] * Q[i - 1]
        if lhs < rhs:
            first_violation = i
            break
        if lhs == rhs:
            strict = False

    if unimodal:
        last_rise = -1
        first_fall = -1
        for r in range(n - 1):
            if signs[r] > 0:
                last_rise = r
            elif signs[r] < 0 and first_fall < 0:
                first_fall = r
        lo = last_rise + 1
        hi = first_fall if first_fall >= 0 else n - 1
        plateau: tuple[int, int] | None = (lo, hi)
        peak_list = tuple(range(lo, hi + 1))
    else:
        plateau = None
        best = [0]
        for r in range(1, n):
            cmp_lhs = nums[r] * dens[best[0]]
            cmp_rhs = nums[best[0]] * dens[r]
            if cmp_lhs > cmp_rhs:
                best = [r]
            elif cmp_lhs == cmp_rhs:
                best.append(r)
        peak_list = tuple(best)

    return SequenceScan(
        Unimodality(unimodal, plateau),
        LogConcavity(first_violation is None, first_violation,
                     strict and first_violation is None),
        Peaks(peak_list, len(peak_list) == 1),
    )


def scan(seq) -> SequenceScan:
    """Run all structural checks in one pass over the sequence."""
    nums, dens = _integer_pairs(seq)
    return _scan_pairs(nums, dens)


def check_unimodal(seq) -> Unimodality:
    """Weak unimodality (rise then fall, ties allowed) with plateau bounds."""
    return scan(seq).unimodality


def check_log_concave(seq) -> LogConcavity:
    """Log-concavity z_i^2 >= z_{i-1} z_{i+1} with first violation index."""
    return scan(seq).log_concavity


def peak_indices(seq) -> Peaks:
    """All indices attaining the maximum, plus whether the max is unique."""
    return scan(seq).peaks


def conjectured_center(m: int, a: Fraction | int | str) -> int:
    """floor((a*m + a + 2) / (2*a + 1)), evaluated exactly.

    With a = p/q this is floor((p*(m+1) + 2*q) / (2*p + q)), a single integer
    floor division.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    a = Fraction(a) if not isinstance(a, Fraction) else a
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
    non-integer entries.
    """
    if params.l != 1:
        return False
    m, a = params.m, params.a
    if m == 3 or m == 2 * a + 4 or m == 4 * a + 5:
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

        ``window_hit`` compares the full peak set against the clamped window
        {c-1, c, c+1}; ``known_exception`` marks the l = 1 exceptional list.
        """
        return cls(
            params=params,
            unimodal=result.unimodality.unimodal,
            log_concave=result.log_concavity.log_concave,
            first_lc_violation=result.log_concavity.first_violation,
            peak_set=result.peaks.indices,
            unique_max=result.peaks.unique,
            conjectured_center=conjectured_center(params.m, params.a),
            window_hit=set(result.peaks.indices) <= set(peak_window(params.m, params.a)),
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
