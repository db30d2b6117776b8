"""Floating-point views of exact results: logs of huge rationals, sandwich
bounds around the central peak, and peak-size ratios against the two
asymptotic laws.

The central (l=2, a=1) sequence has entries
``g(r) = sum_{i<=r} C(m,i)^2 / C(2r,r)`` peaking at ``r_m = floor((m+2)/3)``.
Its peak value g(r_m) is sandwiched by exact rational bounds

    (r+1)/(3r+1) * ((m-r)/(r+1))^2 * C(m,r)^2 / C(2r,r)
        < g(r_m) <
    (4r-2)/(3r-2) * C(m,r)^2 / C(2r,r),          r = r_m,

whose prefactors both tend to 4/3, and asymptotically

    g(r_m) ~ 3^(2m + 1/2) / (2^(2m) * sqrt(pi * m)).

``central_ratio`` measures the exact peak against that law.  For general
(l, a) the conjectured law is

    max ~ sqrt(l / (2*pi*m)) * sqrt(1+2a) * (1+a) * a^((l-2)/2)
          / ((1+a)^l - 1) * ((1+2a) / (1+a))^((m + 1/2) * l)

and ``conjectured_ratio`` measures the exact, measured maximum against it.
For l=2, a=1 the formula reduces algebraically to the central law, so the
two routes must agree to floating-point accuracy.

Peak values overflow ``float`` beyond m of a few hundred, so everything runs
in log space.  ``log_of_rational`` takes the natural log of an arbitrarily
large exact rational in O(bits) time: it splits off the power of two between
the operand sizes, then feeds ``math.log1p`` a correctly-rounded quotient
formed from the top 128 bits of each side — no full-precision big-integer
division, and no catastrophic cancellation near 1 because the difference
p - q is formed exactly first.  Relative error is at most 1e-12 (a few
ulps in practice); the returned bound is conservative.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exact_core import SeqParams, binomial_power_sums, full_sequence
from .property_checks import peak_indices

__all__ = [
    "LogValue",
    "SandwichBounds",
    "RatioResult",
    "TheoryViolation",
    "log_of_rational",
    "sandwich_bounds",
    "central_ratio",
    "conjectured_ratio",
]

_LN2 = math.log(2.0)
_LN3 = math.log(3.0)


class TheoryViolation(ArithmeticError):
    """An exact check that proven theory guarantees has failed."""


class LogValue(NamedTuple):
    """A natural log as a double plus a conservative absolute error bound."""

    value: float
    error: float


def _top_quotient(d: int, q: int) -> float:
    """d / q correctly rounded from the top 128 bits of each operand.

    Cost is O(bits) (shifts only); relative error is at most a few units in
    the last place, since the discarded tails perturb each operand by less
    than 2**-127 relatively.
    """
    if d == 0:
        return 0.0
    neg = d < 0
    if neg:
        d = -d
    sd = max(d.bit_length() - 128, 0)
    sq = max(q.bit_length() - 128, 0)
    quot = math.ldexp((d >> sd) / (q >> sq), sd - sq)
    return -quot if neg else quot


def _log_ratio(p: int, q: int) -> LogValue:
    """log(p / q) for positive integers of any size, in O(bits) time."""
    if p <= 0 or q <= 0:
        raise ValueError("log_of_rational requires a positive rational")
    shift = p.bit_length() - q.bit_length()
    if shift >= 2:
        q <<= shift
    elif shift <= -2:
        p <<= -shift
    else:
        shift = 0
    # Now 1/4 < p/q < 4, so log1p sees an argument in (-3/4, 3).
    value = shift * _LN2 + math.log1p(_top_quotient(p - q, q))
    return LogValue(value, (1.0 + abs(value)) * 1e-14)


def log_of_rational(x: Fraction | int) -> LogValue:
    """Natural log of a positive rational, however large, with error bound.

    The value is accurate to relative error 1e-12 (documented bound; the
    implementation stays within a few ulps).  The ``error`` field is a
    conservative absolute bound.
    """
    if isinstance(x, float):
        raise TypeError("pass an exact rational (Fraction or int), not a float")
    x = Fraction(x) if not isinstance(x, Fraction) else x
    return _log_ratio(x.numerator, x.denominator)


@dataclass(frozen=True)
class SandwichBounds:
    """Exact rational bounds around the central peak value g(r_m)."""

    m: int
    peak_index: int
    lower: Fraction
    value: Fraction
    upper: Fraction

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "peak_index": self.peak_index,
            "lower": str(self.lower),
            "value": str(self.value),
            "upper": str(self.upper),
        }


def _central_peak(m: int) -> tuple[int, int, int]:
    """(r_m, sum_{i<=r_m} C(m,i)^2, C(2 r_m, r_m)) for the central sequence."""
    r = (m + 2) // 3
    total = deque(binomial_power_sums(m, 2, 1, r), maxlen=1).pop()
    return r, total, math.comb(2 * r, r)


def sandwich_bounds(m: int) -> SandwichBounds:
    """Exact sandwich around the central peak; containment is re-verified.

    Violation of the strict containment would contradict proven theory, so
    it raises :class:`TheoryViolation` rather than returning.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    r, total, central = _central_peak(m)
    binom_sq = math.comb(m, r) ** 2
    value = Fraction(total, central)
    lower = (
        Fraction(r + 1, 3 * r + 1)
        * Fraction(m - r, r + 1) ** 2
        * Fraction(binom_sq, central)
    )
    upper = Fraction(4 * r - 2, 3 * r - 2) * Fraction(binom_sq, central)
    if not lower < value < upper:
        raise TheoryViolation(
            f"sandwich containment failed at m={m}: "
            f"{lower} < {value} < {upper} is false"
        )
    return SandwichBounds(m, r, lower, value, upper)


@dataclass(frozen=True)
class RatioResult:
    """Exact peak versus an asymptotic law, computed in log space."""

    m: int
    ratio: float
    log_value: float  # natural log of the exact peak value
    log_error: float  # absolute error bound on log_value

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "ratio": f"{self.ratio:.12g}",
            "log_value": self.log_value,
            "log_error": self.log_error,
        }


def central_ratio(m: int) -> RatioResult:
    """g(r_m) / (3^(2m+1/2) / (2^(2m) sqrt(pi m))) for the central sequence.

    Tends to 1 from below as m grows.  Runs entirely in log space, so it
    stays finite for m far beyond float overflow of the peak itself.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    _, total, central = _central_peak(m)
    log_peak = _log_ratio(total, central)
    log_ratio = (
        log_peak.value
        + 2 * m * _LN2
        + 0.5 * math.log(math.pi * m)
        - (2 * m + 0.5) * _LN3
    )
    return RatioResult(m, math.exp(log_ratio), log_peak.value, log_peak.error)


def conjectured_ratio(params: SeqParams) -> RatioResult:
    """Measured maximum of the (m, l, a) sequence over the conjectured law.

    The maximum is located by exact scan (no assumption on where the peak
    sits); only the final comparison against the law is floating point.
    """
    m, l, a = params.m, params.l, params.a
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    seq = full_sequence(params)
    peak = peak_indices(seq).indices[0]
    log_peak = _log_ratio(seq.numerators[peak], seq.denominators[peak])

    one_plus_a = 1 + a
    one_plus_2a = 1 + 2 * a
    log_1p2a = _log_ratio(one_plus_2a.numerator, one_plus_2a.denominator)
    log_1pa = _log_ratio(one_plus_a.numerator, one_plus_a.denominator)
    log_a = _log_ratio(a.numerator, a.denominator)
    pow_term = one_plus_a**l - 1
    log_pow = _log_ratio(pow_term.numerator, pow_term.denominator)
    log_law = (
        0.5 * math.log(l)
        - 0.5 * math.log(2 * math.pi * m)
        + 0.5 * log_1p2a.value
        + log_1pa.value
        + (l - 2) / 2 * log_a.value
        - log_pow.value
        + (m + 0.5) * l * (log_1p2a.value - log_1pa.value)
    )
    return RatioResult(m, math.exp(log_peak.value - log_law), log_peak.value, log_peak.error)
