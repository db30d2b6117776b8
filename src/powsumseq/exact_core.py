"""Exact construction of weighted binomial power-sum ratio sequences.

For integer parameters ``m >= 0``, ``l >= 1`` and a positive rational weight
``a``, the sequence studied by this package has the ``m + 1`` entries

    s(r) = P(m, r) / P(r, r),    r = 0, 1, ..., m,

where

    P(t, r) = sum_{i=0}^{r} (C(t, i) * a**i) ** l

and ``C`` is the binomial coefficient.  Both endpoints equal 1 (the r = 0
terms are 1, and P(m, m) = P(m, m)).  Everything here is integer or rational
arithmetic; nothing is ever rounded.

Writing ``a = p/q`` in lowest terms, both sums in ``s(r)`` carry the common
denominator ``q**(r*l)``, so the entry is a ratio of the scaled integers

    N_r = sum_{i<=r} C(m, i)**l * p**(i*l) * q**((r-i)*l)
    D_r = sum_{i<=r} C(r, i)**l * p**(i*l) * q**((r-i)*l)

and ``s(r) = N_r / D_r`` exactly.  The numerators satisfy the one-term
extension ``N_r = N_{r-1} * q**l + C(m, r)**l * p**(r*l)``, so a full row
costs one new term per step.  The denominators do not depend on ``m`` at
all, which lets parameter sweeps compute them once per ``(l, a)`` and reuse
them across every ``m``.  Property checkers compare entries through the
integer pairs ``(N_r, D_r)``: a float filter on their mantissas, and
cross-multiplication where the filter cannot decide; reduced ``Fraction``
entries are materialised only on demand.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

__all__ = [
    "SeqParams",
    "ExactSequence",
    "binomial",
    "parse_rational",
    "weighted_power_sum",
    "binomial_power_sums",
    "scaled_prefix_sums",
    "scaled_row_sums",
    "sequence_entry",
    "full_sequence",
    "central_binomial_sequence",
]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with C(n, k) = 0 for k < 0 or k > n.

    Requires n >= 0.  Thin wrapper over ``math.comb`` that keeps the
    out-of-range convention used throughout the sums here.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational from ``"p/q"``, an integer or a decimal string.

    Accepts e.g. ``"3"``, ``"2/5"``, ``"0.25"`` (decimals are exact: 0.1
    becomes 1/10).  Floats are rejected: binary floats do not represent the
    intended decimal exactly, so callers must pass a string instead.
    """
    if isinstance(text, float):
        raise TypeError(
            "refusing to convert a float to an exact rational; "
            "pass a string like '0.25' or '1/4' instead"
        )
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a valid rational: {text!r}") from exc
    return value


@dataclass(frozen=True)
class SeqParams:
    """Parameters (m, l, a) of one sequence.

    ``m``: final index of the sequence (entries r = 0..m), m >= 0.
    ``l``: integer power applied to each weighted binomial term, l >= 1.
    ``a``: positive rational weight.  Strings, ints and Fractions are
    accepted and normalised to ``Fraction``; floats are rejected as inexact.
    """

    m: int
    l: int
    a: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", parse_rational(self.a))
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise TypeError(f"m must be an int, got {self.m!r}")
        if not isinstance(self.l, int) or isinstance(self.l, bool):
            raise TypeError(f"l must be an int, got {self.l!r}")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.l < 1:
            raise ValueError(f"l must be >= 1, got {self.l}")
        if self.a <= 0:
            raise ValueError(f"a must be > 0, got {self.a}")

    def label(self) -> str:
        return f"(m={self.m}, l={self.l}, a={self.a})"


def weighted_power_sum(m: int, l: int, a: Fraction | int | str, r: int) -> Fraction:
    """P(m, r) = sum_{i=0}^{r} (C(m, i) * a**i) ** l, exactly.

    Requires 0 <= r <= m.  Built incrementally, one new term per index, over
    the denominator-cleared integers described in the module docstring.
    """
    a = parse_rational(a)
    if a <= 0:
        raise ValueError(f"a must be > 0, got {a}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if r < 0 or r > m:
        raise ValueError(f"r must satisfy 0 <= r <= m={m}, got {r}")
    p, q = a.numerator, a.denominator
    ql = q**l
    total = 1  # i = 0 term
    coeff = 1  # C(m, i)
    p_pow = 1  # p**(i*l)
    for i in range(1, r + 1):
        coeff = coeff * (m - i + 1) // i
        p_pow *= p**l
        total = total * ql + coeff**l * p_pow
    return Fraction(total, q ** (r * l))


def binomial_power_sums(n: int, l: int, a: Fraction | int, r_max: int) -> Iterator[int]:
    """Yield sum_{i<=r} C(n, i)**l * p**(i*l) * q**((r-i)*l) for r = 0..r_max.

    ``a = p/q`` in lowest terms.  These are the scaled prefix sums of the
    module docstring, one new term per step; with a = 1 they are the plain
    sums of C(n, i)**l.  A generator, so callers that need only the last sum
    hold one big integer at a time.  With a = 1 the loop skips the
    multiplications by p and q**l.
    """
    p, q = a.numerator, a.denominator
    w = acc = 1  # w = C(n, i) * p**i; each division by i below is exact
    yield acc
    if p == q == 1:
        for i in range(1, r_max + 1):
            w = w * (n - i + 1) // i
            acc += w**l
            yield acc
        return
    ql = q**l
    for i in range(1, r_max + 1):
        w = w * ((n - i + 1) * p) // i
        acc = acc * ql + w**l
        yield acc


def scaled_prefix_sums(m: int, l: int, a: Fraction) -> list[int]:
    """Numerators N_r for r = 0..m (see module docstring), one term per step.

    N_r equals P(m, r) * a.denominator**(r*l); these integers share their
    scaling with ``scaled_row_sums`` so N_r / D_r is the sequence entry.
    """
    return list(binomial_power_sums(m, l, a, m))


def scaled_row_sums(l: int, a: Fraction, r_max: int) -> list[int]:
    """Denominators D_r = P(r, r) * a.denominator**(r*l) for r = 0..r_max.

    Independent of m, so sweeps compute this list once per (l, a).  Two
    closed forms avoid the quadratic term count of the general row loop:
    l = 1 gives D_r = (p + q)**r by the binomial theorem, and l = 2 with
    a = 1 gives the central binomial coefficients D_r = C(2r, r).
    """
    p, q = a.numerator, a.denominator
    out = [1] * (r_max + 1)
    if l == 1:
        for r in range(1, r_max + 1):
            out[r] = out[r - 1] * (p + q)
    elif l == 2 and p == q == 1:
        for r in range(r_max):
            out[r + 1] = out[r] * (2 * (2 * r + 1)) // (r + 1)
    else:
        for r in range(1, r_max + 1):
            out[r] = deque(binomial_power_sums(r, l, a, r), maxlen=1).pop()
    return out


@dataclass(frozen=True)
class ExactSequence:
    """One fully materialised sequence: scaled integer pairs plus params.

    ``numerators[r] / denominators[r]`` is the exact entry s(r); both carry
    the same power of a's denominator, so the pairs can be compared across r
    by integer cross-multiplication without any reduction.
    """

    params: SeqParams
    numerators: tuple[int, ...]
    denominators: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.params.m + 1
        if len(self.numerators) != n or len(self.denominators) != n:
            raise ValueError(
                f"expected {n} numerators and denominators for m={self.params.m}, "
                f"got {len(self.numerators)} and {len(self.denominators)}"
            )

    def __len__(self) -> int:
        return len(self.numerators)

    @cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """All entries as reduced Fractions (computed once, then cached)."""
        return tuple(
            Fraction(n, d) for n, d in zip(self.numerators, self.denominators)
        )

    def entry(self, r: int) -> Fraction:
        if r < 0 or r >= len(self.numerators):
            raise ValueError(f"r must satisfy 0 <= r <= {len(self.numerators) - 1}")
        return Fraction(self.numerators[r], self.denominators[r])


def sequence_entry(params: SeqParams, r: int) -> Fraction:
    """The single entry s(r) = P(m, r) / P(r, r) for the given parameters."""
    if r < 0 or r > params.m:
        raise ValueError(f"r must satisfy 0 <= r <= m={params.m}, got {r}")
    num = weighted_power_sum(params.m, params.l, params.a, r)
    den = weighted_power_sum(r, params.l, params.a, r)
    return num / den


def full_sequence(params: SeqParams) -> ExactSequence:
    """All entries s(0..m) as an ExactSequence.

    Numerators are built with one new term per index; denominators use the
    closed forms in ``scaled_row_sums`` when available.
    """
    nums = scaled_prefix_sums(params.m, params.l, params.a)
    dens = scaled_row_sums(params.l, params.a, params.m)
    return ExactSequence(params, tuple(nums), tuple(dens))


def central_binomial_sequence(m: int) -> ExactSequence:
    """The (l=2, a=1) sequence: prefix sums of C(m, i)^2 over C(2r, r)."""
    return full_sequence(SeqParams(m, 2, Fraction(1)))
