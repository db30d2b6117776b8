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
costs one new term per step.  That term comes by one of two rules, chosen
by m: below m = 400 the step powers w_r = C(m, r) * p**r, and from m = 400
on it multiplies the last term by its exact term ratio ((m-r+1) p / r)**l
(see ``binomial_power_sums``); for integer a the factor q**l is 1 and the
step skips it.  The denominators do not depend on ``m`` at all, which lets
parameter sweeps compute them once per ``(l, a)`` and reuse them across
every ``m``.  Property checkers compare entries through the integer pairs
``(N_r, D_r)``: a float filter on their mantissas, and cross-multiplication
where the filter cannot decide; reduced ``Fraction`` entries are
materialised only on demand.

Row sums by certified recurrences.  Summed term by term, D_0..D_n cost
Theta(n**2) big-integer terms.  For l <= 3, ``scaled_row_sums`` instead
steps a linear recurrence of order J from the table ``_ROW_RECURRENCES``.
With ``P = p**l`` and ``Q = q**l`` it reads ``sum_{j=0}^{J} c_j(r) D_{r+j} = 0``,
where each c_j is a polynomial in r times forms in P, Q homogeneous of
degree J - j:

    l = 1:  D_{r+1} = (P+Q) D_r
    l = 2:  (r+2) D_{r+2} = (2r+3)(P+Q) D_{r+1} - (r+1)(Q-P)^2 D_r
    l = 3:  (r+3)^2 (3r+4) D_{r+3} = (P+Q)(9r^3+57r^2+116r+74) D_{r+2}
                - (3r+5)[(3r^2+11r+9)(P^2+Q^2) - (21r^2+77r+66)PQ] D_{r+1}
                + (r+1)^2 (3r+7)(P+Q)^3 D_r

At p = q the (Q-P)^2 term vanishes and l = 2 gives the central binomial
coefficients C(2r, r); l = 1 is the binomial theorem, D_r = (p+q)**r.

Each recurrence is proved by creative telescoping (Zeilberger; Petkovsek,
Wilf and Zeilberger, "A = B", 1996).  Put x = P/Q, F(r, k) = C(r, k)**l x**k
and S_r = sum_k F(r, k) = D_r / Q**r.  Dividing c_j by Q**(J-j) makes it a
polynomial c_j(r, x), and a certificate

    G(r, k) = R(r, k, x) * C(r+J-1, k-1)**l * x**k,

with R a polynomial in k and x whose coefficients are rational in r and
have no pole at r >= 0, satisfies

    sum_j c_j(r, x) F(r+j, k) = G(r, k+1) - G(r, k)    for 0 <= k <= r+J.

Divided by C(r+J, k)**l x**k, which is nonzero there, both sides are
rational functions of (r, k, x): F(r+j, k) becomes
(ff(r+J-k, J-j) / ff(r+J, J-j))**l with ff the falling factorial, G(r, k)
becomes R(r, k, x) (k / (r+J))**l and G(r, k+1) becomes
x R(r, k+1, x) ((r+J-k) / (r+J))**l.  With denominators cleared this is a
polynomial identity, which the tests check on a grid larger than its degree
in each variable.  Summing it over k = 0..r+J, the left side is
sum_j c_j S_{r+j}, because F(r+j, k) = 0 for k > r+j; the right side
telescopes to G(r, r+J+1) - G(r, 0) = 0, because C(r+J-1, r+J) and
C(r+J-1, -1) vanish.  Multiplying by Q**(r+J) gives the recurrence for the
D_r.  Its leading coefficient has no root at r >= 0, so it determines every
D_r from D_0..D_{J-1}, and each step is an exact integer division, which
the code checks.

For l >= 4 no recurrence is certified here, and each D_r is still summed
term by term.  That direct route is also the test oracle for the
recurrences.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat

__all__ = [
    "SeqParams",
    "ExactSequence",
    "parse_rational",
    "weighted_power_sum",
    "binomial_power_sums",
    "scaled_prefix_sums",
    "scaled_row_sums",
    "sequence_entry",
    "full_sequence",
    "central_binomial_sequence",
]


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational from ``"p/q"``, an integer or a decimal string.

    Accepts e.g. ``"3"``, ``"2/5"``, ``"0.25"`` (decimals are exact: 0.1
    becomes 1/10).  Floats are rejected: binary floats do not represent the
    intended decimal exactly, so callers must pass a string instead.  A
    ``Fraction`` (not a subclass) is immutable, so it is returned as is.
    """
    if type(text) is Fraction:
        return text
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

    m, l and a are checked as ``SeqParams`` checks them, and 0 <= r <= m is
    required.  Built incrementally, one new term per index, over the
    denominator-cleared integers described in the module docstring.
    """
    a = SeqParams(m, l, a).a
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


# Smallest n whose terms ``binomial_power_sums`` steps by their term ratio.
# Best-of-N timings of the whole generator, ratio step against powering w
# (2-core x86-64, Python 3.11.7): 0.60-1.12x at n = 100 (slower at high l,
# where dividing by a multi-digit i**l costs more than powering a short w),
# 0.92-2.2x at n = 400 and 2.1-6.3x at n = 2000.
_RATIO_STEP_MIN_N = 400


def binomial_power_sums(n: int, l: int, a: Fraction | int | str, r_max: int) -> Iterator[int]:
    """Yield sum_{i<=r} C(n, i)**l * p**(i*l) * q**((r-i)*l) for r = 0..r_max.

    ``a = p/q`` in lowest terms.  These are the scaled prefix sums of the
    module docstring, one new term per step; with a = 1 they are the plain
    sums of C(n, i)**l.  It returns a generator, so callers that need only
    the last sum hold one big integer at a time.  When q = 1, that is for
    every integer weight a, each step skips the multiplication by q**l.

    Each new term t_i = (C(n, i) * p**i)**l comes by one of two rules,
    chosen by n.  For n < ``_RATIO_STEP_MIN_N`` the loop steps
    w_i = C(n, i) * p**i and powers it, t_i = w_i**l.  From there on it
    steps t_i itself by its term ratio ((n-i+1) p / i)**l, one product and
    one division by the small integer i**l, which saves the big-integer
    power of a long w.  The division is exact:
    t_{i-1} * ((n-i+1) p)**l = (C(n, i-1) (n-i+1) p**i)**l
    = (C(n, i) * i * p**i)**l = t_i * i**l.

    n, l and a are checked as ``SeqParams`` checks them, and r_max >= 0,
    at the call rather than at the first ``next``.  r_max > n is allowed.
    """
    a = SeqParams(n, l, a).a
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    return _binomial_power_sums(n, l, a, r_max)


def _binomial_power_sums(n: int, l: int, a: Fraction, r_max: int) -> Iterator[int]:
    """``binomial_power_sums`` without its argument checks."""
    p, q = a.numerator, a.denominator
    acc = 1
    yield acc
    ql = q**l
    if n < _RATIO_STEP_MIN_N:
        w = 1  # w = C(n, i) * p**i; each division by i below is exact
        for i in range(1, r_max + 1):
            w = w * ((n - i + 1) * p) // i
            if q != 1:
                acc *= ql
            acc += w**l
            yield acc
        return
    t = 1  # t = (C(n, i) * p**i)**l; each division by i**l below is exact
    for i in range(1, r_max + 1):
        t = t * ((n - i + 1) * p) ** l // i**l
        if q != 1:
            acc *= ql
        acc += t
        yield acc


def scaled_prefix_sums(m: int, l: int, a: Fraction) -> list[int]:
    """Numerators N_r for r = 0..m (see module docstring), one term per step.

    N_r equals P(m, r) * a.denominator**(r*l); these integers share their
    scaling with ``scaled_row_sums`` so N_r / D_r is the sequence entry.
    m, l and a are checked as ``binomial_power_sums`` checks n, l and a.
    """
    return list(binomial_power_sums(m, l, a, m))


# Certified recurrences for the row sums, keyed by l.  An entry
# (lead, shifts) of order J = len(shifts) reads
#
#     lead(r) * D_{r+J} = sum_{j<J} sum_{(u, f) in shifts[j]} u(r) * f(P, Q) * D_{r+j}
#
# with P = p**l and Q = q**l.  A polynomial u in r lists its coefficients from
# the constant term up; a form f = (f_0, ..., f_d) in P, Q stands for
# sum_i f_i * P**i * Q**(d-i) and is homogeneous of degree d = J - j.  The
# module docstring gives the proof; the certificates are checked in the tests.
_ROW_RECURRENCES = {
    # D_{r+1} = (P + Q) D_r
    1: ((1,), (
        (((1,), (1, 1)),),
    )),
    # (r+2) D_{r+2} = (2r+3)(P+Q) D_{r+1} - (r+1)(Q-P)^2 D_r
    2: ((2, 1), (
        (((-1, -1), (1, -2, 1)),),
        (((3, 2), (1, 1)),),
    )),
    # (r+3)^2 (3r+4) D_{r+3} = (P+Q)(9r^3+57r^2+116r+74) D_{r+2}
    #     - (3r+5)[(3r^2+11r+9)(P^2+Q^2) - (21r^2+77r+66)PQ] D_{r+1}
    #     + (r+1)^2 (3r+7)(P+Q)^3 D_r
    3: ((36, 51, 22, 3), (
        (((7, 17, 13, 3), (1, 3, 3, 1)),),
        (((-45, -82, -48, -9), (1, 0, 1)), ((330, 583, 336, 63), (0, 1, 0))),
        (((74, 116, 57, 9), (1, 1)),),
    )),
}


def _poly_values(coeffs: Sequence[int]) -> Iterator[int]:
    """The polynomial with these coefficients (constant term first) at r = 0, 1, 2, ...

    Computed as repeated prefix sums of its forward differences at r = 0,
    one C-level ``accumulate`` per degree instead of a Horner loop per r.
    """
    values = [sum(c * r**i for i, c in enumerate(coeffs)) for r in range(len(coeffs))]
    diffs = []
    while values:
        diffs.append(values[0])
        values = [y - x for x, y in zip(values, values[1:])]
    column = repeat(0)
    for diff in reversed(diffs):
        column = accumulate(column, initial=diff)
    return column


def _direct_row_sum(l: int, a: Fraction, r: int) -> int:
    """D_r as the r + 1 terms of ``binomial_power_sums``; the caller checks l and a."""
    return deque(_binomial_power_sums(r, l, a, r), maxlen=1).pop()


def _inexact_step(l: int, a: Fraction, r: int) -> ArithmeticError:
    return ArithmeticError(f"row-sum recurrence for l={l}, a={a} is not exact at r={r}")


def scaled_row_sums(l: int, a: Fraction, r_max: int) -> list[int]:
    """Denominators D_r = P(r, r) * a.denominator**(r*l) for r = 0..r_max.

    Independent of m, so sweeps compute this list once per (l, a).  For
    l <= 3 the row comes from the certified recurrence of order J in
    ``_ROW_RECURRENCES`` (see the module docstring): D_0..D_{J-1} are summed
    directly, and every later D_r is the exact quotient of an integer
    right-hand side by the leading coefficient, a few big-integer
    operations per index.  A shift whose coefficient vanishes for this a,
    such as the (Q - P)**2 term of l = 2 at a = 1, is dropped once per
    call.  Two guards against a wrong table raise ``ArithmeticError``
    naming l, a and the index r: a nonzero remainder, and a first stepped
    value D_J that differs from its direct sum of J + 1 terms.  The second
    catches wrong entries that keep every quotient integral, which the
    small leading coefficients of l = 1 and l = 2 allow.  For l >= 4 every
    D_r is summed directly, r + 1 terms each, so the row costs
    Theta(r_max**2) big-integer terms.  r_max, l and a are checked first,
    as ``SeqParams`` checks m, l and a.
    """
    a = SeqParams(r_max, l, a).a
    entry = _ROW_RECURRENCES.get(l)
    if entry is None:
        return [_direct_row_sum(l, a, r) for r in range(r_max + 1)]
    lead, shifts = entry
    order = len(shifts)
    n = max(r_max + 1 - order, 0)  # steps; the recurrence gives D_{r+J} at step r
    big_p, big_q = a.numerator**l, a.denominator**l
    columns = []  # (j, coefficient of D_{r+j} at steps r = 0, 1, ...)
    for j, terms in enumerate(shifts):
        coeffs = [0] * max(len(u) for u, _ in terms)
        for u, form in terms:
            d = len(form) - 1
            f = sum(c * big_p**i * big_q ** (d - i) for i, c in enumerate(form))
            for i, c in enumerate(u):
                coeffs[i] += f * c
        if any(coeffs):
            columns.append((j, _poly_values(coeffs)))
    out = [_direct_row_sum(l, a, r) for r in range(min(order, r_max + 1))]
    leads = islice(_poly_values(lead), n)
    if [j for j, _ in columns] == [order - 1]:
        # Only D_{r+J-1} has a nonzero coefficient (l = 1, and l = 2 at
        # a = 1), so each step scales the last row.  On these rows the
        # general loop below is about 1.3x slower than this one, which
        # stays within about 15 % of the closed forms (p + q)**r and
        # C(2r, r) it replaces.
        for den, c in zip(leads, columns[0][1]):
            row, remainder = divmod(c * out[-1], den)
            if remainder:
                raise _inexact_step(l, a, len(out))
            out.append(row)
    else:
        (j0, first), *rest = [(j, list(islice(values, n))) for j, values in columns]
        for r, den in enumerate(leads):
            rhs = first[r] * out[r + j0]
            for j, column in rest:
                rhs += column[r] * out[r + j]
            row, remainder = divmod(rhs, den)
            if remainder:
                raise _inexact_step(l, a, len(out))
            out.append(row)
    if n and out[order] != _direct_row_sum(l, a, order):
        raise ArithmeticError(
            f"row-sum recurrence for l={l}, a={a} disagrees with the direct sum at r={order}"
        )
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

    Numerators are built with one new term per index; denominators come
    from ``scaled_row_sums``, by recurrence for l <= 3.
    """
    nums = scaled_prefix_sums(params.m, params.l, params.a)
    dens = scaled_row_sums(params.l, params.a, params.m)
    return ExactSequence(params, tuple(nums), tuple(dens))


def central_binomial_sequence(m: int) -> ExactSequence:
    """The (l=2, a=1) sequence: prefix sums of C(m, i)^2 over C(2r, r)."""
    return full_sequence(SeqParams(m, 2, Fraction(1)))
