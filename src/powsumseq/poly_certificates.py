"""Integer-polynomial certificates for the central (l=2, a=1) peak step.

The strict fall of the central squared-binomial sequence just past its peak
reduces, for m = 3q, to the target inequality

    (3q+1) * sum_{i=0}^{q} C(3q, i)^2  >  (q+1) * C(3q, q+1)^2.        (goal)

This module builds the two coupled polynomial families that certify it:

    X_0 = t + 1,   Y_0 = 1,
    Y_{n+1}(t) = (t + 1 - n)^2 * Y_n(t),
    X_{n+1}(t) = (2t + n)^2 * X_n(t) - (3t + 1) * Y_{n+1}(t).

X_n is monic of degree 2n+1 and Y_n is monic of degree 2n.  Writing

    X_n(t) = t^(2n+1) - sum_{i=0}^{2n} a(n,i) t^i,
    Y_n(t) = sum_{i=0}^{2n} b(n,i) t^i,

the same families satisfy scalar recurrences on the coefficient tables

    b(n+1,j) = b(n,j-2) - (2n-2) b(n,j-1) + (n-1)^2 b(n,j),
    a(n+1,j) = 4 a(n,j-2) + 4n a(n,j-1) + n^2 a(n,j) + 3 b(n+1,j-1) + b(n+1,j);

with the monic entry a(n,2n+1) = -1 and zero outside each row, one formula
per table covers every index, the leading ones included.  ``build_cert_table``
constructs every polynomial through *both* routes — polynomial algebra and
the scalar recurrences — and insists they agree coefficient by coefficient;
disagreement raises :class:`CertificateError`.

The verification entry points then check:

* closed forms for the edge coefficients of both tables
  (``verify_closed_forms``),
* the domination inequality a(n,j) >= |b(n,j-2)| + 2n|b(n,j-1)| + n^2|b(n,j)|
  for n >= 2, which in particular forces a(n,j) >= 0
  (``verify_domination_bound``),
* the sign certificate X_{q+1}(q) < 0 with Y_{q+1}(q) > 0
  (``verify_sign_certificate``),
* the equivalence chain linking the sign certificate back to the goal: for
  k = q+1 down to 0 the statements

      (3q+1) * S(q-k) * Y_k(q)  >  X_k(q) * C(3q, q+1-k)^2,
      S(j) = sum_{i=0}^{j} C(3q, i)^2,  S(-1) = 0,

  all share one truth value, and the k = 0 instance is literally the goal
  because X_0(q) = q + 1 and Y_0(q) = 1 (``verify_equivalence_chain``),
* the rising side of the peak: (3r-2) * S(j-1) < r * C(m,j)^2 for
  1 <= j <= r = floor((m+2)/3), over prefix sums of C(m,i)^2
  (``verify_left_peak_inequality``),
* the falling side: the goal itself together with its descent variants for
  m = 3q-1 and m = 3q-2, which share r_m = q
  (``verify_right_peak_inequality``).

Every verdict is exact.  The table checks and the sign certificate are
integer arithmetic throughout.  The other three families decide most
comparisons without forming the big products:

* Chain links by sign.  With f = 3q+1 > 0 and Y_k(q) > 0 (checked), the
  link f*s*y > x*c has sign(lhs) = sign(s) and sign(rhs) = sign(x)*sign(c).
  Where the two signs differ they decide the link; X_k(q) <= 0 on most
  links, so only links with equal signs are cross-multiplied.
* Peak inequalities by a certified float walk.  Both compare
  T_j = S(j-1) / C(m,j)^2 with a small rational: the left check is
  (3r-2) T_j < r and the right check is (3q+1) T_{q+1} > q+1.  From
  C(m,j+1) / C(m,j) = (m-j)/(j+1),

      T_0 = 0,   T_{j+1} = (T_j + 1) * ((j+1) / (m-j))^2,

  ``_ratio_walk`` steps this recurrence in floats; every term is positive
  and, at the indices the checks ask for, of moderate size (see below).

Error bound of the walk, with u = 2**-53, every rounding to nearest and
every operand positive.  One step rounds four times: the correctly rounded
int / int quotient, its square, the add and the multiply.  The quotient
enters squared, so its rounding counts twice.  Adding the exact 1 to a
positive t cannot raise the relative error that t carries, since
|t - T| / (T + 1) <= |t - T| / T.  So each step multiplies the relative
error factor by at most (1 + u)**5 and at least (1 - u)**5, and T_0 = 0 is
exact, which gives

    |t_j - T_j| <= g T_j,   g = gamma_{5j} = 5ju / (1 - 5ju)

(Higham, Accuracy and Stability of Numerical Algorithms, 2002, Lemma 3.1).
As T_j <= t_j / (1 - g), |t_j - T_j| <= 5ju / (1 - 10ju) t_j, which is below
5.3 ju t_j for j < 2**45.  The walk reports

    err_j = fl(j * 2**-50 * t_j) >= 7.99 ju t_j,

half again the bound, so that err_j also covers the last rounding below.
No step overflows or underflows: each caller stops at a j_max with
m <= 3 j_max + 2, so T_j >= T_1 = 1/m^2, and C(m,i) <= C(m,j) for
i < j <= (m+1)/2 keeps T_j below j at every index it asks for except a
few with m <= 4.

A caller compares c*T_j with an integer n, where c = 3r-2 or 3q+1 and n
are integers below 2**53 and hence exact floats.  The computed
d = fl(fl(c t_j) - n) differs from c T_j - n by at most u c t_j + c |t_j - T_j|,
which is below 0.8 c err_j, before the subtraction's own relative rounding.
The walk only certifies.  The left check skips index j when d < -2 c err_j
and the right check skips m when d > 2 c err_j, twice the error bound on the
side where the inequality holds.  Every other index, which includes every
exact tie, every near-tie and every index where d says the inequality fails,
goes to ``_exact_sign``: it reads S(j-1) and S(j) from its own
``binomial_power_sums(m, 2, 1, j)`` stream and returns the exact sign of
c S(j-1) - n C(m,j)^2.  So a failure is always confirmed exactly, an index the
walk leaves to it costs its own j + 1 terms, and the same products are the
test oracle.  The right family's m = 1 instance (q = 1, C(1, 2) = 0) always
goes exact.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count, islice

from .exact_core import binomial_power_sums

__all__ = [
    "IntPoly",
    "CertTable",
    "Verdict",
    "CertificateReport",
    "CertificateError",
    "build_cert_table",
    "verify_closed_forms",
    "verify_domination_bound",
    "verify_sign_certificate",
    "verify_equivalence_chain",
    "verify_left_peak_inequality",
    "verify_right_peak_inequality",
    "run_all",
    "run_battery",
    "check_battery_bounds",
    "dump_polynomials",
]

# 2**-50 = 8u: the per-step factor of err_j in _ratio_walk (module docstring).
_ERR_UNIT = math.ldexp(1.0, -50)


class CertificateError(Exception):
    """Raised when the two construction routes disagree (internal error)."""


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; ``coeffs[i]`` is the coefficient of t**i.

    Trailing (high-degree) zeros are stripped on construction, so the last
    coefficient is nonzero except for the zero polynomial, stored as (0,).
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        trimmed = list(self.coeffs)
        while len(trimmed) > 1 and trimmed[-1] == 0:
            trimmed.pop()
        if not trimmed:
            trimmed = [0]
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(tuple(out))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(tuple(out))


@dataclass(frozen=True)
class CertTable:
    """Certificate polynomials X_n, Y_n for n = 0..n_max.

    ``x_polys[n]`` and ``y_polys[n]`` are the polynomials.  ``a(n, j)`` and
    ``b(n, j)`` read the coefficient tables off them: a(n,j) = -[t^j] X_n and
    b(n,j) = [t^j] Y_n, with b(n,-2) = b(n,-1) = 0 so the domination
    inequality can index below zero.
    """

    n_max: int
    x_polys: tuple[IntPoly, ...]
    y_polys: tuple[IntPoly, ...]

    def a(self, n: int, j: int) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in [0, {self.n_max}], got {n}")
        if not 0 <= j <= 2 * n:
            raise ValueError(f"j must be in [0, {2 * n}] for n={n}, got {j}")
        return -self.x_polys[n].coeffs[j]

    def b(self, n: int, j: int) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in [0, {self.n_max}], got {n}")
        if not -2 <= j <= 2 * n:
            raise ValueError(f"j must be in [-2, {2 * n}] for n={n}, got {j}")
        return self.y_polys[n].coeffs[j] if j >= 0 else 0


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verification: pass/fail, how much was checked, where
    the first failure (if any) happened."""

    name: str
    passed: bool
    checked: int
    first_failure: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "first_failure": self.first_failure,
        }


def _scalar_b_rows(n_max: int) -> list[list[int]]:
    """b(n, 0..2n) via the scalar recurrence."""
    rows = [[1]]  # Y_0 = 1
    for n in range(n_max):
        prev, shift, sq = rows[n], 2 * n - 2, (n - 1) * (n - 1)
        # b(n, j-2), b(n, j-1) and b(n, j) for j = 0..2n+2, zero outside row n.
        rows.append([
            back2 - shift * back1 + sq * same
            for back2, back1, same in zip([0, 0, *prev], [0, *prev, 0], [*prev, 0, 0])
        ])
    return rows


def _scalar_a_rows(n_max: int, b_table: list[list[int]]) -> list[list[int]]:
    """a(n, 0..2n+1), ending in the monic -1, via the scalar recurrence."""
    rows = [[-1, -1]]  # X_0 = t + 1
    for n in range(n_max):
        prev, nxt_b = rows[n], b_table[n + 1]
        # The same shifts for j = 0..2n+3, of row n of a and row n+1 of b.
        rows.append([
            n * n * same + 4 * n * back1 + 4 * back2 + b_same + 3 * b_back1
            for back2, back1, same, b_back1, b_same in zip(
                [0, 0, *prev], [0, *prev, 0], [*prev, 0, 0], [0, *nxt_b], [*nxt_b, 0]
            )
        ])
    return rows


def build_cert_table(n_max: int) -> CertTable:
    """Construct X_n, Y_n for n = 0..n_max through both routes and cross-check.

    Route one multiplies polynomials per the defining recurrence; route two
    runs the scalar coefficient recurrences.  Any mismatch, or a degree or
    leading-coefficient defect, raises :class:`CertificateError`.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")

    x_polys = [IntPoly((1, 1))]
    y_polys = [IntPoly((1,))]
    for n in range(n_max):
        y_next = IntPoly(((1 - n) * (1 - n), 2 * (1 - n), 1)) * y_polys[n]
        x_next = IntPoly((n * n, 4 * n, 4)) * x_polys[n] - IntPoly((1, 3)) * y_next
        y_polys.append(y_next)
        x_polys.append(x_next)

    b_scalar = _scalar_b_rows(n_max)
    a_scalar = _scalar_a_rows(n_max, b_scalar)

    for n in range(n_max + 1):
        xp, yp = x_polys[n], y_polys[n]
        if xp.degree != 2 * n + 1 or not xp.monic:
            raise CertificateError(f"X_{n} is not monic of degree {2 * n + 1}")
        if yp.degree != 2 * n or not yp.monic:
            raise CertificateError(f"Y_{n} is not monic of degree {2 * n}")
        if xp.coeffs != tuple(-c for c in a_scalar[n]):
            raise CertificateError(f"X_{n}: polynomial route and scalar route disagree")
        if yp.coeffs != tuple(b_scalar[n]):
            raise CertificateError(f"Y_{n}: polynomial route and scalar route disagree")

    return CertTable(n_max=n_max, x_polys=tuple(x_polys), y_polys=tuple(y_polys))


def _closed_form_specs():
    """(name, first n, table reader, formula) for each edge closed form."""
    fact_sq = lambda k: math.factorial(k) ** 2  # noqa: E731

    def harmonic(k: int) -> Fraction:
        return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))

    return [
        ("b[n,2n-1]", 1, lambda t, n: t.b(n, 2 * n - 1),
         lambda n: Fraction(3 * n - n * n)),
        ("b[n,2n-2]", 1, lambda t, n: t.b(n, 2 * n - 2),
         lambda n: Fraction(n * (3 * n**3 - 20 * n**2 + 36 * n - 13), 6)),
        ("b[n,2n-3]", 2, lambda t, n: t.b(n, 2 * n - 3),
         lambda n: Fraction(-n * (n - 1) * (n - 2) * (n - 3) * (n * n - 5 * n + 2), 6)),
        ("b[n,2]", 2, lambda t, n: t.b(n, 2),
         lambda n: Fraction(fact_sq(n - 2))),
        ("b[n,1]", 2, lambda t, n: t.b(n, 1), lambda n: Fraction(0)),
        ("b[n,0]", 2, lambda t, n: t.b(n, 0), lambda n: Fraction(0)),
        ("a[n,2n]", 1, lambda t, n: t.a(n, 2 * n),
         lambda n: n * n + n + Fraction(2 ** (2 * n + 1) - 5, 3)),
        ("a[n,2n-1]", 1, lambda t, n: t.a(n, 2 * n - 1),
         lambda n: (Fraction((3 * n * n - 3 * n + 29) * 4**n, 9)
                    - Fraction(9 * n**4 + 12 * n**3 + 24 * n**2 + 39 * n + 58, 18))),
        ("a[n,1]", 1, lambda t, n: t.a(n, 1),
         lambda n: (4 * harmonic(n - 1) + 5) * fact_sq(n - 1)),
        ("a[n,0]", 1, lambda t, n: t.a(n, 0),
         lambda n: Fraction(fact_sq(n - 1))),
    ]


def verify_closed_forms(table: CertTable) -> list[Verdict]:
    """Check every edge-coefficient closed form against the built tables.

    Returns one verdict per formula.  Requires n_max >= 2 so each formula
    has at least one instance.
    """
    if table.n_max < 2:
        raise ValueError("closed-form checks need a table with n_max >= 2")
    verdicts = []
    for name, n_first, read, formula in _closed_form_specs():
        checked = 0
        first_failure = None
        for n in range(n_first, table.n_max + 1):
            expected = formula(n)
            actual = read(table, n)
            checked += 1
            if expected != actual:
                first_failure = f"n={n}: formula gives {expected}, table has {actual}"
                break
        verdicts.append(Verdict(name, first_failure is None, checked, first_failure))
    return verdicts


def verify_domination_bound(table: CertTable) -> Verdict:
    """a(n,j) >= |b(n,j-2)| + 2n|b(n,j-1)| + n^2|b(n,j)| for n >= 2, all j.

    The right side is nonnegative, so passing also certifies a(n,j) >= 0.
    """
    if table.n_max < 2:
        raise ValueError("domination checks need a table with n_max >= 2")
    checked = 0
    for n in range(2, table.n_max + 1):
        for j in range(0, 2 * n + 1):
            bound = (
                abs(table.b(n, j - 2))
                + 2 * n * abs(table.b(n, j - 1))
                + n * n * abs(table.b(n, j))
            )
            checked += 1
            if table.a(n, j) < bound:
                return Verdict(
                    "coefficient-domination", False, checked,
                    f"n={n}, j={j}: a={table.a(n, j)} < bound={bound}",
                )
    return Verdict("coefficient-domination", True, checked, None)


def _xy_values(q: int) -> Iterator[tuple[int, int]]:
    """Yield (X_k(q), Y_k(q)) for k = 0, 1, ... by the defining recurrence at t = q."""
    x, y = q + 1, 1
    for k in count():
        yield x, y
        y = (q + 1 - k) ** 2 * y
        x = (2 * q + k) ** 2 * x - (3 * q + 1) * y


def verify_sign_certificate(q_max: int) -> Verdict:
    """X_{q+1}(q) < 0 and Y_{q+1}(q) > 0 for q = 1..q_max.

    Y_{q+1}(q) is also matched against its product form ((q+1)!)^2, which
    follows from the Y recurrence telescoping at t = q.
    """
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    checked = 0
    for q in range(1, q_max + 1):
        x, y = next(islice(_xy_values(q), q + 1, None))
        checked += 1
        if x >= 0:
            return Verdict(
                "sign-certificate", False, checked, f"q={q}: X_{q + 1}({q}) = {x} >= 0"
            )
        if y <= 0 or y != math.factorial(q + 1) ** 2:
            return Verdict(
                "sign-certificate", False, checked,
                f"q={q}: Y_{q + 1}({q}) = {y} != ((q+1)!)^2",
            )
    return Verdict("sign-certificate", True, checked, None)


def _link_holds(factor: int, s: int, y: int, x: int, c: int) -> bool:
    """factor*s*y > x*c for factor > 0 and y > 0, from the signs where they differ."""
    lhs_sign = (s > 0) - (s < 0)
    rhs_sign = ((x > 0) - (x < 0)) * ((c > 0) - (c < 0))
    if lhs_sign != rhs_sign:
        return lhs_sign > rhs_sign
    return factor * s * y > x * c


def verify_equivalence_chain(q: int) -> Verdict:
    """All links of the chain share one truth value; k=0 equals the goal.

    Link k (0 <= k <= q+1) is the statement
    (3q+1) * S(q-k) * Y_k(q) > X_k(q) * C(3q, q+1-k)^2 with S(-1) = 0.
    Y_k(q) > 0 throughout, so each link is the cross-multiplied form of the
    division-shaped statement with X_k/Y_k on the right.  C(3q, j)^2 is read
    as S(j) - S(j-1).  A link whose two sides differ in sign is decided by
    the signs; only links with equal signs form the products.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    sums = [0, *binomial_power_sums(3 * q, 2, 1, q + 1)]  # sums[j + 1] = S(j)
    factor = 3 * q + 1

    truths = []
    for k, (x, y) in zip(range(q + 2), _xy_values(q)):
        if y <= 0:
            return Verdict(
                "equivalence-chain", False, k + 1, f"q={q}, k={k}: Y_k(q) = {y} <= 0"
            )
        s = sums[q - k + 1]
        truths.append(_link_holds(factor, s, y, x, sums[q - k + 2] - s))

    checked = len(truths)
    if len(set(truths)) != 1:
        flip = next(k for k in range(1, checked) if truths[k] != truths[0])
        return Verdict(
            "equivalence-chain", False, checked,
            f"q={q}: link k={flip} has truth {truths[flip]}, k=0 has {truths[0]}",
        )
    goal = factor * sums[q + 1] > (q + 1) * (sums[q + 2] - sums[q + 1])
    if truths[0] != goal:
        return Verdict(
            "equivalence-chain", False, checked,
            f"q={q}: k=0 link truth {truths[0]} differs from goal truth {goal}",
        )
    return Verdict("equivalence-chain", True, checked, None)


def _ratio_walk(m: int, j_max: int) -> Iterator[tuple[float, float]]:
    """Yield (t_j, err_j) with |t_j - S(j-1)/C(m,j)^2| <= err_j for j = 1..j_max.

    S is the prefix sum of C(m, i)^2 and 1 <= j_max <= m.  See the module
    docstring for the recurrence and the derivation of err_j.
    """
    t = 0.0
    for j in range(j_max):
        step = (j + 1) / (m - j)
        t = (t + 1.0) * (step * step)
        yield t, (j + 1) * _ERR_UNIT * t


def _exact_sign(m: int, j: int, c: int, n: int) -> int:
    """Sign of c*S(j-1) - n*C(m,j)^2, with S the prefix sums of C(m, i)^2."""
    prefix, upto = deque(binomial_power_sums(m, 2, 1, j), maxlen=2)
    d = c * prefix - n * (upto - prefix)  # upto - prefix = C(m,j)^2
    return (d > 0) - (d < 0)


def verify_left_peak_inequality(m: int) -> Verdict:
    """(3r-2) * S(j-1) < r * C(m,j)^2 for 1 <= j <= r = floor((m+2)/3).

    This is the exact form of the strict rise of the central sequence up to
    its peak index r.  The float walk certifies each index it can; exact
    arithmetic decides the rest.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    r = (m + 2) // 3
    lhs_factor = 3 * r - 2
    for j, (t, err) in enumerate(_ratio_walk(m, r), start=1):
        if lhs_factor * t - r < -2 * lhs_factor * err:
            continue
        if _exact_sign(m, j, lhs_factor, r) >= 0:
            return Verdict(
                "left-peak-inequality", False, j,
                f"m={m}, j={j}: {lhs_factor}*S({j - 1}) >= {r}*C({m},{j})^2",
            )
    return Verdict("left-peak-inequality", True, r, None)


def verify_right_peak_inequality(q: int) -> Verdict:
    """(3q+1) * sum_{i<=q} C(m,i)^2 > (q+1) * C(m,q+1)^2 for m = 3q, 3q-1, 3q-2.

    All three m share the peak index r_m = q, so these are the exact forms
    of the strict fall just past the peak; the smaller two follow from the
    m = 3q case by descent, but are checked directly here.  The float walk
    certifies each m it can; exact arithmetic decides the rest.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    factor = 3 * q + 1
    for checked, m in enumerate((3 * q, 3 * q - 1, 3 * q - 2), start=1):
        if m > q:  # C(m, q+1) > 0
            t, err = deque(_ratio_walk(m, q + 1), maxlen=1).pop()
            if factor * t - (q + 1) > 2 * factor * err:
                continue
        if _exact_sign(m, q + 1, factor, q + 1) <= 0:
            return Verdict(
                "right-peak-inequality", False, checked,
                f"q={q}, m={m}: (3q+1)*S <= (q+1)*C(m,q+1)^2",
            )
    return Verdict("right-peak-inequality", True, 3, None)


@dataclass(frozen=True)
class CertificateReport:
    """All certificate verdicts, with the bounds they were run at."""

    bounds: dict = field(default_factory=dict)
    verdicts: tuple[Verdict, ...] = ()

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "bounds": dict(self.bounds),
            "checks": [v.to_json_dict() for v in self.verdicts],
        }


def run_all(
    n_max: int = 200,
    sign_q_max: int = 200,
    chain_q_max: int = 500,
    goal_q_max: int = 500,
    left_m_max: int = 2000,
) -> CertificateReport:
    """Build the table and run every certificate check at the given bounds.

    The bounds are checked (``check_battery_bounds``) before the table is built.
    """
    check_battery_bounds(sign_q_max, chain_q_max, goal_q_max, left_m_max)
    table = build_cert_table(n_max)
    return run_battery(table, sign_q_max, chain_q_max, goal_q_max, left_m_max)


def check_battery_bounds(
    sign_q_max: int, chain_q_max: int, goal_q_max: int, left_m_max: int
) -> None:
    """Raise ``ValueError`` for a bound that leaves a family with no instance,
    so that no family passes having checked nothing.  Cheap, so callers run
    it before they build a table."""
    for name, bound, least in (("sign_q_max", sign_q_max, 1),
                               ("chain_q_max", chain_q_max, 1),
                               ("goal_q_max", goal_q_max, 1),
                               ("left_m_max", left_m_max, 2)):
        if bound < least:
            raise ValueError(f"{name} must be >= {least}, got {bound}")


def run_battery(
    table: CertTable, sign_q_max: int, chain_q_max: int, goal_q_max: int, left_m_max: int
) -> CertificateReport:
    """Run every check on a built table.  The report does not hold the table
    (about 14 MB at n_max = 200); ``polycert --dump`` keeps its own.

    The bounds are checked first, by ``check_battery_bounds``.
    """
    check_battery_bounds(sign_q_max, chain_q_max, goal_q_max, left_m_max)
    n_max = table.n_max
    # build_cert_table compared every coefficient of each X_n and Y_n.
    route_checks = sum(len(poly.coeffs) for poly in table.x_polys + table.y_polys)
    verdicts = [Verdict("construction-routes-agree", True, route_checks, None)]
    verdicts.extend(verify_closed_forms(table))
    verdicts.append(verify_domination_bound(table))
    verdicts.append(verify_sign_certificate(sign_q_max))

    families = (
        ("equivalence-chain", verify_equivalence_chain, range(1, chain_q_max + 1)),
        ("right-peak-inequality", verify_right_peak_inequality, range(1, goal_q_max + 1)),
        ("left-peak-inequality", verify_left_peak_inequality, range(2, left_m_max + 1)),
    )
    for name, verify, instances in families:
        total = Verdict(name, True, 0, None)
        for instance in instances:
            v = verify(instance)
            total = Verdict(name, v.passed, total.checked + v.checked, v.first_failure)
            if not v.passed:
                break
        verdicts.append(total)

    bounds = {
        "n_max": n_max,
        "sign_q_max": sign_q_max,
        "chain_q_max": chain_q_max,
        "goal_q_max": goal_q_max,
        "left_m_max": left_m_max,
    }
    return CertificateReport(bounds=bounds, verdicts=tuple(verdicts))


def dump_polynomials(table: CertTable) -> str:
    """One line per polynomial: ``X_n: c_{2n+1} c_{2n} ... c_0`` in decimal."""
    lines = []
    for n in range(table.n_max + 1):
        for label, poly in (("X", table.x_polys[n]), ("Y", table.y_polys[n])):
            coeffs = " ".join(str(c) for c in reversed(poly.coeffs))
            lines.append(f"{label}_{n}: {coeffs}")
    return "\n".join(lines) + "\n"
