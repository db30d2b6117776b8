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
a(n,i), b(n,i).  ``build_cert_table`` constructs every polynomial through
*both* routes — polynomial algebra and the scalar recurrences — and insists
they agree coefficient by coefficient; disagreement raises
:class:`CertificateError`.

The verification entry points then check, in exact integer arithmetic:

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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise

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
    "dump_polynomials",
]


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

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(tuple(out))

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
    """Certificate polynomials and coefficient tables for n = 0..n_max.

    ``x_polys[n]`` and ``y_polys[n]`` are the polynomials; ``a(n, j)`` and
    ``b(n, j)`` read the scalar tables.  The b rows store b(n,-2) = b(n,-1)
    = 0 explicitly so the domination inequality can index below zero, and
    include the monic leading entry b(n,2n) = 1.
    """

    n_max: int
    x_polys: tuple[IntPoly, ...]
    y_polys: tuple[IntPoly, ...]
    a_rows: tuple[tuple[int, ...], ...]  # row n holds a(n, 0..2n)
    b_rows: tuple[tuple[int, ...], ...]  # row n holds b(n, -2..2n), offset 2

    def a(self, n: int, j: int) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in [0, {self.n_max}], got {n}")
        if not 0 <= j <= 2 * n:
            raise ValueError(f"j must be in [0, {2 * n}] for n={n}, got {j}")
        return self.a_rows[n][j]

    def b(self, n: int, j: int) -> int:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"n must be in [0, {self.n_max}], got {n}")
        if not -2 <= j <= 2 * n:
            raise ValueError(f"j must be in [-2, {2 * n}] for n={n}, got {j}")
        return self.b_rows[n][j + 2]


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


def _fetch(row: list[int], j: int) -> int:
    return row[j] if 0 <= j < len(row) else 0


def _scalar_b_rows(n_max: int) -> list[list[int]]:
    """b(n, 0..2n) via the scalar recurrences (edge cases split out)."""
    rows = [[1]]  # Y_0 = 1
    for n in range(n_max):
        prev = rows[n]
        deg = 2 * n + 2
        shift = 2 * n - 2  # the (2n - 2) multiplier
        sq = (n - 1) * (n - 1)
        row = [0] * (deg + 1)
        for j in range(deg, -1, -1):
            if j == deg:
                row[j] = 1
            elif j == deg - 1:
                row[j] = _fetch(prev, 2 * n - 1) - shift
            elif j == 1:
                row[j] = -shift * _fetch(prev, 0) + sq * _fetch(prev, 1)
            elif j == 0:
                row[j] = sq * _fetch(prev, 0)
            else:
                row[j] = (
                    _fetch(prev, j - 2)
                    - shift * _fetch(prev, j - 1)
                    + sq * _fetch(prev, j)
                )
        rows.append(row)
    return rows


def _scalar_a_rows(n_max: int, b_rows: list[list[int]]) -> list[list[int]]:
    """a(n, 0..2n) via the scalar recurrences, consuming the b table."""
    rows = [[-1]]  # X_0 = t + 1 = t - (-1)
    for n in range(n_max):
        prev = rows[n]
        nxt_b = b_rows[n + 1]
        deg = 2 * n + 2
        row = [0] * (deg + 1)
        for j in range(deg, -1, -1):
            if j == deg:
                row[j] = -4 * n + 4 * _fetch(prev, 2 * n) + 1 + 3 * _fetch(nxt_b, deg - 1)
            elif j == deg - 1:
                row[j] = (
                    -n * n
                    + 4 * n * _fetch(prev, 2 * n)
                    + 4 * _fetch(prev, 2 * n - 1)
                    + _fetch(nxt_b, j)
                    + 3 * _fetch(nxt_b, j - 1)
                )
            elif j == 1:
                row[j] = (
                    n * n * _fetch(prev, 1)
                    + 4 * n * _fetch(prev, 0)
                    + _fetch(nxt_b, 1)
                    + 3 * _fetch(nxt_b, 0)
                )
            elif j == 0:
                row[j] = n * n * _fetch(prev, 0) + _fetch(nxt_b, 0)
            else:
                row[j] = (
                    n * n * _fetch(prev, j)
                    + 4 * n * _fetch(prev, j - 1)
                    + 4 * _fetch(prev, j - 2)
                    + _fetch(nxt_b, j)
                    + 3 * _fetch(nxt_b, j - 1)
                )
        rows.append(row)
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

    b_rows = _scalar_b_rows(n_max)
    a_rows = _scalar_a_rows(n_max, b_rows)

    for n in range(n_max + 1):
        xp, yp = x_polys[n], y_polys[n]
        if xp.degree != 2 * n + 1 or not xp.monic:
            raise CertificateError(f"X_{n} is not monic of degree {2 * n + 1}")
        if yp.degree != 2 * n or not yp.monic:
            raise CertificateError(f"Y_{n} is not monic of degree {2 * n}")
        expected_x = tuple(-c for c in a_rows[n]) + (1,)
        if xp.coeffs != expected_x:
            raise CertificateError(
                f"X_{n}: polynomial route and scalar route disagree"
            )
        if yp.coeffs != tuple(b_rows[n]):
            raise CertificateError(
                f"Y_{n}: polynomial route and scalar route disagree"
            )

    return CertTable(
        n_max=n_max,
        x_polys=tuple(x_polys),
        y_polys=tuple(y_polys),
        a_rows=tuple(tuple(r) for r in a_rows),
        b_rows=tuple((0, 0, *r) for r in b_rows),
    )


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


def _xy_values_at(q: int, n: int) -> tuple[int, int]:
    """(X_n(q), Y_n(q)) by running the defining recurrence on values at t=q."""
    x, y = q + 1, 1
    for k in range(n):
        y = (q + 1 - k) ** 2 * y
        x = (2 * q + k) ** 2 * x - (3 * q + 1) * y
    return x, y


def verify_sign_certificate(q_max: int) -> Verdict:
    """X_{q+1}(q) < 0 and Y_{q+1}(q) > 0 for q = 1..q_max.

    Y_{q+1}(q) is also matched against its product form ((q+1)!)^2, which
    follows from the Y recurrence telescoping at t = q.
    """
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    checked = 0
    for q in range(1, q_max + 1):
        x, y = _xy_values_at(q, q + 1)
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


def verify_equivalence_chain(q: int) -> Verdict:
    """All links of the chain share one truth value; k=0 equals the goal.

    Link k (0 <= k <= q+1) is the statement
    (3q+1) * S(q-k) * Y_k(q) > X_k(q) * C(3q, q+1-k)^2 with S(-1) = 0.
    Y_k(q) > 0 throughout, so each link is the cross-multiplied form of the
    division-shaped statement with X_k/Y_k on the right.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    m = 3 * q
    sums = list(binomial_power_sums(m, 2, 1, q))
    factor = 3 * q + 1

    truths = []
    x, y = q + 1, 1
    for k in range(q + 2):
        if k > 0:
            y = (q + 1 - k + 1) ** 2 * y  # recurrence step k-1 -> k
            x = (2 * q + k - 1) ** 2 * x - factor * y
        if y <= 0:
            return Verdict(
                "equivalence-chain", False, k + 1, f"q={q}, k={k}: Y_k(q) = {y} <= 0"
            )
        s = sums[q - k] if k <= q else 0
        c = math.comb(m, q + 1 - k)
        truths.append(factor * s * y > x * c * c)

    checked = len(truths)
    if len(set(truths)) != 1:
        flip = next(k for k in range(1, checked) if truths[k] != truths[0])
        return Verdict(
            "equivalence-chain", False, checked,
            f"q={q}: link k={flip} has truth {truths[flip]}, k=0 has {truths[0]}",
        )
    goal = factor * sums[q] > (q + 1) * math.comb(m, q + 1) ** 2
    if truths[0] != goal:
        return Verdict(
            "equivalence-chain", False, checked,
            f"q={q}: k=0 link truth {truths[0]} differs from goal truth {goal}",
        )
    return Verdict("equivalence-chain", True, checked, None)


def verify_left_peak_inequality(m: int) -> Verdict:
    """(3r-2) * S(j-1) < r * C(m,j)^2 for 1 <= j <= r = floor((m+2)/3).

    This is the exact form of the strict rise of the central sequence up to
    its peak index r.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    r = (m + 2) // 3
    lhs_factor = 3 * r - 2
    sums = pairwise(binomial_power_sums(m, 2, 1, r))
    for j, (prefix, acc) in enumerate(sums, start=1):
        if lhs_factor * prefix >= r * (acc - prefix):  # acc - prefix = C(m,j)^2
            return Verdict(
                "left-peak-inequality", False, j,
                f"m={m}, j={j}: {lhs_factor}*S({j - 1}) >= {r}*C({m},{j})^2",
            )
    return Verdict("left-peak-inequality", True, r, None)


def verify_right_peak_inequality(q: int) -> Verdict:
    """(3q+1) * sum_{i<=q} C(m,i)^2 > (q+1) * C(m,q+1)^2 for m = 3q, 3q-1, 3q-2.

    All three m share the peak index r_m = q, so these are the exact forms
    of the strict fall just past the peak; the smaller two follow from the
    m = 3q case by descent, but are checked directly here.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    for checked, m in enumerate((3 * q, 3 * q - 1, 3 * q - 2), start=1):
        total = deque(binomial_power_sums(m, 2, 1, q), maxlen=1).pop()
        nxt = math.comb(m, q + 1)
        if (3 * q + 1) * total <= (q + 1) * nxt * nxt:
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
    """Build the table and run every certificate check at the given bounds."""
    table = build_cert_table(n_max)
    route_checks = sum(4 * n + 4 for n in range(n_max + 1))  # coeffs per n, X and Y
    verdicts = [Verdict("construction-routes-agree", True, route_checks, None)]
    verdicts.extend(verify_closed_forms(table))
    verdicts.append(verify_domination_bound(table))
    verdicts.append(verify_sign_certificate(sign_q_max))

    chain = Verdict("equivalence-chain", True, 0, None)
    for q in range(1, chain_q_max + 1):
        v = verify_equivalence_chain(q)
        chain = Verdict(chain.name, v.passed, chain.checked + v.checked, v.first_failure)
        if not v.passed:
            break
    verdicts.append(chain)

    right = Verdict("right-peak-inequality", True, 0, None)
    for q in range(1, goal_q_max + 1):
        v = verify_right_peak_inequality(q)
        right = Verdict(right.name, v.passed, right.checked + v.checked, v.first_failure)
        if not v.passed:
            break
    verdicts.append(right)

    left = Verdict("left-peak-inequality", True, 0, None)
    for m in range(2, left_m_max + 1):
        v = verify_left_peak_inequality(m)
        left = Verdict(left.name, v.passed, left.checked + v.checked, v.first_failure)
        if not v.passed:
            break
    verdicts.append(left)

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
