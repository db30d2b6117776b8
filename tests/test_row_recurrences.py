"""The certified row-sum recurrences of ``exact_core._ROW_RECURRENCES``.

Each table entry is proved by a creative-telescoping certificate, checked
here as an exact polynomial identity together with the boundary terms that
make it telescope (the argument is in the ``exact_core`` module docstring).
``scaled_row_sums`` is then checked against the direct route, term-by-term
``binomial_power_sums``, and for its exactness guard.
"""

import math
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powsumseq import binomial_power_sums, exact_core, scaled_row_sums

# Per l: (d, rows).  The certificate is
#     G(r, k) = M(r, k, x) / d(r) * C(r+J-1, k-1)**l * x**k,
# with d a polynomial in r (coefficients from the constant term up) and
# M = sum_{i, e} rows[i][e](r) * k**i * x**e.
CERTIFICATES = {
    1: ((1,), (((-1,),),)),
    2: (
        (1, 1),
        (
            ((-10, -13, -4), (4, 4, 1)),
            ((6, 4), (-4, -2)),
            ((-1,), (1,)),
        ),
    ),
    3: (
        (8, 20, 18, 7, 1),  # (r+1)(r+2)^3
        (
            (
                (-13572, -48594, -72818, -59333, -28448, -8040, -1242, -81),
                (-3132, -8370, -9090, -5156, -1616, -266, -18),
                (-1512, -4428, -5526, -3809, -1566, -384, -52, -3),
            ),
            (
                (18369, 56325, 70365, 45939, 16563, 3132, 243),
                (9369, 23040, 22821, 11676, 3255, 468, 27),
                (3780, 9432, 9753, 5349, 1641, 267, 18),
            ),
            (
                (-11694, -29586, -29355, -14304, -3429, -324),
                (-10116, -21480, -17736, -7140, -1404, -108),
                (-3906, -8079, -6651, -2724, -555, -45),
            ),
            (
                (4365, 8672, 6359, 2043, 243),
                (5408, 9392, 5972, 1652, 168),
                (2135, 3519, 2166, 590, 60),
            ),
            (
                (-987, -1431, -684, -108),
                (-1554, -2052, -888, -126),
                (-651, -804, -330, -45),
            ),
            ((126, 117, 27), (231, 204, 45), (105, 87, 18)),
            ((-7, -3), (-14, -6), (-7, -3)),
        ),
    ),
}


def poly(coeffs, r):
    value = 0
    for c in reversed(coeffs):
        value = value * r + c
    return value


def ff(a, n):
    """Falling factorial a (a-1) ... (a-n+1)."""
    return math.prod(a - i for i in range(n))


def comb(n, k):
    return math.comb(n, k) if 0 <= k <= n else 0


def recurrence_coeffs(entry, r, x):
    """[c_0(r, x), ..., c_J(r, x)] with sum_j c_j D_{r+j} = 0, at P = x, Q = 1."""
    lead, shifts = entry
    coeffs = [
        -sum(poly(u, r) * poly(form, x) for u, form in terms) for terms in shifts
    ]
    return coeffs + [poly(lead, r)]


def cert_numerator(rows, r, k, x):
    return sum(
        poly(coeffs, r) * k**i * x**e
        for i, row in enumerate(rows)
        for e, coeffs in enumerate(row)
    )


def identity_holds(l, entry, certificate):
    """The telescoping identity with denominators cleared,

        ff(r+J, J)**l * (x (r+J-k)**l M(r, k+1, x) - k**l M(r, k, x))
            = d(r) (r+J)**l * sum_j c_j(r, x) ff(r+J-k, J-j)**l ff(r+j, j)**l,

    checked on a grid larger than its degree in each of r, k and x (the
    bounds below are read off the two sides): a polynomial that vanishes on
    such a grid is zero."""
    lead, shifts = entry
    d, rows = certificate
    order = len(shifts)
    deg_c = max(len(u) for terms in shifts for u, _ in terms) - 1
    deg_c = max(deg_c, len(lead) - 1)
    deg_r = max(
        l * order + l + max(len(c) for row in rows for c in row) - 1,
        len(d) - 1 + l + deg_c + l * order,
    )
    deg_k = max(l + len(rows) - 1, l * order)
    deg_x = max(max(len(row) for row in rows), order)
    for r in range(deg_r + 1):
        top = ff(r + order, order) ** l
        for x in range(deg_x + 1):
            c = recurrence_coeffs(entry, r, x)
            for k in range(deg_k + 1):
                lhs = top * (
                    x * (r + order - k) ** l * cert_numerator(rows, r, k + 1, x)
                    - k**l * cert_numerator(rows, r, k, x)
                )
                rhs = poly(d, r) * (r + order) ** l * sum(
                    c[j] * ff(r + order - k, order - j) ** l * ff(r + j, j) ** l
                    for j in range(order + 1)
                )
                if lhs != rhs:
                    return False
    return True


def bumped(tree):
    """Every copy of a nested tuple of ints with one entry increased by 1."""
    if isinstance(tree, int):
        yield tree + 1
        return
    for i, child in enumerate(tree):
        for new in bumped(child):
            yield tree[:i] + (new,) + tree[i + 1 :]


def direct_rows(l, a, r_max):
    return [deque(binomial_power_sums(r, l, a, r), maxlen=1).pop() for r in range(r_max + 1)]


class TestCertificates:
    def test_every_power_up_to_three_has_one(self):
        assert sorted(exact_core._ROW_RECURRENCES) == sorted(CERTIFICATES) == [1, 2, 3]

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_telescoping_identity(self, l):
        assert identity_holds(l, exact_core._ROW_RECURRENCES[l], CERTIFICATES[l])

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_every_bumped_recurrence_coefficient_fails(self, l):
        entry = exact_core._ROW_RECURRENCES[l]
        for wrong in bumped(entry):
            assert not identity_holds(l, wrong, CERTIFICATES[l]), wrong

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_every_bumped_certificate_coefficient_fails(self, l):
        entry = exact_core._ROW_RECURRENCES[l]
        for wrong in bumped(CERTIFICATES[l]):
            assert not identity_holds(l, entry, wrong), wrong

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_no_poles_and_homogeneous_forms(self, l):
        # The leading coefficient and the certificate's denominator have
        # nonnegative coefficients and a positive constant term, so neither
        # vanishes at r >= 0; the form at shift j has degree J - j, which
        # turns the identity in x = P/Q back into one in P and Q.
        lead, shifts = exact_core._ROW_RECURRENCES[l]
        d, _ = CERTIFICATES[l]
        for coeffs in (lead, d):
            assert coeffs[0] > 0 and min(coeffs) >= 0
        for j, terms in enumerate(shifts):
            assert all(len(form) - 1 == len(shifts) - j for _, form in terms)

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("x", [Fraction(1), Fraction(2, 3), Fraction(7, 2)])
    def test_boundary_terms_telescope_to_the_recurrence(self, l, x):
        entry = exact_core._ROW_RECURRENCES[l]
        d, rows = CERTIFICATES[l]
        order = len(entry[1])

        def G(r, k):
            return (
                Fraction(cert_numerator(rows, r, k, x), poly(d, r))
                * comb(r + order - 1, k - 1) ** l
                * x**k
            )

        for r in range(8):
            c = recurrence_coeffs(entry, r, x)
            assert G(r, 0) == 0 and G(r, r + order + 1) == 0
            for k in range(r + order + 1):
                term = sum(c[j] * comb(r + j, k) ** l * x**k for j in range(order + 1))
                assert term == G(r, k + 1) - G(r, k)
            sums = [sum(comb(n, k) ** l * x**k for k in range(n + 1)) for n in range(r, r + order + 1)]
            assert sum(cj * s for cj, s in zip(c, sums)) == 0


weights = st.one_of(
    st.just(Fraction(1)),
    st.builds(Fraction, st.integers(1, 10**6), st.integers(1, 10**6)),
)


class TestScaledRowSums:
    @given(st.sampled_from([1, 2, 3]), st.integers(0, 150), weights)
    @example(1, 0, Fraction(1))
    @example(2, 1, Fraction(1))
    @example(3, 2, Fraction(2, 3))
    @example(3, 3, Fraction(1))
    @example(2, 2, Fraction(10**6, 999999))
    @example(3, 150, Fraction(1, 10**6))
    @example(3, 150, Fraction(10**6, 7))
    @example(2, 150, Fraction(1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_direct_route(self, l, r_max, a):
        assert scaled_row_sums(l, a, r_max) == direct_rows(l, a, r_max)

    @pytest.mark.parametrize("a", [Fraction(2, 3), Fraction(5, 3), Fraction(4, 7)])
    def test_matches_direct_route_at_r_700(self, a):
        # The weight classes {2, 3}, {3, 5}, {4, 7} at l = 3, where the
        # benchmark's conjectured_ratio calls reach m = 700.
        assert scaled_row_sums(3, a, 700) == direct_rows(3, a, 700)

    @pytest.mark.parametrize(
        "l,lead,index",
        [
            # 51 -> 52 leaves lead(0), hence D_3, as it was, so only the
            # remainder of a later step shows the wrong entry.
            (3, (36, 52, 22, 3), 4),
            # The one-shift loop: (p + q) / 2 is not an integer at a = 2/3.
            (1, (2,), 1),
        ],
    )
    def test_guard_names_power_weight_and_index(self, l, lead, index, monkeypatch):
        _, shifts = exact_core._ROW_RECURRENCES[l]
        monkeypatch.setitem(exact_core._ROW_RECURRENCES, l, (lead, shifts))
        with pytest.raises(ArithmeticError, match=rf"l={l}, a=2/3 is not exact at r={index}$"):
            scaled_row_sums(l, Fraction(2, 3), 10)

    def test_first_step_is_checked_against_the_direct_sum(self, monkeypatch):
        # P^2 - PQ + Q^2 in place of (Q - P)^2 still gives integer quotients
        # (a Legendre-type recurrence), so only the comparison of D_2 with
        # its direct sum shows the wrong entry.
        lead, shifts = exact_core._ROW_RECURRENCES[2]
        wrong = (lead, ((((-1, -1), (1, -1, 1)),), shifts[1]))
        monkeypatch.setitem(exact_core._ROW_RECURRENCES, 2, wrong)
        with pytest.raises(ArithmeticError, match=r"l=2, a=2/3 .*direct sum at r=2$"):
            scaled_row_sums(2, Fraction(2, 3), 60)

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_every_bumped_coefficient_raises(self, l, monkeypatch):
        for wrong in bumped(exact_core._ROW_RECURRENCES[l]):
            monkeypatch.setitem(exact_core._ROW_RECURRENCES, l, wrong)
            with pytest.raises(ArithmeticError, match=rf"l={l}, a=2/3 .*r=\d+$"):
                scaled_row_sums(l, Fraction(2, 3), 60)
