"""Certificate-family tests: frozen reference polynomials, closed forms,
and the full verification battery at reduced bounds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powsumseq import (
    CertificateError,
    poly_certificates,
    IntPoly,
    build_cert_table,
    dump_polynomials,
    run_all,
    verify_closed_forms,
    verify_domination_bound,
    verify_equivalence_chain,
    verify_left_peak_inequality,
    verify_right_peak_inequality,
    verify_sign_certificate,
)

# The twelve reference polynomials, coefficients ascending in t.
EXPECTED_X = {
    0: (1, 1),
    1: (-1, -5, -3, 1),
    2: (-1, -9, -28, -36, -15, 1),
    3: (-4, -44, -189, -407, -458, -254, -53, 1),
    4: (-36, -444, -2249, -6115, -9743, -9397, -5383, -1645, -189, 1),
    5: (-576, -7680, -43268, -135648, -262509, -330705, -275745, -149885,
        -50791, -9683, -711, 1),
}
EXPECTED_Y = {
    0: (1,),
    1: (1, 2, 1),
    2: (0, 0, 1, 2, 1),
    3: (0, 0, 1, 0, -2, 0, 1),
    4: (0, 0, 4, -4, -7, 8, 2, -4, 1),
    5: (0, 0, 36, -60, -35, 110, -37, -40, 35, -10, 1),
}

small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).map(
    lambda cs: IntPoly(tuple(cs))
)


class TestIntPoly:
    def test_trailing_zeros_stripped(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == (0,)
        assert IntPoly(()).coeffs == (0,)

    def test_degree_and_monic(self):
        assert IntPoly((3, 0, 1)).degree == 2
        assert IntPoly((3, 0, 1)).monic
        assert not IntPoly((1, 2)).monic

    def test_evaluation(self):
        p = IntPoly((-1, -5, -3, 1))  # the n=1 family member
        assert p(0) == -1
        assert p(5) == 24
        assert p(Fraction(1, 2)) == Fraction(-33, 8)

    @given(small_polys, small_polys, st.integers(-5, 5))
    @settings(max_examples=80, deadline=None)
    def test_arithmetic_matches_pointwise(self, p, q, t):
        assert (p + q)(t) == p(t) + q(t)
        assert (p - q)(t) == p(t) - q(t)
        assert (p * q)(t) == p(t) * q(t)


class TestBuildCertTable:
    def test_base_cases(self):
        table = build_cert_table(0)
        assert table.x_polys[0].coeffs == (1, 1)
        assert table.y_polys[0].coeffs == (1,)

    def test_all_twelve_reference_polynomials(self):
        table = build_cert_table(5)
        for n in range(6):
            assert table.x_polys[n].coeffs == EXPECTED_X[n], f"X_{n}"
            assert table.y_polys[n].coeffs == EXPECTED_Y[n], f"Y_{n}"

    def test_degrees_and_monicity(self):
        table = build_cert_table(30)
        for n in range(31):
            assert table.x_polys[n].degree == 2 * n + 1
            assert table.y_polys[n].degree == 2 * n
            assert table.x_polys[n].monic
            assert table.y_polys[n].monic

    def test_scalar_table_examples(self):
        table = build_cert_table(4)
        assert table.a(1, 2) == 3
        assert table.b(4, 6) == 2
        assert table.a(2, 1) == 9

    def test_tables_mirror_polynomials(self):
        table = build_cert_table(6)
        for n in range(7):
            x = table.x_polys[n].coeffs
            assert x == tuple(-table.a(n, j) for j in range(2 * n + 1)) + (1,)
            assert table.y_polys[n].coeffs == tuple(
                table.b(n, j) for j in range(2 * n + 1)
            )
            assert table.b(n, -1) == table.b(n, -2) == 0

    def test_index_validation(self):
        table = build_cert_table(3)
        with pytest.raises(ValueError):
            table.a(4, 0)
        with pytest.raises(ValueError):
            table.a(2, 5)
        with pytest.raises(ValueError):
            table.b(2, -3)
        with pytest.raises(ValueError):
            build_cert_table(-1)

    def test_value_recurrence_agrees_with_polynomials(self):
        # The sign certificate evaluates the family by a value recurrence;
        # the polynomial route must give identical numbers.
        from powsumseq.poly_certificates import _xy_values_at

        table = build_cert_table(8)
        for q in range(1, 7):
            for n in range(9):
                x, y = _xy_values_at(q, n)
                assert x == table.x_polys[n](q)
                assert y == table.y_polys[n](q)


class TestClosedForms:
    def test_all_pass_to_n50(self):
        verdicts = verify_closed_forms(build_cert_table(50))
        assert len(verdicts) == 10
        for verdict in verdicts:
            assert verdict.passed, verdict
            assert verdict.checked >= 49

    def test_spot_values(self):
        table = build_cert_table(6)
        # a(n, 0) = ((n-1)!)^2 and b(n, 2) = ((n-2)!)^2.
        assert table.a(5, 0) == math.factorial(4) ** 2
        assert table.b(5, 2) == math.factorial(3) ** 2
        # a(n, 2n) = n^2 + n + (2^(2n+1) - 5)/3.
        assert table.a(3, 6) == 9 + 3 + (2**7 - 5) // 3
        # b(n, 2n-1) = 3n - n^2.
        assert table.b(4, 7) == 3 * 4 - 16

    def test_requires_depth(self):
        with pytest.raises(ValueError):
            verify_closed_forms(build_cert_table(1))


class TestDomination:
    def test_documented_examples(self):
        table = build_cert_table(2)
        # n=2, j=4: a = 15 >= |b(2,2)| + 4|b(2,3)| + 4|b(2,4)| = 1 + 8 + 4.
        assert table.a(2, 4) == 15
        bound = abs(table.b(2, 2)) + 4 * abs(table.b(2, 3)) + 4 * abs(table.b(2, 4))
        assert bound == 13
        # n=2, j=2: a = 28 >= |b(2,0)| + 4|b(2,1)| + 4|b(2,2)| = 4.
        assert table.a(2, 2) == 28
        assert abs(table.b(2, 0)) + 4 * abs(table.b(2, 1)) + 4 * abs(table.b(2, 2)) == 4

    def test_passes_to_n60(self):
        verdict = verify_domination_bound(build_cert_table(60))
        assert verdict.passed
        assert verdict.checked == sum(2 * n + 1 for n in range(2, 61))

    def test_implies_nonnegative_a(self):
        table = build_cert_table(40)
        assert verify_domination_bound(table).passed
        for n in range(2, 41):
            assert all(table.a(n, j) >= 0 for j in range(2 * n + 1))

    def test_requires_depth(self):
        with pytest.raises(ValueError):
            verify_domination_bound(build_cert_table(1))


class TestSignCertificate:
    def test_first_witness(self):
        # X_2(1) = -88 < 0 while Y_2(1) = 4 = (2!)^2 > 0.
        table = build_cert_table(2)
        assert table.x_polys[2](1) == -88
        assert table.y_polys[2](1) == 4

    def test_passes(self):
        verdict = verify_sign_certificate(60)
        assert verdict.passed
        assert verdict.checked == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_sign_certificate(0)


class TestEquivalenceChain:
    def test_small_q(self):
        for q in (1, 2, 3, 10):
            verdict = verify_equivalence_chain(q)
            assert verdict.passed, verdict
            assert verdict.checked == q + 2

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_equivalence_chain(0)


class TestPeakInequalities:
    def test_left_small_m(self):
        for m in range(2, 120):
            verdict = verify_left_peak_inequality(m)
            assert verdict.passed, verdict
            assert verdict.checked == (m + 2) // 3

    def test_left_validation(self):
        with pytest.raises(ValueError):
            verify_left_peak_inequality(1)

    def test_right_documented_examples(self):
        # q=1, m=3: 4 * (1 + 9) = 40 > 2 * C(3,2)^2 = 18.
        assert 4 * sum(math.comb(3, i) ** 2 for i in range(2)) == 40
        assert 2 * math.comb(3, 2) ** 2 == 18
        # q=2, m=6: 7 * (1 + 36 + 225) = 1834 > 3 * C(6,3)^2 = 1200.
        assert 7 * sum(math.comb(6, i) ** 2 for i in range(3)) == 1834
        assert 3 * math.comb(6, 3) ** 2 == 1200
        assert verify_right_peak_inequality(1).passed
        assert verify_right_peak_inequality(2).passed

    def test_right_small_q(self):
        for q in range(1, 120):
            verdict = verify_right_peak_inequality(q)
            assert verdict.passed, verdict
            assert verdict.checked == 3

    def test_right_validation(self):
        with pytest.raises(ValueError):
            verify_right_peak_inequality(0)

    @staticmethod
    def _perturb(monkeypatch, n, j, change):
        """Make the prefix sums S(j) of C(n, i)^2 read ``change(S(j))``."""
        original = poly_certificates.binomial_power_sums

        def perturbed(m, l, a, r_max):
            for i, s in enumerate(original(m, l, a, r_max)):
                yield change(s) if (m, i) == (n, j) else s

        monkeypatch.setattr(poly_certificates, "binomial_power_sums", perturbed)

    def test_left_fails_on_perturbed_sums(self, monkeypatch):
        # m = 10, r = 4: S(2) = 56 -> 5600 breaks the rise at j = 3.
        self._perturb(monkeypatch, 10, 2, lambda s: 100 * s)
        verdict = verify_left_peak_inequality(10)
        assert not verdict.passed
        assert verdict.checked == 3
        assert verdict.first_failure == "m=10, j=3: 10*S(2) >= 4*C(10,3)^2"
        assert verify_left_peak_inequality(11).passed

    def test_right_fails_on_perturbed_sums(self, monkeypatch):
        # q = 4 checks m = 12, 11, 10; zero the m = 11 sum up to i = q.
        self._perturb(monkeypatch, 11, 4, lambda s: 0)
        verdict = verify_right_peak_inequality(4)
        assert not verdict.passed
        assert verdict.checked == 2
        assert verdict.first_failure == "q=4, m=11: (3q+1)*S <= (q+1)*C(m,q+1)^2"
        assert verify_right_peak_inequality(5).passed


class TestRunAll:
    def test_reduced_bounds_all_pass(self):
        report = run_all(
            n_max=12, sign_q_max=12, chain_q_max=12, goal_q_max=12, left_m_max=40
        )
        assert report.passed
        names = [v.name for v in report.verdicts]
        assert names[0] == "construction-routes-agree"
        assert "coefficient-domination" in names
        assert "sign-certificate" in names
        assert "equivalence-chain" in names
        assert "right-peak-inequality" in names
        assert "left-peak-inequality" in names
        assert len(names) == 6 + 10  # battery plus one verdict per closed form

    def test_json_dict(self):
        report = run_all(n_max=3, sign_q_max=3, chain_q_max=3, goal_q_max=3, left_m_max=5)
        payload = report.to_json_dict()
        assert payload["passed"] is True
        assert payload["bounds"]["n_max"] == 3
        assert all(check["first_failure"] is None for check in payload["checks"])


class TestDump:
    def test_format(self):
        text = dump_polynomials(build_cert_table(1))
        lines = text.splitlines()
        assert lines[0] == "X_0: 1 1"
        assert lines[1] == "Y_0: 1"
        assert lines[2] == "X_1: 1 -3 -5 -1"
        assert lines[3] == "Y_1: 1 2 1"
        assert text.endswith("\n")
