"""Certificate-family tests: frozen reference polynomials, closed forms,
and the full verification battery at reduced bounds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powsumseq import (
    CertificateError,
    Verdict,
    poly_certificates,
    IntPoly,
    build_cert_table,
    dump_polynomials,
    run_all,
    run_battery,
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


def _perturb(monkeypatch, n, j, change):
    """Make the prefix sums S(j) of C(n, i)^2 read ``change(S(j))``."""
    original = poly_certificates.binomial_power_sums

    def perturbed(m, l, a, r_max):
        for i, s in enumerate(original(m, l, a, r_max)):
            yield change(s) if (m, i) == (n, j) else s

    monkeypatch.setattr(poly_certificates, "binomial_power_sums", perturbed)


def _force_exact(monkeypatch):
    """Let the float walk certify no peak-inequality index, so each one reads
    the prefix sums, and decide every chain link by products."""
    walk = poly_certificates._ratio_walk
    monkeypatch.setattr(
        poly_certificates, "_ratio_walk",
        lambda m, j_max: ((t, math.inf) for t, _ in walk(m, j_max)),
    )
    monkeypatch.setattr(
        poly_certificates, "_link_holds",
        lambda factor, s, y, x, c: factor * s * y > x * c,
    )


def _count_terms(monkeypatch):
    """Count the terms that poly_certificates.binomial_power_sums yields."""
    original = poly_certificates.binomial_power_sums
    yielded = []

    def counted(*args):
        for s in original(*args):
            yielded.append(s)
            yield s

    monkeypatch.setattr(poly_certificates, "binomial_power_sums", counted)
    return yielded


def _squared_prefix_sums(m, j_max):
    """[S(-1), S(0), ..., S(j_max)] for S(j) = sum_{i<=j} C(m, i)^2."""
    sums = [0]
    for i in range(j_max + 1):
        sums.append(sums[-1] + math.comb(m, i) ** 2)
    return sums


def _horner(poly: IntPoly, t):
    """The value of ``poly`` at ``t``."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * t + c
    return acc


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
        assert _horner(p, 0) == -1
        assert _horner(p, 5) == 24
        assert _horner(p, Fraction(1, 2)) == Fraction(-33, 8)

    @given(small_polys, small_polys, st.integers(-5, 5))
    @settings(max_examples=80, deadline=None)
    def test_arithmetic_matches_pointwise(self, p, q, t):
        assert _horner(p - q, t) == _horner(p, t) - _horner(q, t)
        assert _horner(p * q, t) == _horner(p, t) * _horner(q, t)


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
        # The sign certificate and the equivalence chain evaluate the family
        # by a value recurrence; the polynomial route must give identical
        # numbers.
        from powsumseq.poly_certificates import _xy_values

        table = build_cert_table(8)
        for q in range(1, 7):
            values = _xy_values(q)
            for n in range(9):
                x, y = next(values)
                assert x == _horner(table.x_polys[n], q)
                assert y == _horner(table.y_polys[n], q)

    @staticmethod
    def _perturb_rows(monkeypatch, name, n, j, delta):
        """Make the scalar route ``name`` return row n with entry j moved by delta."""
        original = getattr(poly_certificates, name)

        def perturbed(*args):
            rows = original(*args)
            rows[n][j] += delta
            return rows

        monkeypatch.setattr(poly_certificates, name, perturbed)

    @pytest.mark.parametrize("j", [2, 7])  # a(3, 7) is the monic entry -1
    def test_perturbed_a_coefficient_raises(self, monkeypatch, j):
        self._perturb_rows(monkeypatch, "_scalar_a_rows", 3, j, 1)
        with pytest.raises(CertificateError, match="X_3: polynomial route"):
            build_cert_table(4)

    def test_perturbed_b_coefficient_raises(self, monkeypatch):
        # Feed the a route the true b table, so only the Y_3 comparison fails.
        true_a_rows = poly_certificates._scalar_a_rows
        true_b_rows = poly_certificates._scalar_b_rows
        monkeypatch.setattr(
            poly_certificates, "_scalar_a_rows",
            lambda n_max, b_table: true_a_rows(n_max, true_b_rows(n_max)),
        )
        self._perturb_rows(monkeypatch, "_scalar_b_rows", 3, 2, 1)
        with pytest.raises(CertificateError, match="Y_3: polynomial route"):
            build_cert_table(4)


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
        assert _horner(table.x_polys[2], 1) == -88
        assert _horner(table.y_polys[2], 1) == 4

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

    def test_fails_on_perturbed_sums(self, monkeypatch):
        # q = 4, m = 12: zeroing S(2) flips link k = 3, whose S(q-k) it is.
        _perturb(monkeypatch, 12, 2, lambda s: 0)
        verdict = verify_equivalence_chain(4)
        assert not verdict.passed
        assert verdict.checked == 6
        assert verdict.first_failure == "q=4: link k=3 has truth False, k=0 has True"
        assert verify_equivalence_chain(5).passed

    @pytest.mark.parametrize("perturb", [
        lambda s, c: (s, c),
        lambda s, c: (s, -c),  # c < 0
        lambda s, c: (0, c),  # s = 0
        lambda s, c: (-s, c),
    ])
    def test_sign_first_links_match_products(self, perturb):
        from powsumseq.poly_certificates import _link_holds, _xy_values

        for q in range(1, 81):
            factor = 3 * q + 1
            sums = _squared_prefix_sums(3 * q, q + 1)
            for k, (x, y) in zip(range(q + 2), _xy_values(q)):
                s, c = perturb(sums[q - k + 1], sums[q - k + 2] - sums[q - k + 1])
                assert _link_holds(factor, s, y, x, c) == (factor * s * y > x * c), (q, k)
                for x_alt in (0, -x):
                    assert _link_holds(factor, s, y, x_alt, c) == (
                        factor * s * y > x_alt * c
                    ), (q, k, x_alt)


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

    def test_left_fails_on_perturbed_sums(self, monkeypatch):
        # m = 10, r = 4: S(2) = 56 -> 5600 breaks the rise at j = 3.
        _force_exact(monkeypatch)
        _perturb(monkeypatch, 10, 2, lambda s: 100 * s)
        verdict = verify_left_peak_inequality(10)
        assert not verdict.passed
        assert verdict.checked == 3
        assert verdict.first_failure == "m=10, j=3: 10*S(2) >= 4*C(10,3)^2"
        assert verify_left_peak_inequality(11).passed

    def test_right_fails_on_perturbed_sums(self, monkeypatch):
        # q = 4 checks m = 12, 11, 10; zero the m = 11 sum up to i = q.
        _force_exact(monkeypatch)
        _perturb(monkeypatch, 11, 4, lambda s: 0)
        verdict = verify_right_peak_inequality(4)
        assert not verdict.passed
        assert verdict.checked == 2
        assert verdict.first_failure == "q=4, m=11: (3q+1)*S <= (q+1)*C(m,q+1)^2"
        assert verify_right_peak_inequality(5).passed

    @pytest.mark.parametrize("ms", [range(2, 401), (1000, 1001, 2000)])
    def test_ratio_walk_error_bound(self, ms):
        # Every index the left check asks for, and q + 1 for the right check
        # (m = 3q-2 has r_m = q), checked exactly against math.comb.
        from powsumseq.poly_certificates import _ratio_walk

        for m in ms:
            j_max = (m + 2) // 3 + 1
            sums = _squared_prefix_sums(m, j_max)
            for j, (t, err) in enumerate(_ratio_walk(m, j_max), start=1):
                exact = Fraction(sums[j], math.comb(m, j) ** 2)  # S(j-1) / C(m,j)^2
                assert abs(Fraction(t) - exact) <= Fraction(err), (m, j)
                assert 0 < err < 2**-35 * t, (m, j)

    def test_ties_stay_undecided(self, monkeypatch):
        # A walk value within err of a tie c*T = n never certifies: the index
        # goes to the exact sign, which reads 0 at a true tie.
        from powsumseq.poly_certificates import _exact_sign

        assert _exact_sign(3, 1, 9, 1) == 0  # 9 * S(0) = 1 * C(3, 1)^2
        assert _exact_sign(3, 1, 10, 1) == 1
        assert _exact_sign(3, 1, 8, 1) == -1
        # m = 10 has r = 4, c = 10; q = 4 has c = 13, n = 5 for m = 12, 11, 10.
        checks = ((verify_left_peak_inequality, 10, 4 / 10, 2 + 3 + 4 + 5),
                  (verify_right_peak_inequality, 4, 5 / 13, 3 * 6))
        yielded = _count_terms(monkeypatch)
        for verify, instance, tie, terms in checks:
            for t in (math.nextafter(tie, 0), tie, math.nextafter(tie, 1)):
                monkeypatch.setattr(
                    poly_certificates, "_ratio_walk",
                    lambda m, j_max: ((t, 2**-50 * t) for _ in range(j_max)),
                )
                yielded.clear()
                assert verify(instance).passed
                assert len(yielded) == terms

    def test_walk_failure_is_confirmed_exactly(self, monkeypatch):
        # A walk that claims every index fails, with no error, cannot fail a
        # true inequality: exact arithmetic decides each claimed failure.
        def claim(t):
            monkeypatch.setattr(
                poly_certificates, "_ratio_walk",
                lambda m, j_max: ((t, 0.0) for _ in range(j_max)),
            )

        claim(1e9)
        for m in range(2, 60):
            assert verify_left_peak_inequality(m) == Verdict(
                "left-peak-inequality", True, (m + 2) // 3, None
            )
        claim(0.0)
        for q in range(1, 30):
            assert verify_right_peak_inequality(q) == Verdict(
                "right-peak-inequality", True, 3, None
            )

    def test_filter_decides_without_prefix_sums(self, monkeypatch):
        # Not a term read, and not a stream opened.
        calls = []
        original = poly_certificates.binomial_power_sums
        monkeypatch.setattr(
            poly_certificates, "binomial_power_sums",
            lambda *args: calls.append(args) or original(*args),
        )
        for m in (200, 1000, 2000):
            assert verify_left_peak_inequality(m) == Verdict(
                "left-peak-inequality", True, (m + 2) // 3, None
            )
        assert verify_right_peak_inequality(500) == Verdict(
            "right-peak-inequality", True, 3, None
        )
        assert calls == []

    def test_right_m1_goes_exact(self, monkeypatch):
        # q = 1 checks m = 3, 2, 1; C(1, 2) = 0, so m = 1 reads S(0), S(1), S(2).
        yielded = _count_terms(monkeypatch)
        assert verify_right_peak_inequality(1).passed
        assert yielded == [1, 2, 2]

    def test_forced_exact_matches_filter(self, monkeypatch):
        filtered = [verify_left_peak_inequality(m) for m in range(2, 200)]
        filtered += [verify_right_peak_inequality(q) for q in range(1, 70)]
        _force_exact(monkeypatch)
        yielded = _count_terms(monkeypatch)
        exact = [verify_left_peak_inequality(m) for m in range(2, 200)]
        exact += [verify_right_peak_inequality(q) for q in range(1, 70)]
        assert exact == filtered
        assert len(yielded) > 0


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

    def test_route_count_is_the_compared_coefficients(self):
        # X_n has 2n + 2 coefficients and Y_n has 2n + 1: 3 + 7 + 11 + 15.
        report = run_battery(build_cert_table(3), 3, 3, 3, 5)
        assert report.verdicts[0] == Verdict("construction-routes-agree", True, 36, None)

    @pytest.mark.parametrize(
        "bounds,name",
        [((0, 3, 5), "chain_q_max"), ((3, -5, 5), "goal_q_max"), ((3, 3, 1), "left_m_max")],
    )
    def test_bound_with_no_instance_rejected(self, bounds, name):
        with pytest.raises(ValueError, match=f"{name} must be"):
            run_battery(build_cert_table(3), 3, *bounds)

    @pytest.mark.parametrize(
        "bounds,name",
        [
            ((0, 3, 3, 5), "sign_q_max"),
            ((3, 0, 3, 5), "chain_q_max"),
            ((3, 3, -5, 5), "goal_q_max"),
            ((3, 3, 3, 1), "left_m_max"),
        ],
    )
    def test_bounds_are_checked_before_the_table_is_built(self, bounds, name, monkeypatch):
        built = []
        build = poly_certificates.build_cert_table

        def counting(n_max):
            built.append(n_max)
            return build(n_max)

        monkeypatch.setattr(poly_certificates, "build_cert_table", counting)
        with pytest.raises(ValueError, match=f"{name} must be"):
            run_all(200, *bounds)
        assert built == []

    def test_json_dict(self):
        report = run_all(n_max=3, sign_q_max=3, chain_q_max=3, goal_q_max=3, left_m_max=5)
        payload = report.to_json_dict()
        assert payload["passed"] is True
        assert payload["bounds"]["n_max"] == 3
        assert all(check["first_failure"] is None for check in payload["checks"])

    def test_families_stop_at_their_first_failure(self, monkeypatch):
        # Zeroing S(2) for m = 12 breaks the chain at q = 4 and the rise at
        # m = 12; checked counts sum every instance up to the failing one.
        _force_exact(monkeypatch)
        _perturb(monkeypatch, 12, 2, lambda s: 0)
        report = run_all(n_max=3, sign_q_max=3, chain_q_max=6, goal_q_max=6, left_m_max=14)
        chain, right, left = report.verdicts[-3:]
        assert chain == Verdict(
            "equivalence-chain", False, 3 + 4 + 5 + 6,
            "q=4: link k=3 has truth False, k=0 has True",
        )
        assert right == Verdict("right-peak-inequality", True, 3 * 6, None)
        assert left == Verdict(
            "left-peak-inequality", False, sum((m + 2) // 3 for m in range(2, 12)) + 2,
            "m=12, j=2: 10*S(1) >= 4*C(12,2)^2",
        )
        assert not report.passed


class TestGoldenBattery:
    # run_all() at its defaults, copied from the all-products implementation.
    GOLDEN = [
        ("construction-routes-agree", True, 81003, None),
        ("b[n,2n-1]", True, 200, None),
        ("b[n,2n-2]", True, 200, None),
        ("b[n,2n-3]", True, 199, None),
        ("b[n,2]", True, 199, None),
        ("b[n,1]", True, 199, None),
        ("b[n,0]", True, 199, None),
        ("a[n,2n]", True, 200, None),
        ("a[n,2n-1]", True, 200, None),
        ("a[n,1]", True, 200, None),
        ("a[n,0]", True, 200, None),
        ("coefficient-domination", True, 40397, None),
        ("sign-certificate", True, 200, None),
        ("equivalence-chain", True, 126250, None),
        ("right-peak-inequality", True, 1500, None),
        ("left-peak-inequality", True, 667666, None),
    ]

    def test_defaults_match_golden(self):
        report = run_all()
        assert [
            (v.name, v.passed, v.checked, v.first_failure) for v in report.verdicts
        ] == self.GOLDEN

    def test_forced_exact_battery_is_identical(self, monkeypatch):
        bounds = dict(n_max=20, sign_q_max=20, chain_q_max=100, goal_q_max=100,
                      left_m_max=300)
        filtered = run_all(**bounds)
        _force_exact(monkeypatch)
        assert run_all(**bounds) == filtered


class TestDump:
    def test_format(self):
        text = dump_polynomials(build_cert_table(1))
        lines = text.splitlines()
        assert lines[0] == "X_0: 1 1"
        assert lines[1] == "Y_0: 1"
        assert lines[2] == "X_1: 1 -3 -5 -1"
        assert lines[3] == "Y_1: 1 2 1"
        assert text.endswith("\n")
