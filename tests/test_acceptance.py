"""Acceptance gate: the nine headline guarantees of this package.

Each test prints one ``[criterion N] PASS/FAIL - ...`` line (shown in the
run summary via the ``-rP`` report option) and fails hard if its guarantee
does not hold.  The reference grid values and polynomial coefficients are
frozen here; any drift in the computation is a failure, not a new baseline.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from powsumseq import (
    SeqParams,
    SweepGrid,
    TheoryViolation,
    build_cert_table,
    central_binomial_sequence,
    central_ratio,
    conjectured_ratio,
    run_all,
    run_sweep,
    sandwich_bounds,
    scan,
    sequence_entry,
)
from powsumseq.sweep_harness import export_csv

# ---------------------------------------------------------------------------
# Frozen reference values.
# ---------------------------------------------------------------------------

# Largest m <= 100 at which (m, l, a) is not log-concave; 0 = none.
REFERENCE_TABLE_ROWS = {
    1: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    2: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    3: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    4: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    5: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    6: (5, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    7: (5, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    8: (9, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    9: (12, 7, 10, 0, 0, 0, 0, 0, 0, 0),
    10: (13, 7, 10, 0, 0, 0, 0, 0, 0, 0),
    11: (16, 10, 15, 13, 15, 0, 0, 0, 0, 0),
    12: (19, 12, 15, 18, 21, 24, 28, 0, 0, 0),
    13: (20, 14, 20, 19, 21, 25, 28, 32, 35, 39),
    14: (24, 16, 20, 24, 28, 25, 29, 32, 36, 39),
    15: (27, 17, 25, 25, 28, 33, 37, 42, 46, 40),
    16: (30, 20, 25, 25, 29, 33, 38, 42, 47, 51),
    17: (31, 21, 30, 31, 35, 41, 46, 42, 47, 52),
    18: (35, 25, 30, 31, 36, 41, 46, 52, 57, 63),
    19: (39, 25, 35, 37, 42, 41, 47, 52, 58, 63),
    20: (42, 29, 35, 37, 43, 49, 55, 62, 68, 64),
}

# The certificate polynomials X_0..X_5 and Y_0..Y_5, coefficients ascending.
REFERENCE_X = {
    0: (1, 1),
    1: (-1, -5, -3, 1),
    2: (-1, -9, -28, -36, -15, 1),
    3: (-4, -44, -189, -407, -458, -254, -53, 1),
    4: (-36, -444, -2249, -6115, -9743, -9397, -5383, -1645, -189, 1),
    5: (-576, -7680, -43268, -135648, -262509, -330705, -275745, -149885,
        -50791, -9683, -711, 1),
}
REFERENCE_Y = {
    0: (1,),
    1: (1, 2, 1),
    2: (0, 0, 1, 2, 1),
    3: (0, 0, 1, 0, -2, 0, 1),
    4: (0, 0, 4, -4, -7, 8, 2, -4, 1),
    5: (0, 0, 36, -60, -35, 110, -37, -40, 35, -10, 1),
}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def paper_grid():
    """One full default-grid sweep, shared by criteria 1, 6 and 7."""
    start = time.monotonic()
    report = run_sweep(SweepGrid())
    return report, time.monotonic() - start


# ---------------------------------------------------------------------------
# Criterion 1: the default grid reproduces the reference 20 x 10 table.
# ---------------------------------------------------------------------------

def test_criterion_1_reference_table(paper_grid, tmp_path):
    report, elapsed = paper_grid
    computed = report.table()
    mismatches = [
        (l, a)
        for l in range(1, 21)
        for a in range(1, 11)
        if (computed[(l, a)] or 0) != REFERENCE_TABLE_ROWS[l][a - 1]
    ]
    spot_ok = (
        computed[(6, 1)] == 5
        and computed[(9, 2)] == 7
        and computed[(13, 10)] == 39
        and computed[(20, 1)] == 42
    )

    path = str(tmp_path / "grid.csv")
    export_csv(report, path)
    with open(path, encoding="utf-8") as fh:
        produced = fh.read()
    expected = "l\\a," + ",".join(str(a) for a in range(1, 11)) + "\n"
    for l in range(1, 21):
        expected += f"{l}," + ",".join(str(v) for v in REFERENCE_TABLE_ROWS[l]) + "\n"

    ok = not mismatches and spot_ok and produced == expected and elapsed < 300
    _report(
        1,
        ok,
        f"default 20x10 grid reproduced exactly, CSV byte-identical, "
        f"{elapsed:.1f}s (mismatches: {mismatches[:4]})",
    )


# ---------------------------------------------------------------------------
# Criterion 2: the twelve reference certificate polynomials are exact.
# ---------------------------------------------------------------------------

def test_criterion_2_certificate_polynomials():
    table = build_cert_table(5)
    bad = [
        name
        for n in range(6)
        for name, got, want in (
            (f"X_{n}", table.x_polys[n].coeffs, REFERENCE_X[n]),
            (f"Y_{n}", table.y_polys[n].coeffs, REFERENCE_Y[n]),
        )
        if got != want
    ]
    _report(2, not bad, f"all 12 reference polynomials coefficient-exact (bad: {bad})")


# ---------------------------------------------------------------------------
# Criterion 3: central case, every 2 <= m <= 2000: log-concave with the
# unique peak at floor((m+2)/3).
# ---------------------------------------------------------------------------

def test_criterion_3_central_structure():
    start = time.monotonic()
    bad = []
    for m in range(2, 2001):
        result = scan(central_binomial_sequence(m))
        if not result.log_concavity.log_concave or result.peaks.indices != ((m + 2) // 3,):
            bad.append(m)
    elapsed = time.monotonic() - start
    ok = not bad and elapsed < 120
    _report(
        3,
        ok,
        f"l=2, a=1: log-concave with unique peak at floor((m+2)/3) for all "
        f"m <= 2000, {elapsed:.1f}s (bad: {bad[:4]})",
    )


# ---------------------------------------------------------------------------
# Criterion 4: sandwich containment for all m <= 2000, and the central
# peak/law ratio approaches 1 decade over decade.
# ---------------------------------------------------------------------------

def test_criterion_4_sandwich_and_decay():
    try:
        for m in range(2, 2001):
            sandwich_bounds(m)
        containment = True
        containment_note = "containment exact for all 2 <= m <= 2000"
    except TheoryViolation as exc:
        containment = False
        containment_note = str(exc)

    gaps = [abs(central_ratio(10**k).ratio - 1.0) for k in (1, 2, 3, 4)]
    decreasing = all(x > y for x, y in zip(gaps, gaps[1:]))
    small = gaps[-1] < 0.01

    ok = containment and decreasing and small
    _report(
        4,
        ok,
        f"{containment_note}; |ratio-1| over decades m=10..10^4: "
        f"{', '.join(f'{g:.2e}' for g in gaps)} (strictly decreasing, final < 0.01)",
    )


# ---------------------------------------------------------------------------
# Criterion 5: the full certificate battery passes at acceptance scale.
# ---------------------------------------------------------------------------

def test_criterion_5_certificate_battery():
    report = run_all(
        n_max=200, sign_q_max=200, chain_q_max=500, goal_q_max=500, left_m_max=2000
    )
    failed = [v.name for v in report.verdicts if not v.passed]
    total = sum(v.checked for v in report.verdicts)
    _report(
        5,
        not failed,
        f"certificate battery: {len(report.verdicts)} checks, "
        f"{total} individual verifications, zero violations (failed: {failed})",
    )


# ---------------------------------------------------------------------------
# Criterion 6: peaks unique and inside the conjectured window on the whole
# grid (l=1 exceptions excluded), unimodality everywhere including m = 1.
# ---------------------------------------------------------------------------

def test_criterion_6_window_and_unimodality(paper_grid):
    report, _ = paper_grid
    exception_ok = True
    for a in range(1, 11):
        expected = {3, 2 * a + 4, 4 * a + 5} | ({12} if a == 1 else set())
        for l in range(1, 21):
            cell = report.cell(l, a)
            want = tuple(sorted(expected)) if l == 1 else ()
            if cell.exception_ms != want:
                exception_ok = False
    ok = report.unimodality_all and report.window_all and exception_ok
    _report(
        6,
        ok,
        f"unimodality: {report.unimodality_all}, unique peak in window: "
        f"{report.window_all}, l=1 exception lists exact: {exception_ok}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: grid observations - columns weakly increase, least failing
# power persists.
# ---------------------------------------------------------------------------

def test_criterion_7_grid_observations(paper_grid):
    report, _ = paper_grid
    columns = report.column_checks()
    thresholds = report.threshold_checks()
    bad_columns = [c.a for c in columns if not c.monotone]
    bad_thresholds = [(t.a, t.m) for t in thresholds if not t.persistent]
    ok = not bad_columns and not bad_thresholds and len(columns) == 10
    _report(
        7,
        ok,
        f"all 10 columns weakly increasing, {len(thresholds)} l-thresholds "
        f"all persistent (bad columns: {bad_columns}, bad thresholds: "
        f"{bad_thresholds[:4]})",
    )


# ---------------------------------------------------------------------------
# Criterion 8: the general measured-peak/law route agrees with the central
# closed-form route to 1e-9 relative at m = 10, 100, 1000.
# ---------------------------------------------------------------------------

def test_criterion_8_law_route_agreement():
    diffs = {}
    for m in (10, 100, 1000):
        general = conjectured_ratio(SeqParams(m, 2, 1)).ratio
        central = central_ratio(m).ratio
        diffs[m] = abs(general / central - 1.0)
    ok = all(d <= 1e-9 for d in diffs.values())
    _report(
        8,
        ok,
        "general vs central ratio route, relative difference: "
        + ", ".join(f"m={m}: {d:.1e}" for m, d in diffs.items()),
    )


# ---------------------------------------------------------------------------
# Criterion 9: the scan engine cross-validates against independent oracles.
# ---------------------------------------------------------------------------

def _naive_scan(entries):
    values = [Fraction(e) for e in entries]
    fallen, unimodal = False, True
    for x, y in zip(values, values[1:]):
        if y < x:
            fallen = True
        elif y > x and fallen:
            unimodal = False
    log_concave = all(
        values[i] ** 2 >= values[i - 1] * values[i + 1]
        for i in range(1, len(values) - 1)
    )
    top = max(values)
    peaks = tuple(i for i, v in enumerate(values) if v == top)
    return unimodal, log_concave, peaks


def _random_log_concave(rng, length):
    ratios = sorted(
        (Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(length - 1)),
        reverse=True,
    )
    seq = [Fraction(rng.randint(1, 40), rng.randint(1, 40))]
    for ratio in ratios:
        seq.append(seq[-1] * ratio)
    return seq


def test_criterion_9_scan_cross_validation():
    rng = random.Random(987312)

    # (a) prefix sums of termwise products of log-concave pairs stay
    # log-concave - 1000 random pairs.
    prefix_bad = 0
    for _ in range(1000):
        length = rng.randint(3, 12)
        xs = _random_log_concave(rng, length)
        ys = _random_log_concave(rng, length)
        acc, prefix = Fraction(0), []
        for x, y in zip(xs, ys):
            acc += x * y
            prefix.append(acc)
        if not scan(prefix).log_concavity.log_concave:
            prefix_bad += 1

    # (b) the filtered comparisons agree with naive Fraction arithmetic
    # on 300 random positive sequences.
    naive_bad = 0
    for _ in range(300):
        entries = [
            Fraction(rng.randint(1, 50), rng.randint(1, 50))
            for _ in range(rng.randint(1, 12))
        ]
        result = scan(entries)
        unimodal, log_concave, peaks = _naive_scan(entries)
        if (
            result.unimodality.unimodal != unimodal
            or result.log_concavity.log_concave != log_concave
            or result.peaks.indices != peaks
        ):
            naive_bad += 1

    # (c) every entry of the central sequence equals the independent
    # single-entry route, m <= 50.
    fast_bad = [
        m
        for m in range(51)
        if central_binomial_sequence(m).entries
        != tuple(sequence_entry(SeqParams(m, 2, 1), r) for r in range(m + 1))
    ]

    ok = prefix_bad == 0 and naive_bad == 0 and not fast_bad
    _report(
        9,
        ok,
        f"1000 log-concave prefix-sum pairs ({prefix_bad} bad), 300 naive-"
        f"oracle comparisons ({naive_bad} bad), central sequence equal to "
        f"sequence_entry to m=50 ({len(fast_bad)} bad)",
    )
