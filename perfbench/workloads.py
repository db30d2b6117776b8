"""The four benchmark workloads, each a closed loop with one caller.

A workload builds its inputs from the seed (``inputs``), makes one warm-up
call (``warm_up``), runs one pass over its items and calls ``mark`` as each
item returns (``run_pass``), and checks a pass's outputs against a reference
that does not share the route being measured (``check``).  ``check`` runs
outside the timed region and returns one message per failed check, each
naming the workload, (m, l, a) and the index involved.

Every call goes through an attribute of the ``powsumseq`` package object at
call time, so the traced pass sees it.  Why each workload exists, and which
layer it loads, is in NOTES.md beside this file.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import powsumseq as ps

import reference


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


class Grid:
    """The table2 sweep over l = 1..20, a = 1..3, m <= 100; one item per cell."""

    name = "grid"
    seeded = False

    def __init__(self, scratch_dir: str) -> None:
        self.csv_path = os.path.join(scratch_dir, "grid.csv")

    def inputs(self, seed: int):
        return ps.SweepGrid(l_range=(1, 20), a_range=(1, 3), m_max=100)

    def warm_up(self, grid) -> None:
        ps.evaluate_cell(grid.l_range[0], grid.a_range[0], grid.m_max)

    def run_pass(self, grid, mark):
        return ps.run_sweep(grid, processes=1, progress=lambda done, total, cell: mark())

    def check(self, grid, report) -> list[str]:
        failures = []
        table = report.table()
        for index, (l, a) in enumerate(grid.cell_keys()):
            got = table[(l, a)] or 0
            expected = reference.TABLE_ROWS[l][a - 1]
            if got != expected:
                failures.append(
                    f"grid (m={got}, l={l}, a={a}) index {index}: largest "
                    f"non-log-concave m is {got}, reference {expected}"
                )
            cell = report.cell(l, a)
            for label, ms in (
                ("not unimodal", cell.unimodal_violations),
                ("peak outside the window", cell.window_misses),
                ("peak not unique", cell.nonunique_ms),
            ):
                if ms:
                    failures.append(f"grid (m={ms[0]}, l={l}, a={a}) index {index}: {label}")
        if not report.unimodality_all or not report.window_all:
            failures.append("grid: unimodality_all or window_all is false")
        ps.export_csv(report, self.csv_path)
        with open(self.csv_path, encoding="utf-8", newline="") as fh:
            produced = fh.read()
        expected = reference.table_csv(grid.l_values, grid.a_values)
        if produced != expected:
            got_lines, want_lines = produced.splitlines(), expected.splitlines()
            line = next(
                (i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
                min(len(got_lines), len(want_lines)),
            )
            failures.append(f"grid index {line}: CSV export differs from the reference at line {line}")
        return failures


@dataclass(frozen=True)
class CentralInputs:
    ms: tuple[int, ...]
    probes: tuple[int, ...]  # one entry index r per m, checked independently
    ratio_ms: tuple[int, ...]


class Central:
    """The (l = 2, a = 1) family: one m per stratum of [2, 2000], plus ratios."""

    name = "central"
    seeded = True
    STRATA = 100
    WIDTH = 20
    # Narrow strata, ascending, so every seed costs about the same and the
    # central_ratio gaps must shrink from one to the next.  They stop at
    # m = 10500: one central_ratio(20000) alone takes 0.6-0.9 s.
    RATIO_STRATA = ((1000, 1100), (2000, 2200), (5000, 5250), (10000, 10500))

    def inputs(self, seed: int) -> CentralInputs:
        rng = random.Random(seed)
        ms = tuple(
            max(2, self.WIDTH * k + 1 + rng.randrange(self.WIDTH)) for k in range(self.STRATA)
        )
        probes = tuple(rng.randint(0, m) for m in ms)
        ratio_ms = tuple(rng.randrange(lo, hi) for lo, hi in self.RATIO_STRATA)
        return CentralInputs(ms, probes, ratio_ms)

    def warm_up(self, inputs: CentralInputs) -> None:
        m = inputs.ms[0]
        ps.scan(ps.central_binomial_sequence(m))
        ps.sandwich_bounds(m)

    def run_pass(self, inputs: CentralInputs, mark):
        items = []
        for m, r in zip(inputs.ms, inputs.probes):
            seq = ps.central_binomial_sequence(m)
            result = ps.scan(seq)
            bounds = ps.sandwich_bounds(m)
            peak = (m + 2) // 3
            kept = {
                i: (seq.numerators[i], seq.denominators[i])
                for i in (r, peak - 1, peak, peak + 1)
                if 0 <= i <= m
            }
            items.append((result, bounds, kept))
            mark()
        ratios = []
        for m in inputs.ratio_ms:
            ratios.append(ps.central_ratio(m))
            mark()
        return items, ratios

    def check(self, inputs: CentralInputs, outputs) -> list[str]:
        items, ratios = outputs
        failures = []
        for m, r, (result, bounds, kept) in zip(inputs.ms, inputs.probes, items):
            where = f"central (m={m}, l=2, a=1)"
            peak = (m + 2) // 3
            lc = result.log_concavity
            if not lc.log_concave:
                failures.append(f"{where} index {lc.first_violation}: not log-concave")
            if result.peaks.indices != (peak,):
                failures.append(
                    f"{where} index {peak}: peak set {result.peaks.indices}, expected ({peak},)"
                )
            num, den = kept[r]
            if num != sum(math.comb(m, i) ** 2 for i in range(r + 1)) or den != math.comb(
                2 * r, r
            ):
                failures.append(f"{where} index {r}: entry is not S(r) / C(2r, r)")
            pn, pd = kept[peak]
            for i in (peak - 1, peak + 1):
                if i in kept and kept[i][0] * pd >= pn * kept[i][1]:
                    failures.append(f"{where} index {i}: entry is not below the peak")
            if not (
                bounds.peak_index == peak
                and bounds.lower < bounds.value < bounds.upper
                and bounds.value == Fraction(pn, pd)
            ):
                failures.append(f"{where} index {peak}: sandwich does not hold the peak")
        gap = math.inf
        for m, ratio in zip(inputs.ratio_ms, ratios):
            new_gap = 1.0 - ratio.ratio
            if not 0.0 < new_gap < gap:
                failures.append(
                    f"central (m={m}, l=2, a=1) index {(m + 2) // 3}: central_ratio gap "
                    f"{new_gap!r} does not shrink from {gap!r}"
                )
            gap = new_gap
        return failures


class Polycert:
    """run_all() at the CLI defaults plus build_cert_table(5): one battery a pass."""

    name = "polycert"
    seeded = False

    def inputs(self, seed: int) -> None:
        return None

    def warm_up(self, inputs) -> None:
        ps.build_cert_table(5)

    def run_pass(self, inputs, mark):
        report = ps.run_all()
        table = ps.build_cert_table(5)
        mark()
        return report, table

    def check(self, inputs, outputs) -> list[str]:
        report, table = outputs
        failures = [
            f"polycert (l=2, a=1) {v.name}: {v.first_failure}"
            for v in report.verdicts
            if not v.passed
        ]
        if report.bounds != reference.POLYCERT_BOUNDS:
            failures.append(f"polycert (l=2, a=1): run_all bounds {report.bounds}")
        for n in range(6):
            for label, poly, want in (
                ("X", table.x_polys[n], reference.POLY_X[n]),
                ("Y", table.y_polys[n], reference.POLY_Y[n]),
            ):
                if poly.coeffs != want:
                    failures.append(
                        f"polycert (l=2, a=1) index {n}: {label}_{n} coefficients differ"
                    )
        return failures


@dataclass(frozen=True)
class RationalInputs:
    pairs: tuple[tuple[int, Fraction], ...]  # (l, a) for the peak scans
    probes: tuple[tuple[int, int], ...]  # one (m, r) per pair, checked independently
    ratios: tuple[tuple[int, Fraction], ...]  # (m, a) for conjectured_ratio at l = 3


class Rational:
    """Peak-window scans m = 2..120 at rational a = p/q, plus conjectured ratios."""

    name = "rational"
    seeded = True
    # Unordered {p, q}; the seed picks p/q or q/p.  Both orientations share
    # every row sum D_r, so the seed changes little of the cost.
    WEIGHT_CLASSES = ((2, 3), (3, 5), (4, 7))
    POWERS = (3, 4, 5)
    M_MAX = 120
    RATIO_POWER = 3
    RATIO_STRATA = ((400, 420), (540, 560), (680, 700))  # one per weight class

    def inputs(self, seed: int) -> RationalInputs:
        rng = random.Random(seed)

        def weight(p: int, q: int) -> Fraction:
            return Fraction(p, q) if rng.random() < 0.5 else Fraction(q, p)

        pairs = tuple((l, weight(p, q)) for l in self.POWERS for p, q in self.WEIGHT_CLASSES)
        probes = []
        for _ in pairs:
            m = rng.randint(2, self.M_MAX)
            probes.append((m, rng.randint(0, m)))
        ratios = tuple(
            (rng.randint(lo, hi), weight(p, q))
            for (p, q), (lo, hi) in zip(self.WEIGHT_CLASSES, self.RATIO_STRATA)
        )
        return RationalInputs(pairs, tuple(probes), ratios)

    def warm_up(self, inputs: RationalInputs) -> None:
        l, a = inputs.pairs[0]
        ps.conjecture_report(ps.SeqParams(2, l, a))

    def run_pass(self, inputs: RationalInputs, mark):
        reports = []
        for l, a in inputs.pairs:
            for m in range(2, self.M_MAX + 1):
                reports.append(ps.conjecture_report(ps.SeqParams(m, l, a)))
                mark()
        ratios = []
        for m, a in inputs.ratios:
            ratios.append(ps.conjectured_ratio(ps.SeqParams(m, self.RATIO_POWER, a)))
            mark()
        return reports, ratios

    def check(self, inputs: RationalInputs, outputs) -> list[str]:
        reports, ratios = outputs
        failures = [
            f"rational {rep.params.label()} index {rep.peak_set[0]}: not unimodal"
            for rep in reports
            if not rep.unimodal
        ]
        per_pair = self.M_MAX - 1
        for k, ((l, a), (m, r)) in enumerate(zip(inputs.pairs, inputs.probes)):
            params = ps.SeqParams(m, l, a)
            values = [ps.sequence_entry(params, i) for i in range(m + 1)]
            top = max(values)
            peak_set = tuple(i for i, v in enumerate(values) if v == top)
            report = reports[k * per_pair + m - 2]
            if report.peak_set != peak_set:
                failures.append(
                    f"rational {params.label()} index {peak_set[0]}: peak set "
                    f"{report.peak_set}, sequence_entry gives {peak_set}"
                )
            if ps.full_sequence(params).entry(r) != values[r]:
                failures.append(
                    f"rational {params.label()} index {r}: full_sequence and "
                    f"sequence_entry disagree"
                )
        for (m, a), ratio in zip(inputs.ratios, ratios):
            params = ps.SeqParams(m, self.RATIO_POWER, a)
            window = ps.peak_window(m, a)
            logs = [_log(ps.sequence_entry(params, i)) for i in window]
            best = max(logs)
            if abs(ratio.log_value - best) > 1e-9 * (1.0 + abs(best)):
                failures.append(
                    f"rational {params.label()} index {window[logs.index(best)]}: "
                    f"log peak {ratio.log_value!r}, sequence_entry gives {best!r}"
                )
        return failures


def make(name: str, scratch_dir: str):
    """The workload called ``name``; ``scratch_dir`` takes grid's CSV export."""
    if name == "grid":
        return Grid(scratch_dir)
    return {"central": Central, "polycert": Polycert, "rational": Rational}[name]()

