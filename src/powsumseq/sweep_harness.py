"""Grid sweeps over (l, a) recording, per cell, which lengths m break
log-concavity, plus the structural findings the grid is expected to show.

For each cell the harness evaluates every sequence with 1 <= m <= m_max
exactly and records:

* all m whose sequence is not log-concave (the cell's headline number is the
  largest such m, 0/absent when the whole column is log-concave),
* any m whose sequence is not weakly unimodal (expected: none),
* any m >= 2 whose peak is non-unique or falls outside the conjectured
  window {c-1, c, c+1}, c = floor((a*m + a + 2)/(2a + 1)) — except the known
  l = 1 exceptional list, which is tallied separately.

Three grid-level observations are then checked:

* column monotonicity: within each a-column the headline number never
  decreases as l grows,
* l-threshold persistence: for each (a, m), once log-concavity fails at some
  least power L it keeps failing for every larger l in range,
* unimodality everywhere.

Denominators of the sequence entries do not depend on m, so each cell
computes them once and reuses them across all m — that is what makes the
default 20 x 10 x 100 grid cheap.  Cells are independent: they can run in a
process pool (results are merged in sorted order, so reports are identical
regardless of worker count) and each finished cell can be journaled to a
shard directory, letting an interrupted sweep resume without recompute.

The CSV export lays the headline table out with header ``l\\a,1,2,...`` and
one row per l; absent (all log-concave) cells are written as 0.  The JSON
export round-trips the full report through ``report_from_json_dict``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .exact_core import (
    ExactSequence,
    SeqParams,
    full_sequence,
    scaled_prefix_sums,
    scaled_row_sums,
)
from .property_checks import (
    check_log_concave,
    known_l1_exception,
    peak_window,
    scan,
)

__all__ = [
    "SweepGrid",
    "CellResult",
    "SweepReport",
    "ThresholdResult",
    "ColumnCheck",
    "cell_sequences",
    "evaluate_cell",
    "run_sweep",
    "check_column_monotonicity",
    "check_l_threshold",
    "headline_csv",
    "export_csv",
    "load_csv_table",
    "export_json",
    "load_json",
    "report_from_json_dict",
]


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive integer ranges for l and a, and the largest length m."""

    l_range: tuple[int, int] = (1, 20)
    a_range: tuple[int, int] = (1, 10)
    m_max: int = 100

    def __post_init__(self) -> None:
        if self.l_range[0] < 1 or self.l_range[0] > self.l_range[1]:
            raise ValueError(f"bad l_range {self.l_range}")
        if self.a_range[0] < 1 or self.a_range[0] > self.a_range[1]:
            raise ValueError(f"bad a_range {self.a_range}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")

    @property
    def l_values(self) -> range:
        return range(self.l_range[0], self.l_range[1] + 1)

    @property
    def a_values(self) -> range:
        return range(self.a_range[0], self.a_range[1] + 1)

    def cell_keys(self) -> list[tuple[int, int]]:
        return [(l, a) for l in self.l_values for a in self.a_values]

    def to_json_dict(self) -> dict:
        return {
            "l_range": list(self.l_range),
            "a_range": list(self.a_range),
            "m_max": self.m_max,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepGrid":
        return cls(
            l_range=tuple(data["l_range"]),
            a_range=tuple(data["a_range"]),
            m_max=data["m_max"],
        )


@dataclass(frozen=True)
class CellResult:
    """Everything recorded for one (l, a) cell over m = 1..m_max."""

    l: int
    a: int
    m_max: int
    non_lc_ms: tuple[int, ...]
    unimodal_violations: tuple[int, ...]
    window_misses: tuple[int, ...]
    nonunique_ms: tuple[int, ...]
    exception_ms: tuple[int, ...]

    @property
    def largest_non_lc_m(self) -> int | None:
        return self.non_lc_ms[-1] if self.non_lc_ms else None

    def to_json_dict(self) -> dict:
        return {
            "l": self.l,
            "a": self.a,
            "m_max": self.m_max,
            "largest_non_lc_m": self.largest_non_lc_m,
            "non_lc_ms": list(self.non_lc_ms),
            "unimodal_violations": list(self.unimodal_violations),
            "window_misses": list(self.window_misses),
            "nonunique_ms": list(self.nonunique_ms),
            "exception_ms": list(self.exception_ms),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CellResult":
        return cls(
            l=data["l"],
            a=data["a"],
            m_max=data["m_max"],
            non_lc_ms=tuple(data["non_lc_ms"]),
            unimodal_violations=tuple(data["unimodal_violations"]),
            window_misses=tuple(data["window_misses"]),
            nonunique_ms=tuple(data["nonunique_ms"]),
            exception_ms=tuple(data["exception_ms"]),
        )


def cell_sequences(l: int, a: Fraction, m_min: int, m_max: int) -> Iterator[ExactSequence]:
    """Yield the sequence of every m = m_min..m_max for one (l, a).

    The denominators D_r do not depend on m, so they are computed once.
    """
    dens = scaled_row_sums(l, a, m_max)
    for m in range(m_min, m_max + 1):
        params = SeqParams(m, l, a)
        yield ExactSequence(params, tuple(scaled_prefix_sums(m, l, a)), tuple(dens[: m + 1]))


def evaluate_cell(l: int, a: int, m_max: int) -> CellResult:
    """Scan every m = 1..m_max for one (l, a); denominators computed once."""
    weight = Fraction(a)
    non_lc: list[int] = []
    uni_viol: list[int] = []
    misses: list[int] = []
    nonuniq: list[int] = []
    exceptions: list[int] = []
    for seq in cell_sequences(l, weight, 1, m_max):
        params, m = seq.params, seq.params.m
        result = scan(seq)
        if not result.log_concavity.log_concave:
            non_lc.append(m)
        if not result.unimodality.unimodal:
            uni_viol.append(m)
        if m >= 2:
            if known_l1_exception(params):
                exceptions.append(m)
            else:
                if not result.peaks.unique:
                    nonuniq.append(m)
                if not set(result.peaks.indices) <= set(peak_window(m, weight)):
                    misses.append(m)
    return CellResult(
        l=l,
        a=a,
        m_max=m_max,
        non_lc_ms=tuple(non_lc),
        unimodal_violations=tuple(uni_viol),
        window_misses=tuple(misses),
        nonunique_ms=tuple(nonuniq),
        exception_ms=tuple(exceptions),
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Least power at which log-concavity fails for one (a, m), if any.

    ``persistent`` says failure continues for every larger l in range; it is
    vacuously True when there is no threshold.
    """

    a: int
    m: int
    l_max: int
    threshold: int | None
    persistent: bool
    failing_ls: tuple[int, ...]


@dataclass(frozen=True)
class ColumnCheck:
    """Weak monotonicity of one a-column of the headline table."""

    a: int
    monotone: bool
    first_violation: tuple[int, int] | None  # (previous l, offending l)


@dataclass(frozen=True)
class SweepReport:
    """A grid plus every cell result; observations are derived views."""

    grid: SweepGrid
    cells: dict

    def cell(self, l: int, a: int) -> CellResult:
        return self.cells[(l, a)]

    def table(self) -> dict:
        """(l, a) -> largest non-log-concave m, or None when all are."""
        return {key: cell.largest_non_lc_m for key, cell in sorted(self.cells.items())}

    @property
    def unimodality_all(self) -> bool:
        return all(not c.unimodal_violations for c in self.cells.values())

    @property
    def window_all(self) -> bool:
        return all(
            not c.window_misses and not c.nonunique_ms for c in self.cells.values()
        )

    def column_checks(self) -> list[ColumnCheck]:
        out = []
        for a in self.grid.a_values:
            prev = 0
            prev_l = None
            verdict = ColumnCheck(a, True, None)
            for l in self.grid.l_values:
                cur = self.cells[(l, a)].largest_non_lc_m or 0
                if cur < prev:
                    verdict = ColumnCheck(a, False, (prev_l, l))
                    break
                prev, prev_l = cur, l
            out.append(verdict)
        return out

    def threshold_checks(self) -> list[ThresholdResult]:
        """Persistence of the least failing power, for every (a, m) that has
        one, derived from the recorded per-m failures."""
        l_lo, l_hi = self.grid.l_range
        out = []
        for a in self.grid.a_values:
            failing_by_m: dict[int, list[int]] = {}
            for l in self.grid.l_values:
                for m in self.cells[(l, a)].non_lc_ms:
                    failing_by_m.setdefault(m, []).append(l)
            for m in sorted(failing_by_m):
                ls = sorted(failing_by_m[m])
                threshold = ls[0]
                persistent = ls == list(range(threshold, l_hi + 1))
                out.append(
                    ThresholdResult(a, m, l_hi, threshold, persistent, tuple(ls))
                )
        return out

    def to_json_dict(self) -> dict:
        return {
            "grid": self.grid.to_json_dict(),
            "cells": [cell.to_json_dict() for _, cell in sorted(self.cells.items())],
            "column_monotone": {
                str(c.a): c.monotone for c in self.column_checks()
            },
            "l_threshold_persistent": [
                {
                    "a": t.a,
                    "m": t.m,
                    "threshold": t.threshold,
                    "persistent": t.persistent,
                }
                for t in self.threshold_checks()
            ],
            "unimodality_all": self.unimodality_all,
            "window_all": self.window_all,
        }


def report_from_json_dict(data: dict) -> SweepReport:
    grid = SweepGrid.from_json_dict(data["grid"])
    cells = {}
    for cell_data in data["cells"]:
        cell = CellResult.from_json_dict(cell_data)
        cells[(cell.l, cell.a)] = cell
    return SweepReport(grid, cells)


def _cell_worker(key: tuple[int, int, int]) -> CellResult:
    l, a, m_max = key
    return evaluate_cell(l, a, m_max)


def _shard_path(shard_dir: str, l: int, a: int) -> str:
    return os.path.join(shard_dir, f"cell_l{l:03d}_a{a:03d}.json")


def _load_shard(shard_dir: str, l: int, a: int, m_max: int) -> CellResult | None:
    path = _shard_path(shard_dir, l, a)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        cell = CellResult.from_json_dict(data)
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if cell.l != l or cell.a != a or cell.m_max != m_max:
        return None
    return cell


def _write_shard(shard_dir: str, cell: CellResult) -> None:
    path = _shard_path(shard_dir, cell.l, cell.a)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(cell.to_json_dict(), fh)
    os.replace(tmp, path)


def run_sweep(
    grid: SweepGrid,
    processes: int = 1,
    shard_dir: str | None = None,
    progress=None,
) -> SweepReport:
    """Evaluate every cell of the grid, optionally in parallel and sharded.

    ``shard_dir``: finished cells are journaled there as JSON and reloaded
    (after validating parameters) on a rerun, so interrupted sweeps resume.
    ``progress``: optional callable invoked as progress(done, total, cell).
    At most one worker is started per pending cell and per CPU.  The report
    is identical for any ``processes`` value.
    """
    if processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    if shard_dir is not None:
        os.makedirs(shard_dir, exist_ok=True)

    keys = grid.cell_keys()
    cells: dict = {}
    if shard_dir is not None:
        for l, a in keys:
            cached = _load_shard(shard_dir, l, a, grid.m_max)
            if cached is not None:
                cells[(l, a)] = cached

    pending = [(l, a, grid.m_max) for (l, a) in keys if (l, a) not in cells]
    done = len(cells)
    total = len(keys)
    processes = min(processes, len(pending), os.cpu_count() or 1)

    def finish(cell: CellResult) -> None:
        nonlocal done
        cells[(cell.l, cell.a)] = cell
        if shard_dir is not None:
            _write_shard(shard_dir, cell)
        done += 1
        if progress is not None:
            progress(done, total, cell)

    if processes > 1:
        with multiprocessing.Pool(processes) as pool:
            for cell in pool.imap(_cell_worker, pending):
                finish(cell)
    else:
        for key in pending:
            finish(_cell_worker(key))

    ordered = {key: cells[key] for key in sorted(cells)}
    return SweepReport(grid, ordered)


def check_column_monotonicity(report: SweepReport) -> list[ColumnCheck]:
    """Weak increase of the headline number down every a-column."""
    return report.column_checks()


def check_l_threshold(a: int, m: int, l_max: int) -> ThresholdResult:
    """Recompute, from scratch, the least l <= l_max at which (m, l, a)
    loses log-concavity, and whether the failure persists to l_max."""
    if a < 1 or m < 1 or l_max < 1:
        raise ValueError("need a >= 1, m >= 1, l_max >= 1")
    weight = Fraction(a)
    failing = []
    for l in range(1, l_max + 1):
        verdict = check_log_concave(full_sequence(SeqParams(m, l, weight)))
        if not verdict.log_concave:
            failing.append(l)
    threshold = failing[0] if failing else None
    persistent = (
        True
        if threshold is None
        else failing == list(range(threshold, l_max + 1))
    )
    return ThresholdResult(a, m, l_max, threshold, persistent, tuple(failing))


def headline_csv(report: SweepReport) -> str:
    r"""The headline table: header ``l\a,1,2,...``, one row per l, absent
    (all log-concave) cells as 0, newline-terminated lines.

    Partial reports give only the l-rows that have at least one recorded
    cell; a report with no cells gives just the header.
    """
    grid = report.grid
    lines = ["l\\a," + ",".join(str(a) for a in grid.a_values)]
    for l in grid.l_values:
        row_cells = [report.cells.get((l, a)) for a in grid.a_values]
        if any(cell is not None for cell in row_cells):
            row = [str(l)] + [
                str(cell.largest_non_lc_m or 0) if cell is not None else "0"
                for cell in row_cells
            ]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def export_csv(report: SweepReport, path: str) -> None:
    """Write ``headline_csv(report)`` to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(headline_csv(report))


def load_csv_table(path: str) -> dict:
    """Read a headline-table CSV back to {(l, a): int} (0 = all log-concave)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    header = lines[0].split(",")
    if header[0] != "l\\a":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    a_values = [int(x) for x in header[1:]]
    table = {}
    for line in lines[1:]:
        parts = line.split(",")
        l = int(parts[0])
        for a, value in zip(a_values, parts[1:]):
            table[(l, a)] = int(value)
    return table


def export_json(report: SweepReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=1)
        fh.write("\n")


def load_json(path: str) -> SweepReport:
    with open(path, encoding="utf-8") as fh:
        return report_from_json_dict(json.load(fh))
