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
Each shard carries a sha256 digest of its cell and a fingerprint of the
code that decided and wrote it (a sha256 of the source of ``exact_core``,
``property_checks`` and this module, which defines the shard format); a
shard that fails either check is recomputed rather than trusted.

The CSV export lays the headline table out with header ``l\\a,1,2,...`` and
one row per l; absent (all log-concave) cells are written as 0.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import exact_core, property_checks
from .exact_core import (
    ExactSequence,
    SeqParams,
    scaled_prefix_sums,
    scaled_row_sums,
)
from .property_checks import PropertyReport, scan

__all__ = [
    "SweepGrid",
    "CellResult",
    "SweepReport",
    "ThresholdResult",
    "ColumnCheck",
    "cell_sequences",
    "evaluate_cell",
    "run_sweep",
    "headline_csv",
    "export_csv",
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

    The denominators D_r do not depend on m, so they are computed once,
    after (m_max, l, a) has been validated.
    """
    SeqParams(m_max, l, a)
    dens = scaled_row_sums(l, a, m_max)
    for m in range(m_min, m_max + 1):
        params = SeqParams(m, l, a)
        yield ExactSequence(params, tuple(scaled_prefix_sums(m, l, a)), tuple(dens[: m + 1]))


def evaluate_cell(l: int, a: int, m_max: int) -> CellResult:
    """Scan every m = 1..m_max for one (l, a); denominators computed once.

    Each m is filed under the buckets of its :class:`PropertyReport`.
    """
    non_lc: list[int] = []
    uni_viol: list[int] = []
    misses: list[int] = []
    nonuniq: list[int] = []
    exceptions: list[int] = []
    for seq in cell_sequences(l, Fraction(a), 1, m_max):
        m = seq.params.m
        report = PropertyReport.from_scan(seq.params, scan(seq))
        if not report.log_concave:
            non_lc.append(m)
        if not report.unimodal:
            uni_viol.append(m)
        if report.known_exception:
            exceptions.append(m)
        if report.peak_rules_apply:
            if not report.unique_max:
                nonuniq.append(m)
            if not report.window_hit:
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

    ``failing_ls`` lists every power in the grid's l range at which (m, l, a)
    is not log-concave, and ``threshold`` is the least of them.
    ``persistent`` says failure continues for every larger l in range; it is
    vacuously True when there is no threshold.
    """

    a: int
    m: int
    threshold: int | None
    persistent: bool
    failing_ls: tuple[int, ...]

    @classmethod
    def from_failing(
        cls, a: int, m: int, l_max: int, failing: Iterable[int]
    ) -> "ThresholdResult":
        """The result for the ascending powers ``failing`` <= l_max at which
        (m, l, a) is not log-concave."""
        failing = tuple(failing)
        threshold = failing[0] if failing else None
        persistent = threshold is None or failing == tuple(range(threshold, l_max + 1))
        return cls(a, m, threshold, persistent, failing)


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
        l_max = self.grid.l_range[1]
        out = []
        for a in self.grid.a_values:
            failing_by_m: dict[int, list[int]] = {}
            for l in self.grid.l_values:
                for m in self.cells[(l, a)].non_lc_ms:
                    failing_by_m.setdefault(m, []).append(l)
            out.extend(
                ThresholdResult.from_failing(a, m, l_max, failing_by_m[m])
                for m in sorted(failing_by_m)
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


def _cell_worker(key: tuple[int, int, int]) -> CellResult:
    l, a, m_max = key
    return evaluate_cell(l, a, m_max)


def _shard_path(shard_dir: str, l: int, a: int) -> str:
    return os.path.join(shard_dir, f"cell_l{l:03d}_a{a:03d}.json")


def _cell_digest(cell_dict: dict) -> str:
    # Imported here: hashlib loads OpenSSL, about 3.5 MB of resident memory
    # that only sharded sweeps need.
    import hashlib

    canonical = json.dumps(cell_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@cache
def _code_fingerprint() -> str:
    """sha256 of the source of the modules that decide a cell.

    A shard written by other code may hold other verdicts or another
    format, so it is not trusted even when its own digest matches.
    """
    import hashlib

    digest = hashlib.sha256()
    for path in (exact_core.__file__, property_checks.__file__, __file__):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _load_shard(shard_dir: str, l: int, a: int, m_max: int) -> CellResult | None:
    """The cell stored for (l, a, m_max), or None if it is missing or untrusted.

    A shard written by other code (see ``_code_fingerprint``), or whose
    digest does not match its cell, is treated as missing, so the cell is
    recomputed.
    """
    path = _shard_path(shard_dir, l, a)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if data["code"] != _code_fingerprint() or data["sha256"] != _cell_digest(data["cell"]):
            return None
        cell = CellResult.from_json_dict(data["cell"])
    except (OSError, ValueError, KeyError, TypeError):
        return None
    if cell.l != l or cell.a != a or cell.m_max != m_max:
        return None
    return cell


def _write_shard(shard_dir: str, cell: CellResult) -> None:
    path = _shard_path(shard_dir, cell.l, cell.a)
    tmp = path + ".tmp"
    cell_dict = cell.to_json_dict()
    shard = {
        "code": _code_fingerprint(),
        "sha256": _cell_digest(cell_dict),
        "cell": cell_dict,
    }
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(shard, fh)
    os.replace(tmp, path)


def run_sweep(
    grid: SweepGrid,
    processes: int = 1,
    shard_dir: str | None = None,
    progress=None,
) -> SweepReport:
    """Evaluate every cell of the grid, optionally in parallel and sharded.

    ``shard_dir``: finished cells are journaled there as JSON and reloaded
    (after validating code fingerprint, digest and parameters) on a rerun, so
    interrupted sweeps resume.
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
        # Imported here: only a pool needs it, and importing it costs about
        # 0.8 MB of resident memory.
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            for cell in pool.imap(_cell_worker, pending):
                finish(cell)
    else:
        for key in pending:
            finish(_cell_worker(key))

    ordered = {key: cells[key] for key in sorted(cells)}
    return SweepReport(grid, ordered)


def headline_csv(report: SweepReport) -> str:
    r"""The headline table: header ``l\a,1,2,...``, one row per l, absent
    (all log-concave) cells as 0, newline-terminated lines."""
    grid = report.grid
    lines = ["l\\a," + ",".join(str(a) for a in grid.a_values)]
    for l in grid.l_values:
        row = [str(report.cells[(l, a)].largest_non_lc_m or 0) for a in grid.a_values]
        lines.append(",".join([str(l), *row]))
    return "\n".join(lines) + "\n"


def export_csv(report: SweepReport, path: str) -> None:
    """Write ``headline_csv(report)`` to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(headline_csv(report))
