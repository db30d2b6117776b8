"""Sweep-harness tests: frozen cell values, determinism across worker
counts, shard resume behaviour, and the CSV/JSON export formats."""

import json
from fractions import Fraction

import pytest

from powsumseq import (
    SeqParams,
    SweepGrid,
    SweepReport,
    check_column_monotonicity,
    check_l_threshold,
    evaluate_cell,
    full_sequence,
    run_sweep,
    sweep_harness,
)
from powsumseq.sweep_harness import (
    CellResult,
    cell_sequences,
    export_csv,
    export_json,
    load_csv_table,
    load_json,
    report_from_json_dict,
)

SMALL_GRID = SweepGrid(l_range=(1, 7), a_range=(1, 2), m_max=10)


@pytest.fixture(scope="module")
def small_report():
    return run_sweep(SMALL_GRID)


class TestSweepGrid:
    def test_defaults(self):
        grid = SweepGrid()
        assert grid.l_range == (1, 20)
        assert grid.a_range == (1, 10)
        assert grid.m_max == 100
        assert len(grid.cell_keys()) == 200

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(l_range=(0, 5))
        with pytest.raises(ValueError):
            SweepGrid(l_range=(5, 2))
        with pytest.raises(ValueError):
            SweepGrid(a_range=(3, 1))
        with pytest.raises(ValueError):
            SweepGrid(m_max=0)

    def test_json_round_trip(self):
        grid = SweepGrid((2, 4), (1, 3), 17)
        assert SweepGrid.from_json_dict(grid.to_json_dict()) == grid


class TestEvaluateCell:
    def test_first_failing_cell(self):
        cell = evaluate_cell(6, 1, 10)
        assert cell.non_lc_ms == (5,)
        assert cell.largest_non_lc_m == 5
        assert cell.unimodal_violations == ()
        assert cell.window_misses == ()
        assert cell.nonunique_ms == ()

    def test_second_column_cell(self):
        cell = evaluate_cell(9, 2, 10)
        assert cell.non_lc_ms == (7,)

    def test_clean_central_cell(self):
        cell = evaluate_cell(2, 1, 30)
        assert cell.non_lc_ms == ()
        assert cell.largest_non_lc_m is None

    def test_l1_exceptions_tallied_separately(self):
        cell = evaluate_cell(1, 1, 15)
        assert cell.exception_ms == (3, 6, 9, 12)
        assert cell.window_misses == ()
        assert cell.non_lc_ms == ()

    def test_cell_sequences_match_full_sequence(self):
        a = Fraction(3, 2)
        seqs = list(cell_sequences(4, a, 2, 9))
        assert [seq.params.m for seq in seqs] == list(range(2, 10))
        assert seqs == [full_sequence(SeqParams(m, 4, a)) for m in range(2, 10)]

    def test_cell_json_round_trip(self):
        cell = evaluate_cell(11, 5, 20)
        assert cell.non_lc_ms == (15,)
        assert CellResult.from_json_dict(cell.to_json_dict()) == cell


class TestRunSweep:
    def test_report_shape(self, small_report):
        assert set(small_report.cells) == set(SMALL_GRID.cell_keys())
        assert small_report.cell(6, 1).largest_non_lc_m == 5
        assert small_report.table()[(7, 1)] == 5
        assert small_report.table()[(3, 2)] is None

    def test_observations_on_small_grid(self, small_report):
        assert small_report.unimodality_all
        assert small_report.window_all
        assert all(c.monotone for c in check_column_monotonicity(small_report))
        assert all(t.persistent for t in small_report.threshold_checks())
        thresholds = {
            (t.a, t.m): t.threshold for t in small_report.threshold_checks()
        }
        assert thresholds[(1, 5)] == 6

    def test_deterministic_across_worker_counts(self, small_report):
        parallel = run_sweep(SMALL_GRID, processes=2)
        assert parallel == small_report

    def test_progress_callback(self):
        seen = []
        grid = SweepGrid((1, 2), (1, 1), 5)
        run_sweep(grid, progress=lambda done, total, cell: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL_GRID, processes=0)

    def test_worker_count_is_capped(self, monkeypatch):
        sizes = []

        class PoolRecorder:
            """Stands in for multiprocessing.Pool; runs the cells in-process."""

            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(sweep_harness.multiprocessing, "Pool", PoolRecorder)
        monkeypatch.setattr(sweep_harness.os, "cpu_count", lambda: 4)
        three = SweepGrid((1, 3), (1, 1), 5)
        six = SweepGrid((1, 3), (1, 2), 5)
        serial = run_sweep(three)
        assert run_sweep(three, processes=10**6) == serial  # capped by pending cells
        run_sweep(six, processes=10**6)  # capped by CPUs
        run_sweep(six, processes=2)
        assert sizes == [3, 4, 2]
        monkeypatch.setattr(sweep_harness.os, "cpu_count", lambda: None)
        assert run_sweep(three, processes=8) == serial  # one CPU: no pool
        assert sizes == [3, 4, 2]


class TestSharding:
    GRID = SweepGrid((1, 3), (1, 2), 8)

    def test_shards_written_and_reused(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        first = run_sweep(self.GRID, shard_dir=shard_dir)
        files = sorted(p.name for p in (tmp_path / "shards").iterdir())
        assert files == [
            f"cell_l{l:03d}_a{a:03d}.json" for l in (1, 2, 3) for a in (1, 2)
        ]
        # A resumed run recomputes nothing but returns the identical report.
        calls = []
        second = run_sweep(
            self.GRID,
            shard_dir=shard_dir,
            progress=lambda done, total, cell: calls.append(cell),
        )
        assert second == first
        assert calls == []  # every cell came from a shard

    def test_resume_after_partial_loss(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        first = run_sweep(self.GRID, shard_dir=shard_dir)
        (tmp_path / "shards" / "cell_l002_a001.json").unlink()
        second = run_sweep(self.GRID, shard_dir=shard_dir)
        assert second == first

    def test_corrupt_shard_recomputed(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        first = run_sweep(self.GRID, shard_dir=shard_dir)
        (tmp_path / "shards" / "cell_l001_a001.json").write_text("not json{")
        second = run_sweep(self.GRID, shard_dir=shard_dir)
        assert second == first

    def test_stale_shard_with_wrong_m_max_recomputed(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        run_sweep(SweepGrid((1, 3), (1, 2), 5), shard_dir=shard_dir)
        report = run_sweep(self.GRID, shard_dir=shard_dir)
        assert report == run_sweep(self.GRID)
        for cell in report.cells.values():
            assert cell.m_max == 8


class TestCheckLThreshold:
    def test_documented_examples(self):
        result = check_l_threshold(1, 5, 20)
        assert result.threshold == 6
        assert result.persistent
        assert result.failing_ls == tuple(range(6, 21))

    def test_second_column(self):
        result = check_l_threshold(2, 7, 20)
        assert result.threshold == 9
        assert result.persistent
        assert result.failing_ls == tuple(range(9, 21))

    def test_no_threshold_is_vacuously_persistent(self):
        result = check_l_threshold(1, 100, 20)
        assert result.threshold is None
        assert result.persistent
        assert result.failing_ls == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            check_l_threshold(0, 5, 20)


class TestColumnChecks:
    @staticmethod
    def _cell(l, a, non_lc=()):
        return CellResult(
            l=l, a=a, m_max=10, non_lc_ms=tuple(non_lc),
            unimodal_violations=(), window_misses=(), nonunique_ms=(),
            exception_ms=(),
        )

    def test_synthetic_violation_detected(self):
        grid = SweepGrid((1, 3), (1, 1), 10)
        cells = {
            (1, 1): self._cell(1, 1, (5,)),
            (2, 1): self._cell(2, 1),        # drops back to 0: violation
            (3, 1): self._cell(3, 1, (7,)),
        }
        report = SweepReport(grid, cells)
        (verdict,) = report.column_checks()
        assert not verdict.monotone
        assert verdict.first_violation == (1, 2)

    def test_non_persistent_threshold_detected(self):
        grid = SweepGrid((1, 3), (1, 1), 10)
        cells = {
            (1, 1): self._cell(1, 1, (5,)),
            (2, 1): self._cell(2, 1),        # m=5 recovers: not persistent
            (3, 1): self._cell(3, 1, (5,)),
        }
        report = SweepReport(grid, cells)
        (threshold,) = report.threshold_checks()
        assert threshold.m == 5
        assert threshold.threshold == 1
        assert not threshold.persistent
        assert threshold.failing_ls == (1, 3)


class TestExports:
    def test_csv_layout(self, small_report, tmp_path):
        path = str(tmp_path / "table.csv")
        export_csv(small_report, path)
        text = (tmp_path / "table.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "l\\a,1,2"
        assert lines[1] == "1,0,0"
        assert lines[6] == "6,5,0"
        assert lines[7] == "7,5,0"
        assert text.endswith("\n")

    def test_csv_round_trip(self, small_report, tmp_path):
        path = str(tmp_path / "table.csv")
        export_csv(small_report, path)
        table = load_csv_table(path)
        for (l, a), cell in small_report.cells.items():
            assert table[(l, a)] == (cell.largest_non_lc_m or 0)

    def test_csv_empty_report_is_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        export_csv(SweepReport(SMALL_GRID, {}), path)
        assert (tmp_path / "empty.csv").read_text() == "l\\a,1,2\n"

    def test_csv_partial_report_skips_missing_rows(self, small_report, tmp_path):
        partial_cells = {
            key: cell for key, cell in small_report.cells.items() if key[0] != 3
        }
        path = str(tmp_path / "partial.csv")
        export_csv(SweepReport(SMALL_GRID, partial_cells), path)
        lines = (tmp_path / "partial.csv").read_text().splitlines()
        assert len(lines) == 1 + 6  # header + rows for l in {1,2,4,5,6,7}
        assert all(not line.startswith("3,") for line in lines)

    def test_csv_rejects_foreign_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a\\l,1,2\n1,0,0\n")
        with pytest.raises(ValueError):
            load_csv_table(str(bad))

    def test_json_round_trip_is_exact(self, small_report, tmp_path):
        path = str(tmp_path / "report.json")
        export_json(small_report, path)
        assert load_json(path) == small_report

    def test_json_payload_shape(self, small_report, tmp_path):
        path = str(tmp_path / "report.json")
        export_json(small_report, path)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["unimodality_all"] is True
        assert payload["window_all"] is True
        assert payload["grid"]["m_max"] == 10
        assert len(payload["cells"]) == len(small_report.cells)
        assert payload["column_monotone"] == {"1": True, "2": True}

    def test_report_from_json_dict_matches_load(self, small_report, tmp_path):
        path = str(tmp_path / "report.json")
        export_json(small_report, path)
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert report_from_json_dict(payload) == small_report
