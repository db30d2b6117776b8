"""Sweep-harness tests: frozen cell values, determinism across worker
counts, shard resume behaviour, and the CSV/JSON export formats."""

import json
import multiprocessing
from fractions import Fraction

import pytest

from powsumseq import (
    SeqParams,
    SweepGrid,
    SweepReport,
    check_l_threshold,
    conjecture_report,
    evaluate_cell,
    full_sequence,
    run_sweep,
    sweep_harness,
)
from powsumseq.sweep_harness import (
    CellResult,
    cell_sequences,
    export_csv,
    headline_csv,
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

    def test_json_dict(self):
        grid = SweepGrid((2, 4), (1, 3), 17)
        assert grid.to_json_dict() == {"l_range": [2, 4], "a_range": [1, 3], "m_max": 17}


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

    @pytest.mark.parametrize("l, a, m_max", [(1, 1, 15), (6, 1, 10), (9, 2, 10), (11, 5, 20)])
    def test_buckets_match_per_m_reports(self, l, a, m_max):
        reports = [conjecture_report(SeqParams(m, l, a)) for m in range(1, m_max + 1)]
        peak_checked = [r for r in reports if r.params.m >= 2 and not r.known_exception]
        cell = evaluate_cell(l, a, m_max)
        assert cell.non_lc_ms == tuple(r.params.m for r in reports if not r.log_concave)
        assert cell.unimodal_violations == tuple(r.params.m for r in reports if not r.unimodal)
        assert cell.exception_ms == tuple(r.params.m for r in reports if r.known_exception)
        assert cell.nonunique_ms == tuple(r.params.m for r in peak_checked if not r.unique_max)
        assert cell.window_misses == tuple(r.params.m for r in peak_checked if not r.window_hit)

    def test_bad_power_rejected_before_row_sums(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sweep_harness, "scaled_row_sums", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            evaluate_cell(0, 1, 5000)
        assert calls == []

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
        assert all(c.monotone for c in small_report.column_checks())
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

        monkeypatch.setattr(multiprocessing, "Pool", PoolRecorder)
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

    def test_tampered_shard_recomputed(self, tmp_path):
        # l = 6, a = 1 up to m = 10: log-concavity fails only at m = 5.
        grid = SweepGrid((6, 6), (1, 1), 10)
        shard_dir = str(tmp_path / "shards")
        run_sweep(grid, shard_dir=shard_dir)
        path = tmp_path / "shards" / "cell_l006_a001.json"
        shard = json.loads(path.read_text())
        assert shard["cell"]["non_lc_ms"] == [5]
        shard["cell"]["non_lc_ms"] = [7]
        path.write_text(json.dumps(shard))
        calls = []
        report = run_sweep(
            grid, shard_dir=shard_dir, progress=lambda done, total, cell: calls.append(cell)
        )
        assert len(calls) == 1
        assert report.cells[(6, 1)].largest_non_lc_m == 5

    def test_shard_without_digest_recomputed(self, tmp_path):
        # A bare cell dict, as shards were written before they carried a
        # format number and digest, is not trusted.
        grid = SweepGrid((6, 6), (1, 1), 10)
        shard_dir = tmp_path / "shards"
        shard_dir.mkdir()
        path = shard_dir / "cell_l006_a001.json"
        cell = evaluate_cell(6, 1, 10)
        path.write_text(json.dumps(cell.to_json_dict()))
        calls = []
        report = run_sweep(
            grid, shard_dir=str(shard_dir), progress=lambda done, total, c: calls.append(c)
        )
        assert len(calls) == 1
        assert report.cells[(6, 1)] == cell
        rewritten = json.loads(path.read_text())
        assert rewritten["code"] == sweep_harness._code_fingerprint()
        assert rewritten["cell"] == cell.to_json_dict()


    def test_shard_of_the_same_code_is_reused(self, tmp_path):
        shard_dir = str(tmp_path / "shards")
        first = run_sweep(self.GRID, shard_dir=shard_dir)
        shard = json.loads((tmp_path / "shards" / "cell_l001_a001.json").read_text())
        assert shard["code"] == sweep_harness._code_fingerprint()
        assert len(shard["code"]) == 64
        calls = []
        second = run_sweep(
            self.GRID, shard_dir=shard_dir, progress=lambda done, total, c: calls.append(c)
        )
        assert second == first and calls == []

    def test_shard_of_other_code_recomputed(self, tmp_path, monkeypatch):
        # Shards written by code whose deciding modules differ are not
        # trusted, although each one's own digest still matches its cell.
        shard_dir = str(tmp_path / "shards")
        first = run_sweep(self.GRID, shard_dir=shard_dir)
        monkeypatch.setattr(sweep_harness, "_code_fingerprint", lambda: "0" * 64)
        calls = []
        second = run_sweep(
            self.GRID, shard_dir=shard_dir, progress=lambda done, total, c: calls.append(c)
        )
        assert second == first
        assert len(calls) == len(self.GRID.cell_keys())
        shard = json.loads((tmp_path / "shards" / "cell_l001_a001.json").read_text())
        assert shard["code"] == "0" * 64


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
        with pytest.raises(TypeError):
            check_l_threshold(1.5, 5, 2)

    def test_float_weight_below_one_rejected_as_float(self):
        with pytest.raises(TypeError, match="refusing to convert a float"):
            check_l_threshold(0.5, 5, 2)

    def test_sweep_thresholds_match_recomputation(self):
        report = run_sweep(SweepGrid((1, 12), (1, 3), 20))
        thresholds = report.threshold_checks()
        assert len(thresholds) == 24
        for t in thresholds:
            assert t == check_l_threshold(t.a, t.m, 12)


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

    def test_csv_file_is_headline_csv(self, small_report, tmp_path):
        path = tmp_path / "table.csv"
        export_csv(small_report, str(path))
        text = path.read_text()
        assert text == headline_csv(small_report)
        rows = text.splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(SMALL_GRID.l_values)
        for row in rows:
            l, *values = (int(x) for x in row.split(","))
            assert values == [
                small_report.cell(l, a).largest_non_lc_m or 0 for a in SMALL_GRID.a_values
            ]

    def test_json_round_trip_is_exact(self, small_report):
        # The cells come back through the shard loader, the one reader left.
        payload = json.loads(json.dumps(small_report.to_json_dict()))
        assert payload["grid"] == SMALL_GRID.to_json_dict()
        assert [CellResult.from_json_dict(cell) for cell in payload["cells"]] == list(
            small_report.cells.values()
        )

    def test_json_payload_shape(self, small_report):
        payload = small_report.to_json_dict()
        assert payload["unimodality_all"] is True
        assert payload["window_all"] is True
        assert payload["grid"]["m_max"] == 10
        assert len(payload["cells"]) == len(small_report.cells)
        assert payload["column_monotone"] == {"1": True, "2": True}
