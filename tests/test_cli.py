"""End-to-end CLI tests driven through ``main(argv)``."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from powsumseq import (
    SeqParams,
    SweepGrid,
    SweepReport,
    asymptotics,
    build_cert_table,
    central_ratio,
    cli,
    conjecture_report,
    dump_polynomials,
    poly_certificates,
    run_sweep,
    sandwich_bounds,
)
from powsumseq.cli import build_parser, main
from powsumseq.sweep_harness import CellResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--m", "3", "--l", "2", "--a", "1")
        assert code == 0
        assert out.splitlines() == ["0\t1", "1\t5", "2\t19/6", "3\t1"]

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--m", "3", "--l", "2", "--a", "1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"m": 3, "l": 2, "a": "1", "entries": ["1", "5", "19/6", "1"]}

    def test_fractional_weight(self, capsys):
        code, out, _ = run_cli(capsys, "seq", "--m", "2", "--l", "1", "--a", "1/2", "--json")
        assert code == 0
        assert json.loads(out)["a"] == "1/2"

    def test_semantic_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "seq", "--m", "-3", "--l", "2", "--a", "1")
        assert code == 2
        assert "error" in err

    def test_bad_weight_usage_error(self, capsys):
        for bad in ("0", "-2", "x/y"):
            with pytest.raises(SystemExit) as excinfo:
                main(["seq", "--m", "3", "--l", "2", "--a", bad])
            assert excinfo.value.code == 2
            capsys.readouterr()

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestCheck:
    def test_clean_case(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--m", "20", "--l", "2", "--a", "1")
        assert code == 0
        assert "unimodal:           True" in out
        assert "peak set:           [7]" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "--m", "20", "--l", "2", "--a", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["peak_set"] == [7]
        assert payload["window_hit"] is True
        assert payload["log_concave"] is True

    def test_non_log_concave_but_unimodal_still_exits_0(self, capsys):
        # Exit reflects unimodality only; log-concavity is reported, not fatal.
        code, out, _ = run_cli(capsys, "check", "--m", "5", "--l", "6", "--a", "1")
        assert code == 0
        assert "log-concave:        False" in out


class TestPeak:
    def test_scan_clean(self, capsys):
        code, out, _ = run_cli(capsys, "peak", "--m-max", "30", "--l", "2", "--a", "1")
        assert code == 0
        assert "checked m=2..30: 0 violations" in out

    def test_l1_exceptions_marked(self, capsys):
        code, out, _ = run_cli(capsys, "peak", "--m-max", "13", "--l", "1", "--a", "1")
        assert code == 0
        marked = [line for line in out.splitlines() if "known-exception" in line]
        assert [line.split("\t")[0] for line in marked] == ["m=3", "m=6", "m=9", "m=12"]

    def test_json_length(self, capsys):
        code, out, _ = run_cli(
            capsys, "peak", "--m-max", "10", "--l", "3", "--a", "2", "--json"
        )
        assert code == 0
        assert len(json.loads(out)) == 9

    def test_validation(self, capsys):
        code, _, err = run_cli(capsys, "peak", "--m-max", "1", "--l", "2", "--a", "1")
        assert code == 2
        assert "error" in err

    def test_bad_power_rejected_before_row_sums(self, capsys):
        code, _, err = run_cli(capsys, "peak", "--m-max", "5000", "--l", "0", "--a", "2/3")
        assert code == 2
        assert "l must be >= 1" in err

    def test_json_matches_per_m_reports(self, capsys):
        code, out, _ = run_cli(
            capsys, "peak", "--m-max", "40", "--l", "4", "--a", "3/5", "--json"
        )
        reports = [
            conjecture_report(SeqParams(m, 4, Fraction(3, 5))).to_json_dict()
            for m in range(2, 41)
        ]
        assert code == 0
        assert out == json.dumps(reports, indent=1) + "\n"


class TestPolycert:
    ARGS = [
        "polycert", "--n-max", "6", "--sign-q-max", "6",
        "--chain-q-max", "6", "--goal-q-max", "6", "--left-m-max", "12",
    ]

    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert "[PASS] construction-routes-agree" in out
        assert "[FAIL]" not in out

    def test_bound_with_no_instance_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "polycert", "--n-max", "3", "--sign-q-max", "1", "--chain-q-max", "0",
            "--goal-q-max", "-5", "--left-m-max", "1",
        )
        assert code == 2
        assert out == ""
        assert "chain_q_max must be >= 1" in err

    @pytest.mark.parametrize(
        "flag,name",
        [
            ("--sign-q-max", "sign_q_max"),
            ("--chain-q-max", "chain_q_max"),
            ("--goal-q-max", "goal_q_max"),
            ("--left-m-max", "left_m_max"),
        ],
    )
    def test_bad_bound_exits_2_before_building_the_table(self, flag, name, capsys, monkeypatch):
        built = []

        def counting(n_max):
            built.append(n_max)
            return build_cert_table(n_max)

        monkeypatch.setattr(cli, "build_cert_table", counting)
        code, out, err = run_cli(capsys, "polycert", flag, "0")
        assert code == 2
        assert out == ""
        assert f"{name} must be" in err
        assert built == []

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["bounds"]["n_max"] == 6

    def test_dump_file(self, capsys, tmp_path):
        dump = tmp_path / "polys.txt"
        code, _, _ = run_cli(capsys, *self.ARGS, "--dump", str(dump))
        assert code == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "X_0: 1 1"
        assert lines[1] == "Y_0: 1"
        assert len(lines) == 14  # X_n and Y_n for n = 0..6

    def test_dump_builds_the_table_once(self, capsys, tmp_path, monkeypatch):
        expected = dump_polynomials(poly_certificates.build_cert_table(6))
        calls = []
        original = poly_certificates.build_cert_table

        def counting(n_max):
            calls.append(n_max)
            return original(n_max)

        monkeypatch.setattr(poly_certificates, "build_cert_table", counting)
        monkeypatch.setattr(cli, "build_cert_table", counting)
        dump = tmp_path / "polys.txt"
        code, _, _ = run_cli(capsys, *self.ARGS, "--dump", str(dump))
        assert code == 0
        assert calls == [6]
        assert dump.read_text() == expected


class TestAsympt:
    def test_central_case_text(self, capsys):
        code, out, _ = run_cli(capsys, "asympt", "--m-list", "6")
        assert code == 0
        assert "200/7 < 131/3 < 225/4" in out
        assert "central ratio:" in out
        assert "conjectured ratio:" in out

    def test_central_case_json(self, capsys):
        code, out, _ = run_cli(capsys, "asympt", "--m-list", "6,10", "--json")
        assert code == 0
        payload = json.loads(out)
        assert [entry["m"] for entry in payload] == [6, 10]
        assert payload[0]["sandwich"]["lower"] == "200/7"
        assert set(payload[0]) == {"m", "sandwich", "central", "conjectured"}

    def test_central_peak_summed_once_per_m(self, capsys, monkeypatch):
        expected = [
            {"sandwich": sandwich_bounds(m).to_json_dict(), "central": central_ratio(m).to_json_dict()}
            for m in (6, 10)
        ]
        calls = []
        peak = asymptotics._central_peak
        monkeypatch.setattr(asymptotics, "_central_peak", lambda m: calls.append(m) or peak(m))
        code, out, _ = run_cli(capsys, "asympt", "--m-list", "6,10", "--json")
        assert code == 0
        assert calls == [6, 10]
        payload = json.loads(out)
        assert [{k: e[k] for k in ("sandwich", "central")} for e in payload] == expected

    def test_noncentral_case_has_no_sandwich(self, capsys):
        code, out, _ = run_cli(
            capsys, "asympt", "--m-list", "10", "--l", "3", "--a", "2/3", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload[0]) == {"m", "conjectured"}

    def test_bad_m_list(self, capsys):
        for bad in ("6,x", "", ","):
            with pytest.raises(SystemExit) as excinfo:
                main(["asympt", "--m-list", bad])
            assert excinfo.value.code == 2
            capsys.readouterr()


class TestTable2:
    SMALL = ["table2", "--l-max", "7", "--a-max", "2", "--m-max", "10"]

    def test_small_grid_text(self, capsys):
        code, out, _ = run_cli(capsys, *self.SMALL)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "l\\a,1,2"
        assert lines[6] == "6,5,0"
        assert "unimodality everywhere:  True" in out
        assert "peaks unique and in window: True" in out

    def test_csv_export(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, _, _ = run_cli(capsys, *self.SMALL, "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "l\\a,1,2"
        assert len(lines) == 8

    def test_json_export_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, *self.SMALL, "--json")
        assert code == 0
        cells = {(c["l"], c["a"]): CellResult.from_json_dict(c) for c in json.loads(out)["cells"]}
        assert cells[(6, 1)].largest_non_lc_m == 5
        assert len(cells) == 14

    def test_failed_observations_are_named(self, capsys, monkeypatch):
        # TestColumnChecks' report: column a = 1 falls from 5 at l = 1 to 0
        # at l = 2, and m = 5 fails log-concavity at l = 1 only, so its
        # threshold does not persist.
        def cell(l, non_lc):
            return CellResult(l, 1, 10, non_lc, (), (), (), ())

        grid = SweepGrid((1, 3), (1, 1), 10)
        cells = {(1, 1): cell(1, (5,)), (2, 1): cell(2, ()), (3, 1): cell(3, (7,))}
        monkeypatch.setattr(cli, "run_sweep", lambda *args, **kwargs: SweepReport(grid, cells))
        code, out, _ = run_cli(capsys, "table2")
        assert code == 0
        assert out.splitlines()[4:] == [
            "columns weakly monotone: 0/1",
            "  a=1: falls from l=1 to l=2",
            "persistent l-thresholds: 1/2",
            "  a=1, m=5: not log-concave at l=[1]",
            "unimodality everywhere:  True",
            "peaks unique and in window: True",
        ]

    def test_format_option_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*self.SMALL, "--format", "json"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_shard_dir_resume(self, capsys, tmp_path):
        shards = tmp_path / "shards"
        code1, out1, _ = run_cli(capsys, *self.SMALL, "--shard-dir", str(shards))
        code2, out2, _ = run_cli(capsys, *self.SMALL, "--shard-dir", str(shards))
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(list(shards.iterdir())) == 14

    def test_threads_flag(self, capsys):
        code, out, _ = run_cli(capsys, *self.SMALL, "--threads", "2")
        assert code == 0
        assert out.splitlines()[6] == "6,5,0"

    def test_progress_lines_on_stderr(self, capsys):
        code, _, err = run_cli(capsys, *self.SMALL, "--progress")
        assert code == 0
        assert err.count("done (") == 14

    def test_json_stdout(self, capsys):
        code, out, _ = run_cli(capsys, *self.SMALL, "--json")
        assert code == 0
        assert json.loads(out)["unimodality_all"] is True
        # The report's JSON, indented by 1 and newline-terminated.
        report = run_sweep(SweepGrid((1, 7), (1, 2), 10))
        assert out == json.dumps(report.to_json_dict(), indent=1) + "\n"


class TestThreadsDefault:
    def test_defaults_to_1(self):
        args = build_parser().parse_args(["table2", "--m-max", "5"])
        assert args.threads == 1


def readme_commands() -> list[str]:
    """Every ``powsumseq ...`` command in README's shell blocks, one string each:
    backslash continuations joined, trailing comments and redirections cut."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = re.sub(r"(^|\s)#.*", "", line)
            line = " ".join(re.sub(r"\s[0-9]*>.*", "", line).split())
            if line.startswith("powsumseq "):
                commands.append(line)
    return commands


class TestReadme:
    def test_usage_block_found(self):
        assert len(readme_commands()) >= 10

    @pytest.mark.parametrize("command", readme_commands())
    def test_command_parses(self, command):
        build_parser().parse_args(shlex.split(command)[1:])
