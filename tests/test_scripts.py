"""Smoke tests for the command-line scripts under ``scripts/``."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def asymptotic_decay():
    spec = importlib.util.spec_from_file_location(
        "asymptotic_decay", SCRIPTS / "asymptotic_decay.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(out: str) -> list[list[str]]:
    """Table rows below the header, split into columns."""
    return [line.split() for line in out.splitlines()[1:]]


def test_asymptotic_decay_central_decades(asymptotic_decay, capsys):
    assert asymptotic_decay.main(["--decades", "3"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [row[0] for row in rows] == ["10", "100", "1000"]
    assert all(len(row) == 6 for row in rows)
    assert rows[2][1:4] == ["-", "-", "-"]  # no float sandwich past m = 800


def test_asymptotic_decay_general_m_list(asymptotic_decay, capsys):
    assert asymptotic_decay.main(["--l", "3", "--a", "2/3", "--m-list", "10,100"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert [row[0] for row in rows] == ["10", "100"]
    assert all(len(row) == 3 for row in rows)
