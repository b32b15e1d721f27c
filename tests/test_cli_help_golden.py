"""Replay the CLI help and usage golden: every case must give the recorded
exit code, stdout and stderr, byte for byte, at each recorded terminal width.

The snapshot (golden/cli_help_golden.json, with golden/cli_help_golden_3.13.json
over it from Python 3.13 on) was recorded by golden/record_help_golden.py;
see that script for the cases.
"""

import json
import sys

import pytest

from fuzzydes import run_command
from golden.record_help_golden import GOLDEN, GOLDEN_313, golden_records

CASES = golden_records()


@pytest.mark.parametrize(
    "case", CASES, ids=[f"COLUMNS={c['columns']} " + " ".join(c["argv"]) for c in CASES]
)
def test_help_and_usage_match_snapshot(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", case["columns"])
    code = run_command(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


def test_the_313_record_replaces_recorded_cases_with_other_bytes():
    base = {(r["columns"], tuple(r["argv"])): r for r in json.loads(GOLDEN.read_text())}
    newer = json.loads(GOLDEN_313.read_text())
    assert newer and all(base[(r["columns"], tuple(r["argv"]))] != r for r in newer)


@pytest.mark.parametrize("version, replaced", [((3, 12, 1), 0), ((3, 13, 0), 35)])
def test_the_record_is_picked_by_the_interpreter_version(monkeypatch, version, replaced):
    base = json.loads(GOLDEN.read_text())
    monkeypatch.setattr(sys, "version_info", version)
    records = golden_records()
    assert [(r["columns"], r["argv"]) for r in records] == [(r["columns"], r["argv"]) for r in base]
    assert sum(r != b for r, b in zip(records, base)) == replaced
