"""Replay the CLI help and usage golden: every case must give the recorded
exit code, stdout and stderr, byte for byte, at each recorded terminal width.

The snapshot (golden/cli_help_golden.json) was recorded by
golden/record_help_golden.py; see that script for the cases.
"""

import json
import pathlib

import pytest

from fuzzydes import run_command

CASES = json.loads((pathlib.Path(__file__).parent / "golden" / "cli_help_golden.json").read_text())


@pytest.mark.parametrize(
    "case", CASES, ids=[f"COLUMNS={c['columns']} " + " ".join(c["argv"]) for c in CASES]
)
def test_help_and_usage_match_snapshot(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", case["columns"])
    code = run_command(case["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])
