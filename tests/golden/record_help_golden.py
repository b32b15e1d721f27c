"""Record the CLI help and usage golden: exit code, stdout and stderr bytes.

Run from the repository root:

    PYTHONPATH=src:tests python tests/golden/record_help_golden.py

It runs every case of CASES in process under COLUMNS=40, 80 and 200 (the
widths argparse wraps help and usage text to) and writes cli_help_golden.json
beside this file.  argparse wraps some usage lines differently from Python
3.13 on; run there, the script writes only the cases whose bytes differ from
cli_help_golden.json, to cli_help_golden_3.13.json, and golden_records()
reads that file over the first one on 3.13 and later.
tests/test_cli_help_golden.py replays the cases and requires the same bytes,
so re-record only when a help or usage change is intended.  No case reads
its --automaton file: each one stops while the arguments are parsed.

    PYTHONPATH=src:tests python tests/golden/record_help_golden.py --check

replays cli_help_golden.json instead, writes nothing, lists every case that
gives other bytes and exits 1 if any does.  It needs no pytest, so it checks
interpreters that have none.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from fuzzydes import run_command

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_help_golden.json"
GOLDEN_313 = HERE / "cli_help_golden_3.13.json"
WIDTHS = ("40", "80", "200")
COMMANDS = (
    "reach", "member", "succ", "check-controllable", "synthesize", "check-language",
    "derive-supervisor", "bridge", "stability", "stabilize", "simulate", "export-dot",
)
PLANT = ["--automaton", "plant.json"]
CASES = (
    [["--help"]]
    + [[command, "--help"] for command in COMMANDS]
    + [
        [],
        ["frobnicate"],
        ["reach"],
        ["reach", "--automaton"],
        ["reach", *PLANT, "--format", "xml"],
        ["reach", *PLANT, "extra"],
        ["reach", *PLANT, "--budget", "3"],
        ["stabilize", *PLANT, "--budget", "-1"],
        ["simulate", *PLANT, "--steps", "-1"],
        ["reach", *PLANT, "--max-len", "-1"],
        ["export-dot", *PLANT, "--what", "bogus"],
        ["-x", "reach", *PLANT],
        ["-x", "reach", *PLANT, "extra"],
        ["--automaton", "plant.json", "reach"],
        ["--", "reach", *PLANT],
        ["reach", "-h", "--bogus"],
    ]
)


def run_case(argv: list[str], columns: str) -> dict:
    """One case's exit code, stdout and stderr with COLUMNS set to columns."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = columns
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    return {"argv": argv, "columns": columns, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _key(record: dict) -> tuple:
    return record["columns"], tuple(record["argv"])


def golden_records() -> list[dict]:
    """The recorded cases for this interpreter: cli_help_golden.json, with
    the cases of cli_help_golden_3.13.json in their place from 3.13 on."""
    records = json.loads(GOLDEN.read_text())
    if sys.version_info >= (3, 13):
        newer = {_key(r): r for r in json.loads(GOLDEN_313.read_text())}
        records = [newer.get(_key(r), r) for r in records]
    return records


def record() -> int:
    records = [run_case(argv, columns) for columns in WIDTHS for argv in CASES]
    path = GOLDEN
    if sys.version_info >= (3, 13):
        older = {_key(r): r for r in json.loads(GOLDEN.read_text())}
        records, path = [r for r in records if older.get(_key(r)) != r], GOLDEN_313
    path.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} cases in {path.name}", file=sys.stderr)
    return 0


def check() -> int:
    """Replay the recorded golden; 1 if any case gives other bytes."""
    records = golden_records()
    differing = [r for r in records if run_case(r["argv"], r["columns"]) != r]
    for r in differing:
        print(f"differs: COLUMNS={r['columns']} {' '.join(r['argv'])}")
    print(f"{len(differing)} of {len(records)} cases differ on Python "
          f"{sys.version.split()[0]}", file=sys.stderr)
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        return check()
    if argv:
        print("usage: record_help_golden.py [--check]", file=sys.stderr)
        return 2
    return record()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
