"""Replay the demos: each script in demos/ must print the recorded stdout,
byte for byte.

The snapshot (golden/demo_golden.json) was recorded by
golden/record_demo_golden.py; see that script for how to re-record after an
intended output change.
"""

import json
import pathlib

import pytest

from golden.record_demo_golden import demo_paths, run_demo

TESTS = pathlib.Path(__file__).parent
RECORDS = json.loads((TESTS / "golden" / "demo_golden.json").read_text())


def test_every_demo_is_recorded():
    assert [r["demo"] for r in RECORDS] == [p.name for p in demo_paths()]


@pytest.mark.parametrize("record", RECORDS, ids=[r["demo"] for r in RECORDS])
def test_demo_output_matches_snapshot(record):
    path = next(p for p in demo_paths() if p.name == record["demo"])
    assert run_demo(path) == record["stdout"]
