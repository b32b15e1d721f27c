"""Replay the CLI golden snapshot: every case must give the recorded exit
code and the recorded stdout, byte for byte.

The snapshot (golden/cli_golden.json, plus golden/cli_golden_digests.json
for stdout too large to store) was recorded by golden/record_cli_golden.py;
see that script for the cases and for how to re-record after an intended
output change.  The script must still draw the seeded language documents
the cases read.
"""

import hashlib
import json
import pathlib

import pytest

from fuzzydes import run_command
from golden.record_cli_golden import _language_doc, seeded_languages
from reference import serialize_automaton

TESTS = pathlib.Path(__file__).parent
CASES = json.loads((TESTS / "golden" / "cli_golden.json").read_text())
DIGESTS = json.loads((TESTS / "golden" / "cli_golden_digests.json").read_text())


def _resolve(argv):
    return [str(TESTS / arg[1:]) if arg.startswith("@") else arg for arg in argv]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_cli_output_matches_snapshot(capsys, case):
    code = run_command(_resolve(case["argv"]))
    out = capsys.readouterr().out
    assert (code, out) == (case["code"], case["stdout"])


@pytest.mark.parametrize("case", DIGESTS, ids=[" ".join(c["argv"]) for c in DIGESTS])
def test_cli_output_matches_digest(capsys, case):
    code = run_command(_resolve(case["argv"]))
    data = capsys.readouterr().out.encode("utf-8")
    got = (code, hashlib.sha256(data).hexdigest(), len(data))
    assert got == (case["code"], case["sha256"], case["bytes"])


def test_the_recorder_reproduces_the_seeded_language_documents():
    aut, consistent, inconsistent = seeded_languages()
    golden = TESTS / "golden"
    assert serialize_automaton(aut) == (golden / "lang15_plant.json").read_text()
    for name, K in [("lang15_consistent", consistent), ("lang15_inconsistent", inconsistent)]:
        text = json.dumps(_language_doc(K), indent=1) + "\n"
        assert text == (golden / f"{name}.json").read_text()
