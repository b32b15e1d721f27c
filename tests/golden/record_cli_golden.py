"""Record the CLI golden snapshot: exit code and stdout bytes of every case.

Run from the repository root:

    PYTHONPATH=src:tests python tests/golden/record_cli_golden.py

It writes the plant and spec documents the cases read (draws 17, 23 and 24
of random_automaton(Random(1), 6, 4), a seeded controlled language with
a few hundred strings and a few hand-written specs), then cli_golden.json
and cli_golden_digests.json beside this file.  The second file keeps the
cases whose stdout is too large to store (up to hundreds of KB) as a sha256
digest plus the byte length.  tests/test_cli_golden.py replays the
cases and requires the same bytes, so re-record only when an output change
is intended.  In argv, "@path" names a file relative to tests/.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from fuzzydes import (
    FuzzyLanguage,
    accessible_part,
    closed_loop_language_of_supervisor,
    consistency_check,
    format_possibility,
    run,
    run_command,
    scale_product,
    state_is_zero,
    supervisor_from_controller,
)
from generators import random_automaton, random_controller
from reference import serialize_automaton

HERE = Path(__file__).resolve().parent
TESTS = HERE.parent


def _states(states):
    return [[format_possibility(v) for v in q] for q in states]


def _language_doc(K: FuzzyLanguage) -> dict:
    return {
        "kind": "language",
        "pairs": [{"string": list(s), "degree": format_possibility(K.degree(s))} for s in K.support()],
    }


def _state_groups(aut, K: FuzzyLanguage) -> dict:
    """Support strings grouped by the state they pass through, in support
    order: the string's degree scaled onto its open-loop state, zero results
    dropped."""
    groups = {}
    for s in K.support():
        scaled = scale_product(K.degree(s), run(aut, s))
        if not state_is_zero(scaled):
            groups.setdefault(scaled, []).append(s)
    return groups


def seeded_languages():
    """Draw 15 of random_automaton(Random(3), 3, 3, max_uc=0), each draw
    followed by its random_controller, and the language that controller's
    supervisor lets through up to length 5: 324 strings, controllable
    because every floor is zero, and consistent.  The second language lowers
    the degree of one extension of the second string in a state group (and
    of the strings below it) by 0.1, so consistency_check rejects it."""
    rng = random.Random(3)
    for _ in range(16):
        aut = random_automaton(rng, 3, 3, max_uc=0)
        controller = random_controller(rng, aut)
    K = closed_loop_language_of_supervisor(aut, supervisor_from_controller(aut, controller), 5)
    step = Fraction(1, 10)
    for strings in _state_groups(aut, K).values():
        for name in aut.event_names:
            both = [s for s in strings if K.degree(s + (name,)) > step]
            if len(both) > 1:
                cut = both[1] + (name,)
                low = K.degree(cut) - step
                broken = FuzzyLanguage(
                    {s: min(d, low) if s[: len(cut)] == cut else d for s, d in K.degrees.items()}
                )
                assert consistency_check(aut, K).ok and not consistency_check(aut, broken).ok
                return aut, K, broken
    raise AssertionError("no state group with two extensions to lower")


def write_documents() -> None:
    rng = random.Random(1)
    draws = [random_automaton(rng, 6, 4) for _ in range(25)]
    for i in (17, 23, 24):
        (HERE / f"draw{i}_plant.json").write_text(serialize_automaton(draws[i]))
    vertices = accessible_part(draws[24]).vertices
    docs = {
        "draw23_states.json": {
            "kind": "state_set",
            "states": _states(accessible_part(draws[23]).vertices),
        },
        "draw24_states.json": {"kind": "state_set", "states": _states(vertices)},
        "draw24_partial.json": {"kind": "state_set", "states": _states(vertices[:-1])},
        # A set on which the controllability search runs to exhaustion.
        "draw17_exhausted.json": {
            "kind": "state_set",
            "states": [["0.4", "0.1", "0.2", "0.9", "1", "1"], ["0.8", "0.9", "1", "0.9", "0.7", "0.9"],
                       ["0.8", "0.8", "0.8", "0.8", "0.7", "0.8"], ["0.3", "0.3", "0.3", "0.3", "0.3", "0.3"]],
        },
        "treatment_partial.json": {
            "kind": "state_set",
            "states": [["0.9", "0.1", "0"], ["0.9", "0.1", "0.1"], ["0.1", "0.1", "0.1"]],
        },
        "treatment_bad_language.json": {
            "kind": "language",
            "pairs": [{"string": [], "degree": "1"}, {"string": ["d"], "degree": "0.5"}],
        },
        "drift_consistent_language.json": {
            "kind": "language",
            "pairs": [{"string": [], "degree": "1"}, {"string": ["a1"], "degree": "0.2"}],
        },
        "drift_legal.json": {"kind": "state_set", "states": [["0.4", "0.1", "0"]]},
        "drift_initial_only.json": {"kind": "state_set", "states": [["0.9", "0.1", "0"]]},
        "drift_witness_search.json": {"kind": "witness", "n": [["0.4", "0.1", "0"]]},
        "drift_witness_given.json": {
            "kind": "witness",
            "n": [["0.4", "0.1", "0"]],
            "n_prime": [["0.4", "0.1", "0"]],
            "p": [["0.9", "0.1", "0"], ["0.4", "0.1", "0"]],
        },
        "drift_witness_bad.json": {
            "kind": "witness",
            "n": [["0.9", "0.1", "0"], ["0.4", "0.1", "0"]],
            "n_prime": [["0.9", "0.1", "0"]],
            "p": [["0.9", "0.1", "0"], ["0.4", "0.1", "0"]],
        },
        "drift_witness_inconclusive.json": {"kind": "witness", "n": [["0.2", "0.3", "0.4"]]},
        "cascade_witness.json": {
            "kind": "witness",
            "n": [["1", "1", "1"], ["0", "0.5", "0.5"]],
            "n_prime": [["1", "1", "1"], ["0", "0.5", "0.5"]],
            "p": [["1", "0", "0"], ["0", "0.8", "0.8"], ["0", "0.5", "0.5"], ["1", "1", "1"]],
        },
        "cascade_legal.json": {"kind": "state_set", "states": [["1", "1", "1"], ["0", "0.5", "0.5"]]},
    }
    aut, consistent, inconsistent = seeded_languages()
    (HERE / "lang15_plant.json").write_text(serialize_automaton(aut))
    docs["lang15_consistent.json"] = _language_doc(consistent)
    docs["lang15_inconsistent.json"] = _language_doc(inconsistent)
    for name, doc in docs.items():
        (HERE / name).write_text(json.dumps(doc, indent=1) + "\n")


TREAT, SINGLE, DRIFT, CASCADE = (
    "@data/treatment_plant.json",
    "@data/single_event_plant.json",
    "@data/drift_plant.json",
    "@data/cascade_plant.json",
)
ADMISSIBLE, LANGUAGE, CONTROLLER = (
    "@data/admissible_set.json",
    "@data/drift_language.json",
    "@data/reference_controller.json",
)
D23, D24 = "@golden/draw23_plant.json", "@golden/draw24_plant.json"


def cases() -> list[list[str]]:
    """Each base case runs once per output format (json and text)."""
    base = []
    for plant in (TREAT, SINGLE, DRIFT, CASCADE, D24):
        base.append(["reach", "--automaton", plant])
    for plant, target in [
        (TREAT, "state:[0.1,0.1,0.1]"),
        (TREAT, "state:[0,0.1,0.9]"),
        (TREAT, "state:[0.9,0.1,0]"),
        (TREAT, "state:[0.5,0.5,0.1]"),
        (CASCADE, "state:[0,0.5,0.5]"),
        (D24, "state:[0.4,0.4,0.4,0.4,0.4,0.4]"),
        (D24, "state:[0.5,0.5,0.5,0.5,0.5,0.5]"),
        (D24, "state:[0.6,0.6,0.6,0.8,0.6,0.6]"),
        (D24, "state:[0.1,0.6,0.3,0.8,0.8,0.3]"),
        (D24, "state:[0.1,0.45,0.3,0.8,0.8,0.3]"),
        (D24, "state:[0.1,0.1,0.1,0.1,0.1,0.1]"),
    ]:
        base.append(["member", "--automaton", plant, "--spec", target])
    for plant, spec in [
        (TREAT, ADMISSIBLE),
        (TREAT, "@golden/treatment_partial.json"),
        (TREAT, "state:[0.1,0.1,0.1]"),
        (D24, "@golden/draw24_states.json"),
        (D24, "@golden/draw24_partial.json"),
        ("@golden/draw17_plant.json", "@golden/draw17_exhausted.json"),
    ]:
        base.append(["succ", "--automaton", plant, "--spec", spec])
        base.append(["check-controllable", "--automaton", plant, "--spec", spec])
        base.append(["synthesize", "--automaton", plant, "--spec", spec])
    for plant, spec in [
        (DRIFT, LANGUAGE),
        (DRIFT, "@golden/drift_consistent_language.json"),
        (TREAT, "@golden/treatment_bad_language.json"),
    ]:
        for command in ("check-language", "derive-supervisor", "bridge"):
            base.append([command, "--automaton", plant, "--spec", spec])
    for plant, spec in [
        (DRIFT, "@golden/drift_legal.json"),
        (DRIFT, "@golden/drift_initial_only.json"),
        (TREAT, ADMISSIBLE),
        (CASCADE, "@golden/cascade_legal.json"),
    ]:
        base.append(["stability", "--automaton", plant, "--spec", spec])
    for plant, spec in [
        (DRIFT, "@golden/drift_witness_search.json"),
        (DRIFT, "@golden/drift_witness_given.json"),
        (DRIFT, "@golden/drift_witness_bad.json"),
        (DRIFT, "@golden/drift_legal.json"),
        (CASCADE, "@golden/cascade_witness.json"),
        (CASCADE, "@golden/cascade_legal.json"),
    ]:
        base.append(["stabilize", "--automaton", plant, "--spec", spec])
    base.append(
        ["stabilize", "--automaton", DRIFT, "--spec", "@golden/drift_witness_inconclusive.json",
         "--budget", "50"]
    )
    base.append(["simulate", "--automaton", TREAT, "--seed", "7", "--steps", "10"])
    base.append(["simulate", "--automaton", D24, "--seed", "3", "--steps", "12"])
    base.append(["simulate", "--automaton", TREAT, "--spec", CONTROLLER, "--string", "b a"])
    base.append(["simulate", "--automaton", TREAT, "--spec", CONTROLLER, "--string", "a a"])
    base.append(["export-dot", "--automaton", TREAT])
    base.append(["export-dot", "--automaton", D24])
    for spec in (ADMISSIBLE, "@golden/treatment_partial.json"):
        for what in ("successor", "subgraph"):
            base.append(["export-dot", "--automaton", TREAT, "--spec", spec, "--what", what])
    out = [argv + ["--format", fmt] for argv in base for fmt in ("json", "text")]
    out.extend(
        ["export-dot", "--automaton", TREAT, "--spec", ADMISSIBLE, "--what", what, "--format", "dot"]
        for what in ("accessible", "successor", "subgraph")
    )
    return out


def digest_cases() -> list[list[str]]:
    """Cases stored as a digest of their stdout (succ on the 255 accessible
    vertices of draw 23 prints 624 KB of json; the language commands on the
    324-string seeded language print up to 139 KB)."""
    out = [
        ["succ", "--automaton", D23, "--spec", "@golden/draw23_states.json", "--format", fmt]
        for fmt in ("json", "text")
    ]
    for variant in ("consistent", "inconsistent"):
        for command in ("check-language", "derive-supervisor", "bridge"):
            out.extend(
                [command, "--automaton", "@golden/lang15_plant.json",
                 "--spec", f"@golden/lang15_{variant}.json", "--format", fmt]
                for fmt in ("json", "text")
            )
    return out


def stdout_digest(out: str) -> dict:
    data = out.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def resolve(argv: list[str]) -> list[str]:
    return [str(TESTS / arg[1:]) if arg.startswith("@") else arg for arg in argv]


def run_case(argv: list[str]) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(resolve(argv))
    return code, stdout.getvalue()


def main() -> None:
    write_documents()
    records = []
    for argv in cases():
        code, out = run_case(argv)
        records.append({"argv": argv, "code": code, "stdout": out})
    (HERE / "cli_golden.json").write_text(json.dumps(records, indent=1) + "\n")
    digests = []
    for argv in digest_cases():
        code, out = run_case(argv)
        digests.append({"argv": argv, "code": code, **stdout_digest(out)})
    (HERE / "cli_golden_digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    print(f"recorded {len(records)} cases and {len(digests)} digests", file=sys.stderr)


if __name__ == "__main__":
    main()
