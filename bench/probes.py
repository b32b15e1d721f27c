"""Known-defect probes: one-shot checks of the ROADMAP defects, run once per
benchmark invocation outside the timed workloads and reported by name.

A probe passes when the CLI gives the answer the exit-code contract asks
for within the probe's deadline.  A probe is never dropped: it records a
failure until the defect is fixed.
"""

from __future__ import annotations

import json
import random

import answers as A
import oracle as O
from corpus import from_automaton

D1_DEADLINE_S = 5.0
DEADLINE_S = 20.0


def d1_plant():
    """The largest-V plant among 30 draws of
    random_automaton(Random(315), max_n=10, max_events=5)."""
    from tests.generators import random_automaton

    rng = random.Random(315)
    best = None
    for _ in range(30):
        plant = from_automaton(random_automaton(rng, 10, 5))
        vertices = O.closed_loop(plant)[0]
        if best is None or len(vertices) > len(best[1]):
            best = (plant, vertices)
    return best


def run_probes(spawn, files):
    """spawn(argv, deadline) -> (code or None on deadline, stdout, stderr,
    seconds).  Returns [{name, passed, detail, seconds}]."""
    files.mkdir(parents=True, exist_ok=True)
    results = []

    def record(name, argv, check, deadline):
        code, out, err, seconds = spawn(argv, deadline)
        if code is None:
            passed, detail = False, f"no answer within the {deadline:g} s deadline"
        elif "Traceback" in err:
            passed, detail = False, f"traceback, exit {code}: {err.strip().splitlines()[-1]}"
        else:
            passed, detail, _ = check(code, out, files)
        results.append({"name": name, "passed": passed, "detail": detail,
                        "seconds": round(seconds, 3)})

    plant, vertices = d1_plant()
    doc = files / "d1-plant.json"
    doc.write_text(json.dumps(O.plant_doc(plant)), encoding="utf-8")
    spec = files / "d1-accessible.json"
    spec.write_text(json.dumps({"kind": "state_set", "states": [O.fmt_state(q) for q in vertices]}),
                    encoding="utf-8")
    record(f"D1 check-controllable on the V={len(vertices)} plant",
           ["check-controllable", "--automaton", doc.as_posix(), "--spec", spec.as_posix(),
            "--format", "json"],
           A.check_controllable(plant, vertices, "json"), D1_DEADLINE_S)

    deep = files / "d2-deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    record("D2 deeply nested document exits 2", ["reach", "--automaton", deep.as_posix()],
           A.usage_error(), DEADLINE_S)

    boolean_n = files / "d3-boolean-n.json"
    boolean_n.write_text(json.dumps({"n": True, "state_labels": ["s0"], "initial": ["1"],
                                     "events": [{"name": "a", "matrix": [["1"]]}]}), encoding="utf-8")
    record("D3 boolean n exits 2", ["reach", "--automaton", boolean_n.as_posix()],
           A.usage_error(), DEADLINE_S)
    return results
