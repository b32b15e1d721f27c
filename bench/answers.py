"""Expected answers and answer checks for every CLI subcommand.

A checker is built from the query's inputs alone (plant, spec, options) and
is called with (exit code, stdout text, files dir).  It returns
(ok, reason, inconclusive).  Answers with one correct form are compared
exactly; controllers, chosen subgraphs and stabilizing witnesses are
checked by their defining property.  Both --format json and --format text
are understood.
"""

from __future__ import annotations

import json
import re

import oracle as O

_CONTROL_LINE = re.compile(r"^\s*f\((\[[^\]]*\])\)\((.+)\) = (\S+)$")
_EDGE_LINE = re.compile(r"^\s*(\[[^\]]*\]) --(.+)--> (\[[^\]]*\])$")


class Mismatch(Exception):
    pass


def expect(cond, reason):
    if not cond:
        raise Mismatch(reason)


def state_text(q) -> str:
    return "[" + ",".join(O.fmt(v) for v in q) + "]"


def parse_state_text(text):
    return O.parse_state(text.strip()[1:-1].split(","))


def states_text(qs) -> str:
    return ", ".join(state_text(q) for q in qs)


def string_text(s) -> str:
    return " ".join(s) or "(empty)"


def controller_doc_from_text(lines):
    """Controller lines ("controller (default d):" then f(q)(e) = v) as the
    JSON controller form."""
    head = [ln for ln in lines if ln.strip().startswith("controller (default ")]
    expect(len(head) == 1, "controller header missing")
    default = head[0].strip()[len("controller (default "):-2]
    entries = []
    for ln in lines:
        m = _CONTROL_LINE.match(ln)
        if m:
            entries.append({"state": O.fmt_state(parse_state_text(m.group(1))),
                            "event": m.group(2), "value": m.group(3)})
    return {"default": default, "entries": entries}


def check_controller_reaches(plant, doc, P):
    try:
        control = O.controller_table(doc, plant)
    except (ValueError, KeyError) as exc:
        raise Mismatch(f"bad controller: {exc}") from None
    vertices, _ = O.closed_loop(plant, control)
    expect(set(vertices) == set(P), "closed loop does not reach exactly the set")


def checker(fn):
    """Wrap an answer check: exit code first, then the payload or text."""

    def run(code, out, files):
        try:
            inconclusive = fn(code, out, files)
            return True, "", bool(inconclusive)
        except Mismatch as exc:
            return False, str(exc), False
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return False, f"unreadable answer: {exc!r}", False

    return run


def load(out, fmt):
    return json.loads(out) if fmt == "json" else out.rstrip("\n").split("\n")


# -- per-subcommand checks -------------------------------------------------


def reach(plant, fmt):
    vertices, edges = O.closed_loop(plant)
    fl = O.floors(plant, vertices, edges)
    entries = [(q, fl[q]) for q in vertices]

    @checker
    def run(code, out, files):
        expect(code == 0, f"exit {code}")
        ans = load(out, fmt)
        if fmt == "json":
            got = [(O.parse_state(e["base"]), O.parse_value(e["floor"])) for e in ans["entries"]]
            expect(got == entries, "reach family differs")
        else:
            want = ["controlled-reachability family (base, floor):"]
            want += [f"  {state_text(q)}  floor {O.fmt(f)}" for q, f in entries]
            expect(ans == want, "reach text differs")

    return run


def member(plant, target, fmt):
    vertices, edges = O.closed_loop(plant)
    fl = O.floors(plant, vertices, edges)
    is_member = O.is_member([(q, fl[q]) for q in vertices], target)

    def check_witness(base, alpha, path, controller_doc):
        expect(base in fl, "witness base is not accessible")
        expect(fl[base] <= alpha and O.scale(alpha, base) == target, "witness alpha wrong")
        control = O.controller_table(controller_doc, plant)
        expect(O.replay(plant, control, path) == target, "witness path misses the target")

    @checker
    def run(code, out, files):
        expect(code == (0 if is_member else 1), f"exit {code}, member={is_member}")
        ans = load(out, fmt)
        if fmt == "json":
            expect(ans["member"] is is_member, "membership verdict differs")
            expect(O.parse_state(ans["target"]) == target, "target echoed wrong")
            if is_member:
                check_witness(O.parse_state(ans["base"]), O.parse_value(ans["alpha"]),
                              ans["path"], ans["controller"])
        elif not is_member:
            expect(ans == [f"{state_text(target)} is not reachable under any admissible controller"],
                   "non-member text differs")
        else:
            expect(ans[0] == f"{state_text(target)} is reachable:", "member header differs")
            base_text, alpha_text = ans[1].strip()[len("base "):].split(" scaled by ")
            path = ans[2].strip()[len("path "):]
            path = [] if path == "(empty string)" else path.split(" ")
            check_witness(parse_state_text(base_text), O.parse_value(alpha_text), path,
                          controller_doc_from_text(ans[3:]))

    return run


def succ(plant, P, fmt):
    pairs = O.successor_pairs(plant, P)

    @checker
    def run(code, out, files):
        expect(code == 0, f"exit {code}")
        ans = load(out, fmt)
        if fmt == "json":
            got = [(O.parse_state(r["state"]),
                    [(p["event"], O.parse_state(p["target"])) for p in r["pairs"]])
                   for r in ans["successors"]]
            expect(got == pairs, "successor sets differ")
        else:
            want = [
                f"successors of {state_text(q)}: {{"
                + ", ".join(f"({e}, {state_text(p)})" for e, p in ps) + "}"
                for q, ps in pairs
            ]
            expect(ans == want, "successor text differs")

    return run


def check_controllable(plant, P, fmt):
    """P is controllable by construction: the answer must affirm it with a
    subgraph that satisfies C1, C2 and reachability."""

    @checker
    def run(code, out, files):
        expect(code == 0, f"exit {code} on a controllable set")
        ans = load(out, fmt)
        if fmt == "json":
            expect(ans["controllable"] is True, "verdict differs")
            edges = [(O.parse_state(e["source"]), e["event"], O.parse_state(e["target"]))
                     for e in ans["subgraph"]]
        else:
            expect(ans[0] == "controllable; chosen subgraph:", "verdict text differs")
            edges = []
            for ln in ans[1:]:
                m = _EDGE_LINE.match(ln)
                expect(m is not None, f"unreadable edge line {ln!r}")
                edges.append((parse_state_text(m.group(1)), m.group(2),
                              parse_state_text(m.group(3))))
        problem = O.check_subgraph(plant, P, edges)
        expect(problem is None, f"subgraph: {problem}")

    return run


def synthesize(plant, P, fmt, out_file=None):
    """P is controllable by construction; the controller's closed loop must
    reach exactly P.  With out_file the report is read from that file."""

    @checker
    def run(code, out, files):
        expect(code == 0, f"exit {code} on a controllable set")
        if out_file is not None:
            expect(out == "", "stdout not empty with --out")
            out = (files / out_file).read_text(encoding="utf-8")
        ans = load(out, fmt)
        if fmt == "json":
            expect(ans["controllable"] is True and ans["kind"] == "fsfc", "verdict differs")
            doc = ans
        else:
            doc = controller_doc_from_text(ans)
        check_controller_reaches(plant, doc, P)

    return run


def simulate(plant, fmt, steps=None, string=None, controller_file=None):
    """Trajectory replayed from the script; a seeded script is read from the
    answer and must use only plant events and have the requested length."""
    events = O.event_table(plant)

    def expected_rows(script, control):
        q, rows, halted = plant["initial"], [(None, plant["initial"], O.ONE)], False
        for name in script:
            nxt = O.compose(q, events[name][0])
            if control is not None:
                nxt = O.scale(control(q, name), nxt)
                if O.is_zero(nxt):
                    halted = True
                    break
            q = nxt
            rows.append((name, q, max(q)))
        return rows, halted

    @checker
    def run(code, out, files):
        expect(code == 0, f"exit {code}")
        control = None
        if controller_file is not None:
            control = O.controller_table(
                json.loads((files / controller_file).read_text(encoding="utf-8")), plant)
        ans = load(out, fmt)
        if fmt == "json":
            script = tuple(ans["script"])
        else:
            script = tuple(ans[0].split("script: ", 1)[1].split())
        if string is not None:
            expect(script == tuple(string.split()), "script differs")
        else:
            expect(len(script) == steps and all(e in events for e in script), "bad script")
        rows, halted = expected_rows(script, control)
        if fmt == "json":
            got = [(r["event"], O.parse_state(r["state"]), O.parse_value(r["degree"]))
                   for r in ans["trajectory"]]
            expect(got == rows and ans["halted"] is halted, "trajectory differs")
        else:
            mode = "closed loop" if control is not None else "open loop"
            want = [f"mode: {mode}; script: {' '.join(script)}",
                    f"  0: start at {state_text(plant['initial'])} (degree 1)"]
            want += [f"  {i}: {e} -> {state_text(q)} (degree {O.fmt(d)})"
                     for i, (e, q, d) in enumerate(rows[1:], 1)]
            if halted:
                want.append(f"  halted: event {script[len(rows) - 1]!r} is disabled or unfeasible here")
            expect(ans == want, "trajectory text differs")

    return run


def export_dot(plant, fmt, graph="accessible", P=None, out_file=None):
    if graph == "accessible":
        vertices, edges = O.closed_loop(plant)
        rows = [(s, name, d) for s, name, d in edges]
    else:
        vertices = list(P)
        events = O.event_table(plant)
        rows = []
        for q, pairs in O.successor_pairs(plant, P):
            for name, p in pairs:
                c = O.compose(q, events[name][0])
                low = max(max(c), events[name][1])
                label = f"{O.fmt(low)}..1" if p == c else O.fmt(max(p))
                rows.append((q, f"{name} {label}", p))
    ids = {q: f"q{i}" for i, q in enumerate(vertices)}
    want = ["digraph fuzzydes {", "  rankdir=LR;"]
    for q in vertices:
        shape = "doublecircle" if q == plant["initial"] else "circle"
        want.append(f'  {ids[q]} [label="{state_text(q)}",shape={shape}];')
    want += [f'  {ids[s]} -> {ids[d]} [label="{label}"];' for s, label, d in rows]
    want.append("}")
    dot = "\n".join(want) + "\n"

    @checker
    def run(code, out, files):
        expect(code == 0, f"exit {code}")
        if out_file is not None:
            expect(out == "", "stdout not empty with --out")
            out = (files / out_file).read_text(encoding="utf-8")
        # text format appends a newline to the report; dot format does not
        got = {"json": lambda: json.loads(out)["dot"], "text": lambda: out[:-1],
               "dot": lambda: out}[fmt]()
        expect(got == dot, "DOT text differs")

    return run


def stability(plant, legal, fmt):
    vertices, edges = O.closed_loop(plant)
    infimal = O.infimal_attractor(vertices, edges)
    ordered = [q for q in vertices if q in infimal]
    stable = infimal <= set(legal)
    is_attractor = all(O.attractor_conditions(vertices, edges, legal))

    @checker
    def run(code, out, files):
        expect(code == (0 if stable else 1), f"exit {code}, stable={stable}")
        ans = load(out, fmt)
        if fmt == "json":
            expect([O.parse_state(q) for q in ans["infimal_attractor"]] == ordered,
                   "smallest attractor differs")
            expect(ans["stable"] is stable and ans["legal_set_is_attractor"] is is_attractor,
                   "verdicts differ")
        else:
            expect(ans == [f"smallest attractor: {states_text(ordered)}",
                           f"stable for the given legal set: {'yes' if stable else 'no'}"],
                   "stability text differs")

    return run


def stabilize(plant, legal, fmt, promise):
    """promise is "yes" (stabilizable by construction), "no" (provably not:
    the legal set holds no scaling of an accessible state) or "open"."""

    @checker
    def run(code, out, files):
        ans = load(out, fmt)
        if fmt == "json":
            verdict = ans["stabilizable"]
        else:
            verdict = {"stabilizing controller found": True,
                       "no stabilization witness found within budget (inconclusive)": None}.get(ans[0], False)
        expect(code == (0 if verdict else 1), f"exit {code} with verdict {verdict}")
        if verdict is None:
            return True
        if verdict is False:
            expect(promise == "no", f"negative verdict on a {promise} legal set")
            return False
        expect(promise != "no", "affirmed a provably unstabilizable legal set")
        if fmt == "json":
            target = [O.parse_state(q) for q in ans["target_set"]]
            doc = ans["controller"]
        else:
            target = [parse_state_text(t) for t in
                      re.findall(r"\[[^\]]*\]", ans[1][len("target set: "):])]
            doc = controller_doc_from_text(ans[3:])
        problem = O.check_stabilizing(plant, legal, target, O.controller_table(doc, plant))
        expect(problem is None, f"witness: {problem}")
        return False

    return run


def check_language(plant, K, fmt):
    violations = O.language_violations(plant, K)

    @checker
    def run(code, out, files):
        expect(code == (1 if violations else 0), f"exit {code}, violations={len(violations)}")
        ans = load(out, fmt)
        if not violations:
            expect(ans == {"controllable": True} if fmt == "json"
                   else ans == ["language is controllable"], "verdict differs")
            return
        if fmt == "json":
            expect(ans["controllable"] is False, "verdict differs")
            pair = (tuple(ans["counterexample"]["string"]), ans["counterexample"]["event"])
        else:
            m = re.match(r"language is not controllable: string (.*) with event (.+)$", ans[0])
            expect(m is not None, "verdict text differs")
            pair = (() if m.group(1) == "(empty)" else tuple(m.group(1).split(" ")), m.group(2))
        expect(pair in violations, "counterexample does not break the inequality")

    return run


def derive_supervisor(plant, K, fmt):
    """K is controllable by construction; the table is exact."""
    floors = {name: uc for name, _, uc in plant["events"]}
    rows = [(s, name, max(K.get(s + (name,), 0), floors[name]))
            for s in O.support_order(K) for name, _, _ in plant["events"]]
    expect(not O.language_violations(plant, K), "derive-supervisor language must be controllable")

    @checker
    def run(code, out, files):
        expect(code == 0, f"exit {code}")
        ans = load(out, fmt)
        if fmt == "json":
            got = [(tuple(r["string"]), r["event"], O.parse_value(r["value"])) for r in ans["table"]]
            expect(ans["controllable"] is True and got == rows, "supervisor table differs")
        else:
            want = ["supervisor on the language support (default: floor of each event elsewhere):"]
            want += [f"  S({string_text(s)})({e}) = {O.fmt(v)}" for s, e, v in rows]
            expect(ans == want, "supervisor text differs")

    return run


def bridge(plant, K, fmt):
    """K is controllable; when it is consistent the passed states are
    controllable (the realizing controller reaches exactly them)."""
    expect(not O.language_violations(plant, K), "bridge language must be controllable")
    passed = O.passed_states(plant, K)
    consistent = O.is_consistent(plant, K)

    @checker
    def run(code, out, files):
        expect(code == (0 if consistent else 1), f"exit {code}, consistent={consistent}")
        ans = load(out, fmt)
        if fmt == "json":
            expect(ans["language_controllable"] is True, "language verdict differs")
            expect([O.parse_state(q) for q in ans["passed_states"]] == passed, "passed states differ")
            expect(ans["consistent"] is consistent, "consistency verdict differs")
            if consistent:
                expect(ans["passed_states_controllable"] is True, "passed states verdict differs")
                check_controller_reaches(plant, ans["controller"], passed)
            else:
                w = ans["inconsistency"]
                expect(O.inconsistent(plant, K, tuple(w["first"]), tuple(w["second"]), w["event"]),
                       "inconsistency witness does not disagree")
        else:
            expect(ans[0] == "language controllable: yes", "language verdict text differs")
            expect(ans[1] == f"passed states: {states_text(passed)}", "passed states text differs")
            expect(ans[3] == f"language consistent: {'yes' if consistent else 'no'}",
                   "consistency text differs")
            if consistent:
                expect(ans[2] == "passed states controllable: yes", "passed states verdict differs")
                check_controller_reaches(plant, controller_doc_from_text(ans[4:]), passed)

    return run


def usage_error():
    """Malformed input: exit 2 with a one-line message on stderr (stderr is
    checked by the runner for tracebacks)."""

    @checker
    def run(code, out, files):
        expect(code == 2, f"exit {code} on malformed input")
        expect(out == "", "report printed for malformed input")

    return run
