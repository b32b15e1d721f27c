"""Command-line surface.

Exit codes: 0 affirmative/success, 1 negative verdict (with a diagnostic),
2 usage or parse error.  Reports are deterministic given the inputs and the
seed.

A plain command line (a command, then each of its flags at most once as
`--flag value` or `--flag=value`, no value starting with "-") is read
directly.  Every other one, help and every usage error included, goes to
argparse, which is imported only then and gives the same bytes as ever.
"""

from __future__ import annotations

import random
import sys
from types import SimpleNamespace
from typing import Sequence

from . import fileio, language, reachability, stability, statecontrol
from .automaton import (
    MaxMinAutomaton,
    _explore,
    accessible_part,
    closed_loop_trajectory,
    open_loop_trajectory,
)
from .errors import FuzzyDESError, ValidationError, WitnessRejected
from .fileio import (
    ControllerSpec,
    LanguageSpec,
    StateSetSpec,
    WitnessSpec,
    controller_doc,
    parse_inline_state,
    state_doc,
)
from .possibility import decode_state, encode_state, format_possibility


def _count(text: str) -> int:
    """A non-negative int option value; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        message = f"invalid int value: {text!r}"
    else:
        if value >= 0:
            return value
        message = f"must be a non-negative int, got {value}"
    from argparse import ArgumentTypeError

    raise ArgumentTypeError(message)


# The options of every subcommand, then those of each beyond them, as
# (flag, settings).  Both the plain reader and argparse read this table.
_COMMON_OPTIONS = [
    ("--automaton", {"required": True, "metavar": "FILE"}),
    ("--spec", {"metavar": "FILE"}),
    ("--max-len", {"type": _count, "default": 6, "help": "validity guard only: below a nonempty "
                   "language's support depth plus one it exits 2; it bounds no check"}),
    ("--out", {"metavar": "FILE"}),
    ("--format", {"choices": ["text", "json", "dot"], "default": "text"}),
]
_OPTIONS = {
    "stabilize": [
        ("--budget", {"type": _count, "default": 5000, "help": "accepted for compatibility and "
                      "ignored: the witness search is a fixpoint that always finishes (must be a "
                      "non-negative int)"}),
    ],
    "simulate": [
        ("--seed", {"type": int, "default": 0}),
        ("--steps", {"type": _count, "default": 8}),
        ("--string", {"metavar": "EVENTS", "help": "space-separated scripted event string"}),
    ],
    "export-dot": [
        ("--what", {"choices": ["accessible", "successor", "subgraph"], "default": "accessible"}),
    ],
}


def _options(command: str) -> list:
    return _COMMON_OPTIONS + _OPTIONS.get(command, [])


def _parse(argv: list[str]):
    """The parsed argv: read directly when it is plain (see _plain), and by
    argparse otherwise, so help and every usage error keep argparse's bytes."""
    args = _plain(argv)
    return _parse_by_argparse(argv) if args is None else args


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain argv, or None when argv is not
    plain.  Plain is a command name, then `--flag value` or `--flag=value`
    pairs in which each flag is exactly one of that command's, at most once,
    no value starts with "-", each value converts by the flag's type and is
    one of its choices, and every required flag is given."""
    if not argv or argv[0] not in _HANDLERS:
        return None
    table = dict(_options(argv[0]))
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, text = token.partition("=")
        if not equals:
            text = next(tokens, None)
        settings = table.get(flag)
        if settings is None or flag in given or text is None or text.startswith("-"):
            return None
        value = text
        if "type" in settings:
            try:
                value = settings["type"](text)
            except Exception:  # argparse converts it again and reports the failure
                return None
        if value not in settings.get("choices", (value,)):
            return None
        given[flag] = value
    if any(settings.get("required") and flag not in given for flag, settings in table.items()):
        return None
    return SimpleNamespace(command=argv[0], **{
        flag[2:].replace("-", "_"): given.get(flag, settings.get("default"))
        for flag, settings in table.items()
    })


def _parse_by_argparse(argv: list[str]):
    """Parse argv with argparse: one subparser per command, filled from the
    same option table as _plain.  It runs only on the argv _plain declines
    (help, usage errors, unusual spellings), so argparse alone writes help,
    usage and error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fuzzydes",
        description="Analysis and controller synthesis for max-min fuzzy discrete-event systems",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command in _HANDLERS:
        subparser = commands.add_parser(command)
        for flag, settings in _options(command):
            subparser.add_argument(flag, **settings)
    return parser.parse_args(argv)


def _load_automaton(path: str) -> MaxMinAutomaton:
    with open(path, "r", encoding="utf-8") as handle:
        return fileio.parse_automaton(handle.read())


def _load_spec(arg: str):
    if arg.startswith("state:"):
        return StateSetSpec((parse_inline_state(arg),))
    with open(arg, "r", encoding="utf-8") as handle:
        return fileio.parse_spec(handle.read())


def _require_spec(args, wanted, what: str):
    if args.spec is None:
        raise FuzzyDESError(f"{args.command} requires --spec with {what}")
    spec = _load_spec(args.spec)
    if not isinstance(spec, wanted):
        raise FuzzyDESError(f"{args.command} requires {what}, got {type(spec).__name__}")
    return spec


def _require_language(args):
    """The language spec.  --max-len bounds no check: it only rejects a
    nonempty language deeper than it allows, before any check runs."""
    K = _require_spec(args, LanguageSpec, "a language spec").language
    if not K.is_empty and args.max_len < K.depth() + 1:
        raise ValidationError(
            f"max_len {args.max_len} is below the support depth plus one ({K.depth() + 1})"
        )
    return K


# Each handler returns (exit code, payload, text renderer).  The payload is
# the JSON answer; under --format text the renderer turns that same payload
# into the text answer, so each state is formatted once and a JSON answer
# builds no text.


def _shown(doc: list[str]) -> str:
    """A state's text form, from its document form."""
    return "[" + ",".join(doc) + "]"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _words(s: list[str]) -> str:
    return " ".join(s) or "(empty)"


def _controller_lines(doc: dict) -> list[str]:
    lines = [f"controller (default {doc['default']}):"]
    for entry in doc["entries"]:
        lines.append(f"  f({_shown(entry['state'])})({entry['event']}) = {entry['value']}")
    return lines


def _controller_text(payload: dict) -> str:
    return "\n".join(_controller_lines(payload))


def _not_controllable(verdict):
    payload = {"controllable": False, "obstruction": verdict.obstruction.describe()}
    return 1, payload, _obstruction_text


def _obstruction_text(payload: dict) -> str:
    return "not controllable: " + payload["obstruction"]


def _language_not_controllable(verdict):
    s, name = verdict.counterexample
    payload = {"controllable": False, "counterexample": {"string": list(s), "event": name}}
    return 1, payload, _counterexample_text


def _counterexample_text(payload: dict) -> str:
    s, name = payload["counterexample"]["string"], payload["counterexample"]["event"]
    return f"language is not controllable: string {_words(s)} with event {name}"


def _cmd_reach(args, aut):
    fam = reachability.reach_family(aut)
    entries = [
        {"base": state_doc(base), "floor": format_possibility(floor)} for base, floor in fam.entries
    ]
    return 0, {"entries": entries}, _reach_text


def _reach_text(payload: dict) -> str:
    lines = ["controlled-reachability family (base, floor):"]
    for entry in payload["entries"]:
        lines.append(f"  {_shown(entry['base'])}  floor {entry['floor']}")
    return "\n".join(lines)


def _cmd_member(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state (file or state:[...])")
    if len(spec.states) != 1:
        raise FuzzyDESError("member expects exactly one state in the spec")
    target = spec.states[0]
    witness = reachability.family_contains(reachability.reach_family(aut), target)
    if witness is None:
        return 1, {"member": False, "target": state_doc(target)}, _member_text
    payload = {
        "member": True,
        "target": state_doc(target),
        "base": state_doc(witness.base),
        "alpha": format_possibility(witness.alpha),
        "path": list(witness.path_string),
        "controller": controller_doc(witness.controller),
    }
    return 0, payload, _member_text


def _member_text(payload: dict) -> str:
    target = _shown(payload["target"])
    if not payload["member"]:
        return f"{target} is not reachable under any admissible controller"
    lines = [
        f"{target} is reachable:",
        f"  base {_shown(payload['base'])} scaled by {payload['alpha']}",
        f"  path {' '.join(payload['path']) or '(empty string)'}",
    ]
    lines.extend("  " + line for line in _controller_lines(payload["controller"]))
    return "\n".join(lines)


def _cmd_succ(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state_set spec")
    graph = statecontrol.build_successor_graph(aut, spec.states)
    docs = [state_doc(q) for q in graph.vertices]
    pairs = [[] for _ in docs]
    for e, (v, t) in zip(graph.edges, graph.positions):
        pairs[v].append({"event": e.event, "target": docs[t]})
    successors = [{"state": doc, "pairs": out} for doc, out in zip(docs, pairs)]
    return 0, {"successors": successors}, _succ_text


def _succ_text(payload: dict) -> str:
    lines = []
    for entry in payload["successors"]:
        pairs = ", ".join(f"({p['event']}, {_shown(p['target'])})" for p in entry["pairs"])
        lines.append(f"successors of {_shown(entry['state'])}: {{{pairs}}}")
    return "\n".join(lines)


def _cmd_check_controllable(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state_set spec")
    verdict = statecontrol.check_controllable(aut, spec.states)
    if not verdict.controllable:
        return _not_controllable(verdict)
    edges = sorted(verdict.subgraph.edges(), key=lambda e: (encode_state(e[0]), e[1]))
    subgraph = [
        {"source": state_doc(src), "event": name, "target": state_doc(dst)}
        for src, name, dst in edges
    ]
    return 0, {"controllable": True, "subgraph": subgraph}, _subgraph_text


def _subgraph_text(payload: dict) -> str:
    lines = ["controllable; chosen subgraph:"]
    for e in payload["subgraph"]:
        lines.append(f"  {_shown(e['source'])} --{e['event']}--> {_shown(e['target'])}")
    return "\n".join(lines)


def _cmd_synthesize(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state_set spec")
    verdict = statecontrol.check_controllable(aut, spec.states)
    if not verdict.controllable:
        return _not_controllable(verdict)
    controller = statecontrol.synthesize_controller(aut, spec.states, verdict.subgraph)
    return 0, {"controllable": True, "kind": "fsfc", **controller_doc(controller)}, _controller_text


def _cmd_check_language(args, aut):
    verdict = language.language_controllable(aut, _require_language(args))
    if verdict.ok:
        return 0, {"controllable": True}, _language_controllable_text
    return _language_not_controllable(verdict)


def _language_controllable_text(payload: dict) -> str:
    return "language is controllable"


def _cmd_derive_supervisor(args, aut):
    K = _require_language(args)
    verdict = language.language_controllable(aut, K)
    if not verdict.ok:
        return _language_not_controllable(verdict)
    supervisor = language.supervisor_from_language(aut, K)
    rows = []
    for s in K.support():
        for name in aut.event_names:
            rows.append(
                {
                    "string": list(s),
                    "event": name,
                    "value": format_possibility(supervisor.value(s, name)),
                }
            )
    return 0, {"controllable": True, "table": rows}, _supervisor_text


def _supervisor_text(payload: dict) -> str:
    lines = ["supervisor on the language support (default: floor of each event elsewhere):"]
    for row in payload["table"]:
        lines.append(f"  S({_words(row['string'])})({row['event']}) = {row['value']}")
    return "\n".join(lines)


def _cmd_bridge(args, aut):
    K = _require_language(args)
    payload: dict = {}
    verdict = language.language_controllable(aut, K)
    payload["language_controllable"] = verdict.ok
    if not verdict.ok:
        s, name = verdict.counterexample
        payload["counterexample"] = {"string": list(s), "event": name}
        return 1, payload, _bridge_text
    states = language.reach_of_language(aut, K)
    payload["passed_states"] = [state_doc(q) for q in states]
    passed = statecontrol.check_controllable(aut, states)
    payload["passed_states_controllable"] = passed.controllable
    consistency = language.consistency_check(aut, K)
    payload["consistent"] = consistency.ok
    if not consistency.ok:
        s1, s2, name = consistency.counterexample
        payload["inconsistency"] = {"first": list(s1), "second": list(s2), "event": name}
        return 1, payload, _bridge_text
    payload["controller"] = controller_doc(language.controller_from_language(aut, K))
    return 0, payload, _bridge_text


def _bridge_text(payload: dict) -> str:
    lines = [f"language controllable: {_yes(payload['language_controllable'])}"]
    if "counterexample" in payload:
        s, name = payload["counterexample"]["string"], payload["counterexample"]["event"]
        lines.append(f"  counterexample: string {_words(s)} with event {name}")
        return "\n".join(lines)
    lines.append("passed states: " + ", ".join(map(_shown, payload["passed_states"])))
    lines.append(f"passed states controllable: {_yes(payload['passed_states_controllable'])}")
    lines.append(f"language consistent: {_yes(payload['consistent'])}")
    if "inconsistency" in payload:
        found = payload["inconsistency"]
        lines.append(
            f"  witness: strings {_words(found['first'])} and {_words(found['second'])} "
            f"disagree on event {found['event']}"
        )
    else:
        lines.extend(_controller_lines(payload["controller"]))
    return "\n".join(lines)


def _cmd_stability(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state_set spec with the legal states")
    legal = set(statecontrol._validated_codes(aut, spec.states))
    # Both checks run on the coded graph; only the printed states are decoded.
    graph = _explore(aut)
    infimal = stability.infimal_attractor(graph)
    ordered = [decode_state(q) for q in graph.vertices if q in infimal]
    stable = infimal <= legal
    report = stability.check_attractor(graph, legal)
    payload = {
        "stable": stable,
        "infimal_attractor": [state_doc(q) for q in ordered],
        "legal_set_is_attractor": report.verdict,
    }
    return (0 if stable else 1), payload, _stability_text


def _stability_text(payload: dict) -> str:
    return (
        "smallest attractor: " + ", ".join(map(_shown, payload["infimal_attractor"]))
        + f"\nstable for the given legal set: {_yes(payload['stable'])}"
    )


def _cmd_stabilize(args, aut):
    if args.spec is None:
        raise FuzzyDESError("stabilize requires --spec with a witness or state_set document")
    spec = _load_spec(args.spec)
    if isinstance(spec, StateSetSpec):
        legal, n_prime, p_set = spec.states, None, None
    elif isinstance(spec, WitnessSpec):
        legal, n_prime, p_set = spec.legal, spec.n_prime, spec.p_set
    else:
        raise FuzzyDESError("stabilize requires a witness or state_set spec")
    if n_prime is not None:  # parse_spec gives p_set with it
        witness = stability.StabilizabilityWitness(n_prime, p_set)
        try:
            controller = stability.synthesize_stabilizing_controller(aut, legal, witness)
        except WitnessRejected:
            payload = {"stabilizable": False, "reason": "witness failed verification"}
            return 1, payload, _stabilize_text
    else:
        found = stability.search_stabilizing_witness(aut, legal)
        if found is None:
            size = len(stability.candidate_universe(aut, legal))
            reason = f"no witness over the grid universe ({size} states)"
            return 1, {"stabilizable": None, "reason": reason}, _stabilize_text
        witness, controller = found, found.controller
    payload = {
        "stabilizable": True,
        "target_set": [state_doc(q) for q in witness.n_prime],
        "funnel_set": [state_doc(q) for q in witness.p_set],
        "controller": controller_doc(controller),
    }
    return 0, payload, _stabilize_text


def _stabilize_text(payload: dict) -> str:
    if payload["stabilizable"] is False:
        return "the supplied witness failed verification"
    if payload["stabilizable"] is None:
        # Scripts read this exact line as "inconclusive"; keep its bytes.
        return "no stabilization witness found within budget (inconclusive)"
    lines = [
        "stabilizing controller found",
        "target set: " + ", ".join(map(_shown, payload["target_set"])),
        "funnel set: " + ", ".join(map(_shown, payload["funnel_set"])),
    ]
    lines.extend(_controller_lines(payload["controller"]))
    return "\n".join(lines)


def _cmd_simulate(args, aut):
    controller = None
    if args.spec is not None:
        spec = _load_spec(args.spec)
        if not isinstance(spec, ControllerSpec):
            raise FuzzyDESError("simulate takes an fsfc spec when --spec is given")
        controller = spec.controller
        controller.validate(aut)
    if args.string is not None:
        script = tuple(args.string.split())
    elif args.steps and not aut.event_names:
        raise FuzzyDESError("no event to draw a random script from; give --string or --steps 0")
    else:
        rng = random.Random(args.seed)
        script = tuple(rng.choice(aut.event_names) for _ in range(args.steps))
    if controller is None:
        trajectory = open_loop_trajectory(aut, script)
    else:
        trajectory = closed_loop_trajectory(aut, controller, script)
    rows = [{"step": 0, "event": None, "state": state_doc(trajectory.states[0]), "degree": "1"}]
    for i, name in enumerate(trajectory.events):
        state = trajectory.states[i + 1]
        degree = max(state)  # the degree of the prefix in the (controlled) language
        rows.append(
            {
                "step": i + 1,
                "event": name,
                "state": state_doc(state),
                "degree": format_possibility(degree),
            }
        )
    payload = {"script": list(script), "halted": trajectory.halted, "trajectory": rows}
    mode = "open loop" if controller is None else "closed loop"
    return 0, payload, lambda p: _simulate_text(p, mode)


def _simulate_text(payload: dict, mode: str) -> str:
    script, (start, *steps) = payload["script"], payload["trajectory"]
    lines = [
        f"mode: {mode}; script: {' '.join(script)}",
        f"  0: start at {_shown(start['state'])} (degree 1)",
    ]
    for row in steps:
        shown = _shown(row["state"])
        lines.append(f"  {row['step']}: {row['event']} -> {shown} (degree {row['degree']})")
    if payload["halted"]:
        lines.append(f"  halted: event {script[len(steps)]!r} is disabled or unfeasible here")
    return "\n".join(lines)


def _cmd_export_dot(args, aut):
    if args.what == "accessible":
        return 0, {"dot": fileio.export_dot(accessible_part(aut))}, _dot_text
    spec = _require_spec(args, StateSetSpec, "a state_set spec")
    graph = statecontrol.build_successor_graph(aut, spec.states)
    if args.what == "successor":
        return 0, {"dot": fileio.export_dot(graph)}, _dot_text
    verdict = statecontrol.check_controllable(aut, spec.states)
    if not verdict.controllable:
        return _not_controllable(verdict)
    chosen = statecontrol.chosen_graph(graph, verdict.subgraph)
    return 0, {"dot": fileio.export_dot(chosen)}, _dot_text


def _dot_text(payload: dict) -> str:
    return payload["dot"]


_HANDLERS = {
    "reach": _cmd_reach,
    "member": _cmd_member,
    "succ": _cmd_succ,
    "check-controllable": _cmd_check_controllable,
    "synthesize": _cmd_synthesize,
    "check-language": _cmd_check_language,
    "derive-supervisor": _cmd_derive_supervisor,
    "bridge": _cmd_bridge,
    "stability": _cmd_stability,
    "stabilize": _cmd_stabilize,
    "simulate": _cmd_simulate,
    "export-dot": _cmd_export_dot,
}


def run_command(argv: Sequence[str]) -> int:
    try:
        args = _parse(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.format == "dot" and args.command != "export-dot":
            raise FuzzyDESError("--format dot is only available for export-dot")
        aut = _load_automaton(args.automaton)
        code, payload, render = _HANDLERS[args.command](args, aut)
        _write_report(args, payload, render)
    except (FuzzyDESError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _write_report(args, payload: dict, render) -> None:
    if args.format == "json":
        rendered = fileio._json_text(payload) + "\n"
    elif args.format == "dot" and "dot" in payload:
        rendered = payload["dot"]
    else:  # text, and the diagnostic of an export-dot with no graph to draw
        rendered = render(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
