"""Command-line surface.

Exit codes: 0 affirmative/success, 1 negative verdict (with a diagnostic),
2 usage or parse error.  Reports are deterministic given the inputs and the
seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Sequence

from . import fileio
from .automaton import (
    MaxMinAutomaton,
    _explore,
    accessible_part,
    closed_loop_trajectory,
    open_loop_trajectory,
)
from .errors import DimensionMismatch, FuzzyDESError, ValidationError, WitnessRejected
from .fileio import (
    ControllerSpec,
    LanguageSpec,
    StateSetSpec,
    WitnessSpec,
    controller_doc,
    parse_inline_state,
    state_doc,
)
from .language import (
    consistency_check,
    controller_from_language,
    language_controllable,
    reach_of_language,
    supervisor_from_language,
)
from .possibility import decode_state, encode_state, format_possibility, format_state
from .reachability import family_contains, reach_family
from .stability import (
    StabilizabilityWitness,
    candidate_universe,
    check_attractor,
    infimal_attractor,
    search_stabilizing_witness,
    synthesize_stabilizing_controller,
)
from .statecontrol import (
    build_successor_graph,
    check_controllable,
    chosen_graph,
    synthesize_controller,
)


def _count(text: str) -> int:
    """A non-negative int option value; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative int, got {value}")
    return value


# The options of each subcommand beyond the common ones, as (flag, settings).
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--automaton", required=True, metavar="FILE")
    common.add_argument("--spec", metavar="FILE")
    common.add_argument("--max-len", type=_count, default=6, help="validity guard only: below a nonempty "
                        "language's support depth plus one it exits 2; it bounds no check")
    common.add_argument("--out", metavar="FILE")
    common.add_argument("--format", choices=["text", "json", "dot"], default="text")

    parser = argparse.ArgumentParser(
        prog="fuzzydes",
        description="Analysis and controller synthesis for max-min fuzzy discrete-event systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _HANDLERS:
        subparser = sub.add_parser(command, parents=[common])
        for flag, settings in _OPTIONS.get(command, ()):
            subparser.add_argument(flag, **settings)
    return parser


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


def _not_controllable(verdict):
    text = "not controllable: " + verdict.obstruction.describe()
    return 1, {"controllable": False, "obstruction": verdict.obstruction.describe()}, text


def _language_not_controllable(verdict):
    s, name = verdict.counterexample
    text = f"language is not controllable: string {' '.join(s) or '(empty)'} with event {name}"
    return 1, {"controllable": False, "counterexample": {"string": list(s), "event": name}}, text


def _controller_text(f) -> list[str]:
    doc = controller_doc(f)
    lines = [f"controller (default {doc['default']}):"]
    for entry in doc["entries"]:
        lines.append(f"  f([{','.join(entry['state'])}])({entry['event']}) = {entry['value']}")
    return lines


def _cmd_reach(args, aut):
    fam = reach_family(aut)
    payload = {
        "entries": [
            {"base": state_doc(base), "floor": format_possibility(floor)}
            for base, floor in fam.entries
        ]
    }
    lines = ["controlled-reachability family (base, floor):"]
    for base, floor in fam.entries:
        lines.append(f"  {format_state(base)}  floor {format_possibility(floor)}")
    return 0, payload, "\n".join(lines)


def _cmd_member(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state (file or state:[...])")
    if len(spec.states) != 1:
        raise FuzzyDESError("member expects exactly one state in the spec")
    target = spec.states[0]
    witness = family_contains(reach_family(aut), target)
    if witness is None:
        text = f"{format_state(target)} is not reachable under any admissible controller"
        return 1, {"member": False, "target": state_doc(target)}, text
    payload = {
        "member": True,
        "target": state_doc(target),
        "base": state_doc(witness.base),
        "alpha": format_possibility(witness.alpha),
        "path": list(witness.path_string),
        "controller": controller_doc(witness.controller),
    }
    lines = [
        f"{format_state(target)} is reachable:",
        f"  base {format_state(witness.base)} scaled by {format_possibility(witness.alpha)}",
        f"  path {' '.join(witness.path_string) or '(empty string)'}",
    ]
    lines.extend("  " + line for line in _controller_text(witness.controller))
    return 0, payload, "\n".join(lines)


def _cmd_succ(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state_set spec")
    graph = build_successor_graph(aut, spec.states)
    payload = {"successors": []}
    lines = []
    # The edges are grouped by source, in vertex order.
    pending = list(reversed(graph.edges))
    for q in graph.vertices:
        edges = []
        while pending and pending[-1].source == q:
            edges.append(pending.pop())
        payload["successors"].append(
            {
                "state": state_doc(q),
                "pairs": [
                    {"event": e.event, "target": state_doc(e.target)}
                    for e in edges
                ],
            }
        )
        pairs = ", ".join(f"({e.event}, {format_state(e.target)})" for e in edges)
        lines.append(f"successors of {format_state(q)}: {{{pairs}}}")
    return 0, payload, "\n".join(lines)


def _cmd_check_controllable(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state_set spec")
    verdict = check_controllable(aut, spec.states)
    if not verdict.controllable:
        return _not_controllable(verdict)
    edges = sorted(verdict.subgraph.edges(), key=lambda e: (encode_state(e[0]), e[1]))
    payload = {
        "controllable": True,
        "subgraph": [
            {
                "source": state_doc(src),
                "event": name,
                "target": state_doc(dst),
            }
            for src, name, dst in edges
        ],
    }
    lines = ["controllable; chosen subgraph:"]
    for src, name, dst in edges:
        lines.append(f"  {format_state(src)} --{name}--> {format_state(dst)}")
    return 0, payload, "\n".join(lines)


def _cmd_synthesize(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state_set spec")
    verdict = check_controllable(aut, spec.states)
    if not verdict.controllable:
        return _not_controllable(verdict)
    controller = synthesize_controller(aut, spec.states, verdict.subgraph)
    payload = {"controllable": True, "kind": "fsfc", **controller_doc(controller)}
    return 0, payload, "\n".join(_controller_text(controller))


def _cmd_check_language(args, aut):
    verdict = language_controllable(aut, _require_language(args))
    if verdict.ok:
        return 0, {"controllable": True}, "language is controllable"
    return _language_not_controllable(verdict)


def _cmd_derive_supervisor(args, aut):
    K = _require_language(args)
    verdict = language_controllable(aut, K)
    if not verdict.ok:
        return _language_not_controllable(verdict)
    supervisor = supervisor_from_language(aut, K)
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
    lines = ["supervisor on the language support (default: floor of each event elsewhere):"]
    for row in rows:
        shown = " ".join(row["string"]) or "(empty)"
        lines.append(f"  S({shown})({row['event']}) = {row['value']}")
    return 0, {"controllable": True, "table": rows}, "\n".join(lines)


def _cmd_bridge(args, aut):
    K = _require_language(args)
    payload: dict = {}
    lines = []
    verdict = language_controllable(aut, K)
    payload["language_controllable"] = verdict.ok
    lines.append(f"language controllable: {'yes' if verdict.ok else 'no'}")
    if not verdict.ok:
        s, name = verdict.counterexample
        payload["counterexample"] = {"string": list(s), "event": name}
        lines.append(f"  counterexample: string {' '.join(s) or '(empty)'} with event {name}")
        return 1, payload, "\n".join(lines)
    states = reach_of_language(aut, K)
    payload["passed_states"] = [state_doc(q) for q in states]
    lines.append("passed states: " + ", ".join(format_state(q) for q in states))
    state_verdict = check_controllable(aut, states)
    payload["passed_states_controllable"] = state_verdict.controllable
    lines.append(f"passed states controllable: {'yes' if state_verdict.controllable else 'no'}")
    consistency = consistency_check(aut, K)
    payload["consistent"] = consistency.ok
    lines.append(f"language consistent: {'yes' if consistency.ok else 'no'}")
    if not consistency.ok:
        s1, s2, name = consistency.counterexample
        payload["inconsistency"] = {"first": list(s1), "second": list(s2), "event": name}
        lines.append(
            f"  witness: strings {' '.join(s1) or '(empty)'} and {' '.join(s2) or '(empty)'} "
            f"disagree on event {name}"
        )
        return 1, payload, "\n".join(lines)
    controller = controller_from_language(aut, K)
    payload["controller"] = controller_doc(controller)
    lines.extend(_controller_text(controller))
    return 0, payload, "\n".join(lines)


def _cmd_stability(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state_set spec with the legal states")
    for q in spec.states:
        if len(q) != aut.n:
            raise DimensionMismatch(
                f"legal state {format_state(q)} has {len(q)} components, expected {aut.n}"
            )
    # Both checks run on the coded graph; only the printed states are decoded.
    graph = _explore(aut)
    legal = set(map(encode_state, spec.states))
    infimal = infimal_attractor(graph)
    ordered = [decode_state(q) for q in graph.vertices if q in infimal]
    stable = infimal <= legal
    report = check_attractor(graph, legal)
    payload = {
        "stable": stable,
        "infimal_attractor": [state_doc(q) for q in ordered],
        "legal_set_is_attractor": report.verdict,
    }
    lines = [
        "smallest attractor: " + ", ".join(format_state(q) for q in ordered),
        f"stable for the given legal set: {'yes' if stable else 'no'}",
    ]
    return (0 if stable else 1), payload, "\n".join(lines)


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
    if n_prime is not None and p_set is not None:
        witness = StabilizabilityWitness(n_prime, p_set)
        try:
            controller = synthesize_stabilizing_controller(aut, legal, witness)
        except WitnessRejected:
            return 1, {"stabilizable": False, "reason": "witness failed verification"}, (
                "the supplied witness failed verification"
            )
    else:
        found = search_stabilizing_witness(aut, legal)
        if found is None:
            # Scripts read this exact line as "inconclusive"; keep its bytes.
            text = "no stabilization witness found within budget (inconclusive)"
            size = len(candidate_universe(aut, legal))
            reason = f"no witness over the grid universe ({size} states)"
            return 1, {"stabilizable": None, "reason": reason}, text
        witness, controller = found, found.controller
    payload = {
        "stabilizable": True,
        "target_set": [state_doc(q) for q in witness.n_prime],
        "funnel_set": [state_doc(q) for q in witness.p_set],
        "controller": controller_doc(controller),
    }
    lines = [
        "stabilizing controller found",
        "target set: " + ", ".join(format_state(q) for q in witness.n_prime),
        "funnel set: " + ", ".join(format_state(q) for q in witness.p_set),
    ]
    lines.extend(_controller_text(controller))
    return 0, payload, "\n".join(lines)


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
    rows = [
        {
            "step": 0,
            "event": None,
            "state": state_doc(trajectory.states[0]),
            "degree": "1",
        }
    ]
    lines = [
        f"mode: {'closed loop' if controller else 'open loop'}; script: {' '.join(script)}",
        f"  0: start at {format_state(trajectory.states[0])} (degree 1)",
    ]
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
        lines.append(
            f"  {i + 1}: {name} -> {format_state(state)} (degree {format_possibility(degree)})"
        )
    payload = {"script": list(script), "halted": trajectory.halted, "trajectory": rows}
    if trajectory.halted:
        lines.append(
            f"  halted: event {script[len(trajectory.events)]!r} is disabled or unfeasible here"
        )
    return 0, payload, "\n".join(lines)


def _cmd_export_dot(args, aut):
    if args.what == "accessible":
        dot = fileio.export_dot(accessible_part(aut))
        return 0, {"dot": dot}, dot
    spec = _require_spec(args, StateSetSpec, "a state_set spec")
    graph = build_successor_graph(aut, spec.states)
    if args.what == "successor":
        dot = fileio.export_dot(graph)
        return 0, {"dot": dot}, dot
    verdict = check_controllable(aut, spec.states)
    if not verdict.controllable:
        return _not_controllable(verdict)
    dot = fileio.export_dot(chosen_graph(graph, verdict.subgraph))
    return 0, {"dot": dot}, dot


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
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.format == "dot" and args.command != "export-dot":
            raise FuzzyDESError("--format dot is only available for export-dot")
        aut = _load_automaton(args.automaton)
        code, payload, text = _HANDLERS[args.command](args, aut)
        _write_report(args, payload, text)
    except (FuzzyDESError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _write_report(args, payload: dict, text: str) -> None:
    if args.format == "json":
        rendered = json.dumps(payload, indent=2) + "\n"
    elif args.format == "dot" and "dot" in payload:
        rendered = payload["dot"]
    else:  # text, and the diagnostic of an export-dot with no graph to draw
        rendered = text + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    else:
        sys.stdout.write(rendered)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
