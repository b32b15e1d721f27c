"""CLI handlers of the language bridge: check-language, derive-supervisor
and bridge."""

from __future__ import annotations

from . import language, statecontrol
from .cli import _controller_lines, _require_spec, _shown, _yes
from .errors import ValidationError
from .fileio import LanguageSpec, controller_doc, state_doc
from .possibility import format_possibility


def _require_language(args):
    """The language spec.  --max-len bounds no check: it only rejects a
    nonempty language deeper than it allows, before any check runs."""
    K = _require_spec(args, LanguageSpec, "a language spec").language
    if not K.is_empty and args.max_len < K.depth() + 1:
        raise ValidationError(
            f"max_len {args.max_len} is below the support depth plus one ({K.depth() + 1})"
        )
    return K


def _words(s: list[str]) -> str:
    return " ".join(s) or "(empty)"


def _language_not_controllable(verdict):
    s, name = verdict.counterexample
    payload = {"controllable": False, "counterexample": {"string": list(s), "event": name}}
    return 1, payload, _counterexample_text


def _counterexample_text(payload: dict) -> str:
    s, name = payload["counterexample"]["string"], payload["counterexample"]["event"]
    return f"language is not controllable: string {_words(s)} with event {name}"


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
