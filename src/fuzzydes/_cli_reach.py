"""CLI handlers of controlled reachability: reach and member."""

from __future__ import annotations

from . import reachability
from .cli import _controller_lines, _require_spec, _shown
from .errors import FuzzyDESError
from .fileio import StateSetSpec, controller_doc, state_doc
from .possibility import format_possibility


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
