"""CLI handlers that run the plant itself: simulate and export-dot."""

from __future__ import annotations

import random

from . import fileio, statecontrol
from .automaton import accessible_part, closed_loop_trajectory, open_loop_trajectory
from .cli import _load_spec, _not_controllable, _require_spec, _shown
from .errors import FuzzyDESError
from .fileio import ControllerSpec, StateSetSpec, state_doc
from .possibility import format_possibility


def _cmd_simulate(args, aut):
    controller = None
    if args.spec is not None:
        spec = _load_spec(args.spec)
        if not isinstance(spec, ControllerSpec):
            raise FuzzyDESError("simulate takes an fsfc spec when --spec is given")
        controller = spec.controller
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
    if args.what == "subgraph":  # decide before drawing
        verdict = statecontrol.check_controllable(aut, spec.states)
        if not verdict.controllable:
            return _not_controllable(verdict)
    graph = statecontrol.build_successor_graph(aut, spec.states)
    if args.what == "subgraph":
        graph = statecontrol.chosen_graph(graph, verdict.subgraph)
    return 0, {"dot": fileio.export_dot(graph)}, _dot_text


def _dot_text(payload: dict) -> str:
    return payload["dot"]
