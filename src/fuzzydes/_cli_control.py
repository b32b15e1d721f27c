"""CLI handlers of state-set controllability: succ, check-controllable and
synthesize."""

from __future__ import annotations

from . import statecontrol
from .cli import _controller_lines, _not_controllable, _require_spec, _shown
from .fileio import StateSetSpec, controller_doc, state_doc
from .possibility import encode_state


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


def _controller_text(payload: dict) -> str:
    return "\n".join(_controller_lines(payload))
