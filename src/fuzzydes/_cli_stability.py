"""CLI handlers of attractors and stabilization: stability and stabilize."""

from __future__ import annotations

from . import stability
from .automaton import _explore, _validated_codes
from .cli import _controller_lines, _load_spec, _require_spec, _shown, _yes
from .errors import FuzzyDESError, WitnessRejected
from .fileio import StateSetSpec, WitnessSpec, controller_doc, state_doc
from .possibility import decode_state


def _cmd_stability(args, aut):
    spec = _require_spec(args, StateSetSpec, "a state_set spec with the legal states")
    legal = set(_validated_codes(aut, spec.states))
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
