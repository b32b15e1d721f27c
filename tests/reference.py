"""Helpers that only the tests use: an oracle for the scaling floors, a
controller builder, the replaying supervisor rule, the choice check by its
definition (the oracle of _moves._checked_choice, which reads the moves of
_moves._expand), and the writers of the automaton, controller and language
documents.

The writers give the round-trip tests and the golden recorder the canonical
text of each document.  All of these live apart from generators.py, whose
draws the bench corpus replays.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from fuzzydes import (
    ONE,
    ZERO,
    ControllableSubgraph,
    DomainError,
    FuzzyLanguage,
    FuzzySupervisor,
    MaxMinAutomaton,
    StateFeedbackController,
    TransitionGraph,
    ValidationError,
    as_possibility,
    format_possibility,
    format_state,
    make_state,
    maxmin_compose,
    solve_scale,
    state_is_zero,
)
from fuzzydes.automaton import _coded, _run
from fuzzydes.fileio import _json_text, controller_doc, state_doc
from fuzzydes.graph import closure
from fuzzydes.possibility import decode_value


def scaling_floor(graph: TransitionGraph, uc: Mapping[str, Fraction], q) -> Fraction:
    """Least uncontrollability degree over events labeling an edge on some
    root-to-q walk; 1 when there is none (the empty minimum convention).
    Such an edge is an in-link of a vertex that reaches q, so one backward
    closure from q finds them all, in time linear in the graph.  The oracle
    of reachability._floors, which finds every vertex's floor in one pass."""
    if q not in graph.vertices:
        raise DomainError(f"state {format_state(q)} is not an accessible vertex")
    _, into = graph._links
    ancestors = closure([graph.vertices.index(q)], lambda v: (u for _, u in into[v]))
    return min((uc[name] for v in ancestors for name, _ in into[v]), default=ONE)


def make_controller(entries=None, default=1) -> StateFeedbackController:
    """Build a controller from {(state, event): value} overrides; states and
    values are coerced to exact form."""
    table = {
        (make_state(state), str(name)): as_possibility(value)
        for (state, name), value in (entries or {}).items()
    }
    return StateFeedbackController(table, as_possibility(default))


def replaying_supervisor(aut: MaxMinAutomaton, f: StateFeedbackController) -> FuzzySupervisor:
    """The controller's supervisor by its definition: replay the controlled
    run of the whole observed string on every query, ask the controller at
    the state it ends in, and fully enable once the run has vanished.  The
    oracle of supervisor_from_controller, which steps once per new prefix."""
    f.validate(aut)
    coded = _coded(f)

    def rule(s, name):
        states = _run(aut, s, coded)
        if len(states) <= len(s):
            return ONE
        return decode_value(coded(states[-1], name))

    return FuzzySupervisor(rule)


def reference_synthesize_controller(
    aut: MaxMinAutomaton, P, subgraph: ControllableSubgraph
) -> StateFeedbackController:
    """synthesize_controller by its definition, over values, on a well-formed
    nonempty P: each chosen edge in choice order gets
    solve_scale(q . a, t).restrict(floor).least(), then every forced event
    must have a chosen edge (C2), then the chosen edges must reach every
    member from the initial state.  A malformed choice raises what the
    library raises, with its message.  The oracle of
    _moves._checked_choice, which reads each alpha from the set's
    expansion in closed form."""
    states = tuple(P)
    members = set(states)
    feasible = {
        q: {ev.name: (ev, c) for ev in aut.events if not state_is_zero(c := maxmin_compose(q, ev))}
        for q in states
    }
    alphas = {q: dict.fromkeys(events, ZERO) for q, events in feasible.items()}
    edges: dict = {}
    for (q, name), t in subgraph.choice.items():
        if q not in members or t not in members:
            raise ValidationError(
                f"chosen edge {format_state(q)} --{name}--> {format_state(t)} leaves the candidate set"
            )
        # An infeasible event composes to zero, which scales onto no member.
        ev, composed = feasible[q].get(name) or (aut.event(name), (ZERO,) * aut.n)
        alpha = solve_scale(composed, t).restrict(ev.uc_degree).least()
        if alpha is None:
            raise ValidationError(
                f"no admissible scaling realizes {format_state(q)} --{name}--> {format_state(t)}"
            )
        alphas[q][name] = alpha
        edges.setdefault(q, []).append(t)
    for q in states:
        for name, (ev, _) in feasible[q].items():
            if ev.uc_degree and not alphas[q][name]:
                raise ValidationError(
                    f"event {name!r} is feasible and partially uncontrollable at "
                    f"{format_state(q)} but has no chosen edge"
                )
    if aut.initial not in members:
        raise ValidationError("the initial state is not a member of the candidate set")
    reach = closure([aut.initial], lambda q: edges.get(q, ()))
    if reach != members:
        missing = ", ".join(format_state(q) for q in states if q not in reach)
        raise ValidationError(f"chosen edges do not reach: {missing}")
    entries = {(q, name): alpha for q in states for name, alpha in alphas[q].items()}
    return StateFeedbackController(entries, ONE)


def serialize_automaton(aut: MaxMinAutomaton) -> str:
    doc = {
        "n": aut.n,
        "state_labels": list(aut.state_labels),
        "initial": state_doc(aut.initial),
        "events": [
            {
                "name": ev.name,
                "uncontrollable_degree": format_possibility(ev.uc_degree),
                "matrix": [state_doc(row) for row in ev.matrix],
            }
            for ev in aut.events
        ],
    }
    return _json_text(doc) + "\n"


def serialize_controller(f: StateFeedbackController) -> str:
    return _json_text({"kind": "fsfc", **controller_doc(f)}) + "\n"


def serialize_language(language: FuzzyLanguage) -> str:
    doc = {
        "kind": "language",
        "pairs": [
            {"string": list(s), "degree": format_possibility(language.degree(s))}
            for s in language.support()
        ],
    }
    return _json_text(doc) + "\n"
