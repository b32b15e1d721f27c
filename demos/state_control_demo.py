"""Confining the plant to an admissible set of fuzzy states.

Some mixtures of concentration levels are undesirable, so we pick an
admissible set and ask for a feedback controller whose closed loop reaches
exactly that set.  The decision runs through a successor graph: edges are
admissible scalings between members, and a controllable subgraph (functional
per event, covering every partially uncontrollable feasible event, spanning
from the initial state) certifies the set.
"""

from fuzzydes import (
    build_successor_graph,
    check_controllable,
    closed_loop_graph,
    export_dot,
    format_possibility,
    format_state,
    make_automaton,
    make_event,
    make_state,
    synthesize_controller,
)

plant = make_automaton(
    state_labels=["high", "medium", "low"],
    initial=["0.9", "0.1", "0"],
    events=[
        make_event("a", [["0.1", "0.9", "0.1"], ["0", "0", "1"], ["0", "0", "1"]], "0"),
        make_event("b", [["0.9", "0.1", "0"], ["0", "0.1", "0.9"], ["0", "0", "1"]], "0.1"),
        make_event("c", [["1", "0.1", "0"], ["0", "0.5", "0.5"], ["0", "0", "1"]], "1"),
        make_event("d", [["1", "0", "0"], ["0.5", "0.5", "0"], ["0", "0.5", "0.5"]], "1"),
    ],
)

admissible = tuple(
    make_state(v)
    for v in [
        ["0.9", "0.1", "0"],
        ["0.9", "0.1", "0.1"],
        ["0.5", "0.5", "0.1"],
        ["0.1", "0.9", "0.1"],
        ["0.1", "0.1", "0.9"],
        ["0.5", "0.5", "0.5"],
        ["0.1", "0.5", "0.5"],
        ["0.1", "0.1", "0.1"],
    ]
)

successors = build_successor_graph(plant, admissible)
print("Successor sets within the admissible set:")
for q in admissible:
    edges = [e for e in successors.edges if e.source == q]
    pairs = ", ".join(f"({e.event}, {format_state(e.target)})" for e in edges)
    print(f"  {format_state(q)}: {{{pairs}}}")

verdict = check_controllable(plant, admissible)
print(f"\nAdmissible set controllable: {verdict.controllable}")
print("Chosen subgraph edges:")
for (src, name), dst in sorted(verdict.subgraph.choice.items()):
    print(f"  {format_state(src)} --{name}--> {format_state(dst)}")

controller = synthesize_controller(plant, admissible, verdict.subgraph)
print("\nSynthesized controller overrides (default 1):")
for (state, name), value in sorted(controller.entries.items()):
    print(f"  f({format_state(state)})({name}) = {format_possibility(value)}")

reached = closed_loop_graph(plant, controller).vertices
print(f"\nClosed loop reaches exactly the admissible set: {set(reached) == set(admissible)}")

print("\nDOT text of the successor graph (first lines):")
dot = export_dot(successors)
print("\n".join(dot.splitlines()[:6]), "\n  ...")
