"""Attractors and stabilization.

Open-loop stability asks whether the plant inevitably settles into the legal
states: the smallest attractor (cycle-reachable states plus dead states)
must be legal.  When it is not, a stabilizing controller may still exist; a
witness pairs a controllable invariant target inside the legal set with a
controllable funnel that drains into it.
"""

from fuzzydes import (
    accessible_part,
    check_attractor,
    closed_loop_graph,
    format_possibility,
    format_state,
    infimal_attractor,
    make_automaton,
    make_event,
    make_state,
    search_stabilizing_witness,
)

drift = make_automaton(
    state_labels=["high", "medium", "low"],
    initial=["0.9", "0.1", "0"],
    events=[
        make_event("a1", [["0.4", "0", "0"], ["0.4", "0.4", "0"], ["0.4", "0.9", "0.4"]], "0"),
        make_event("a2", [["0.4", "0", "0"], ["0.9", "0.4", "0"], ["0.4", "0.4", "0.4"]], "0"),
        make_event("a3", [["0.4", "0", "0"], ["0.4", "0.4", "0"], ["0.9", "0.4", "0.4"]], "0"),
    ],
)

graph = accessible_part(drift)
smallest = infimal_attractor(graph)
print("Drift plant's smallest attractor:", [format_state(q) for q in smallest])
legal = {make_state(["0.4", "0.1", "0"])}
print("Stable for legal set {[0.4,0.1,0]}:", smallest <= legal)
print("That legal set is itself an attractor:", check_attractor(graph, legal).verdict)

# A plant that needs active redirection: event u cannot be suppressed below
# 0.5, and from the high state it would exit the legal region.
cascade = make_automaton(
    state_labels=["s0", "s1", "s2"],
    initial=["1", "0", "0"],
    events=[
        make_event("g", [["1", "1", "1"], ["0", "0.5", "0.5"], ["0", "0.5", "0.5"]], "0"),
        make_event("u", [["0", "0.8", "0.8"], ["0", "0", "0"], ["0", "0", "0"]], "0.5"),
    ],
)
legal = (make_state(["1", "1", "1"]), make_state(["0", "0.5", "0.5"]))
print("\nCascade plant, legal set:", [format_state(q) for q in legal])
print("Open-loop stable:", infimal_attractor(accessible_part(cascade)) <= set(legal))

witness = search_stabilizing_witness(cascade, legal)
print("Stabilizing witness found:", witness is not None)
print("  target set:", [format_state(q) for q in witness.n_prime])
print("  funnel set:", [format_state(q) for q in witness.p_set])
print("  controller overrides (default 1):")
for (state, name), value in sorted(witness.controller.entries.items()):
    print(f"    f({format_state(state)})({name}) = {format_possibility(value)}")

closed = closed_loop_graph(cascade, witness.controller)
report = check_attractor(closed, set(witness.n_prime))
print("  closed-loop target is an attractor:", report.verdict)
