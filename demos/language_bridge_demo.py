"""Event feedback versus state feedback.

A fuzzy-language specification can be realized by an event-feedback
supervisor when it is controllable.  Translating it into a state feedback
controller additionally needs consistency: two strings passing through the
same scaled state must agree on every common possible extension.  The drift
plant below shows a language that is controllable, whose passed states form
a controllable set, and which is still not consistent.
"""

from fuzzydes import (
    FuzzyLanguage,
    check_controllable,
    closed_loop_graph,
    closed_loop_language_of_supervisor,
    consistency_check,
    controller_from_language,
    format_possibility,
    format_state,
    language_controllable,
    make_automaton,
    make_event,
    reach_of_language,
    supervisor_from_language,
)

plant = make_automaton(
    state_labels=["high", "medium", "low"],
    initial=["0.9", "0.1", "0"],
    events=[
        make_event("a1", [["0.4", "0", "0"], ["0.4", "0.4", "0"], ["0.4", "0.9", "0.4"]], "0"),
        make_event("a2", [["0.4", "0", "0"], ["0.9", "0.4", "0"], ["0.4", "0.4", "0.4"]], "0"),
        make_event("a3", [["0.4", "0", "0"], ["0.4", "0.4", "0"], ["0.9", "0.4", "0.4"]], "0"),
    ],
)

spec = FuzzyLanguage.from_pairs(
    [
        ((), "1"),
        (("a1",), "0.2"),
        (("a2",), "0.3"),
        (("a3",), "0.3"),
        (("a2", "a1"), "0.2"),
        (("a3", "a1"), "0.3"),
    ]
)

print("Language controllable:", language_controllable(plant, spec).ok)

supervisor = supervisor_from_language(plant, spec)
closed = closed_loop_language_of_supervisor(plant, supervisor, 3)
print("Supervised language reproduces the specification:")
for s in spec.support():
    shown = " ".join(s) or "(empty)"
    print(f"  {shown}: {format_possibility(closed.degree(s))}")

states = reach_of_language(plant, spec)
print("\nStates the language passes through:")
for q in states:
    print("  ", format_state(q))
print("Passed states controllable:", check_controllable(plant, states).controllable)

verdict = consistency_check(plant, spec)
print("\nLanguage consistent:", verdict.ok)
s1, s2, name = verdict.counterexample
print(
    f"  witness: '{' '.join(s1)}' and '{' '.join(s2)}' pass the same state but "
    f"grade extension {name} as "
    f"{format_possibility(spec.degree(s1 + (name,)))} vs "
    f"{format_possibility(spec.degree(s2 + (name,)))}"
)

restricted = FuzzyLanguage.from_pairs([((), "1"), (("a1",), "0.2")])
controller = controller_from_language(plant, restricted)
print("\nA consistent restriction does translate; controller overrides:")
for (state, name), value in sorted(controller.entries.items()):
    print(f"  f({format_state(state)})({name}) = {format_possibility(value)}")
reached = closed_loop_graph(plant, controller).vertices
print(
    "Closed loop reaches exactly the passed states:",
    set(reached) == set(reach_of_language(plant, restricted)),
)
