"""The package's public names, pinned.

Adding a name to fuzzydes or removing one changes this list, so every change
of the public surface shows up as a diff here.
"""

import fuzzydes

PUBLIC = [
    "AttractorReport", "ConsistencyVerdict", "ControllabilityVerdict",
    "ControllableSubgraph", "DimensionMismatch", "DomainError", "FuzzyDESError",
    "FuzzyEvent", "FuzzyLanguage", "FuzzySupervisor",
    "InvariantVerdict", "LanguageVerdict", "MaxMinAutomaton", "ONE", "Obstruction",
    "Possibility", "PreconditionError", "ReachFamily", "ReachWitness", "ScaleSolution",
    "StabilizabilityWitness", "State", "StateFeedbackController", "SuccessorEdge",
    "SuccessorGraph", "Trajectory", "TransitionGraph", "UnknownEvent", "ValidationError",
    "WitnessRejected", "ZERO", "accessible_part", "as_event_string", "as_possibility",
    "automaton", "build_successor_graph", "candidate_universe", "check_attractor",
    "check_controllable", "check_controllable_invariant", "chosen_graph", "cli",
    "closed_loop_graph", "closed_loop_language_degree",
    "closed_loop_language_of_supervisor", "closed_loop_reachable", "closed_loop_step",
    "closed_loop_trajectory", "consistency_check", "controller_from_language", "errors",
    "export_dot", "family_contains", "fileio", "format_possibility", "format_state",
    "graph", "infimal_attractor", "is_stable", "language", "language_controllable",
    "language_degree", "largest_controllable_invariant", "make_automaton",
    "make_controller", "make_event", "make_state", "maxmin_compose", "open_loop_trajectory",
    "parse_automaton", "parse_spec", "possibility", "reach_family", "reach_of_language",
    "reachability", "run", "run_command", "scale_product", "scaling_floor",
    "search_stabilizing_witness", "serialize_automaton", "serialize_controller",
    "serialize_language", "solve_scale", "stability", "state_is_zero", "statecontrol",
    "step", "successor_set", "supervisor_from_controller", "supervisor_from_language",
    "synthesize_controller", "synthesize_stabilizing_controller", "validate_subgraph",
    "verify_stabilizability_witness",
]


def test_public_names_are_pinned():
    assert sorted(fuzzydes.__all__) == PUBLIC

