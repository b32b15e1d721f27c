"""Max-min automata for fuzzy discrete-event systems: exact lattice algebra,
reachability under state feedback, controllable state sets, supervisor
translation, and stabilization.

Every submodule is registered here, in sys.modules and as an attribute of
the package, through importlib.util.LazyLoader: its body runs on the first
access to one of its attributes.  So a CLI command runs only the modules it
uses, and every module stays visible to code that walks sys.modules.  The
public names resolve through the module __getattr__ below (PEP 562).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# _record is registered too, so that no submodule's first import adds an
# attribute to the package later.
_MODULES = ("_record", "errors", "graph", "possibility", "automaton", "reachability",
            "statecontrol", "language", "stability", "fileio", "cli")

for _name in _MODULES:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module, sys, LazyLoader, find_spec, module_from_spec

# The public names of each submodule.
_EXPORTS = {
    "errors": (
        "DimensionMismatch", "DomainError", "FuzzyDESError", "PreconditionError",
        "UnknownEvent", "ValidationError", "WitnessRejected",
    ),
    "possibility": (
        "ONE", "ZERO", "FuzzyEvent", "Possibility", "ScaleSolution", "State", "as_possibility",
        "format_possibility", "format_state", "make_event", "make_state", "maxmin_compose",
        "scale_product", "solve_scale", "state_is_zero",
    ),
    "automaton": (
        "MaxMinAutomaton", "StateFeedbackController", "Trajectory", "TransitionGraph",
        "accessible_part", "as_event_string", "closed_loop_graph", "closed_loop_language_degree",
        "closed_loop_reachable", "closed_loop_step", "closed_loop_trajectory", "language_degree",
        "make_automaton", "make_controller", "open_loop_trajectory", "run", "step",
    ),
    "reachability": (
        "ReachFamily", "ReachWitness", "family_contains", "reach_family", "scaling_floor",
    ),
    "statecontrol": (
        "ControllabilityVerdict", "ControllableSubgraph", "Obstruction", "SuccessorEdge",
        "SuccessorGraph", "build_successor_graph", "check_controllable", "chosen_graph",
        "successor_set", "synthesize_controller", "validate_subgraph",
    ),
    "language": (
        "ConsistencyVerdict", "FuzzyLanguage", "FuzzySupervisor", "LanguageVerdict",
        "consistency_check", "controller_from_language", "language_controllable",
        "reach_of_language", "supervisor_from_controller", "supervisor_from_language",
        "closed_loop_language_of_supervisor",
    ),
    "stability": (
        "AttractorReport", "InvariantVerdict", "StabilizabilityWitness", "candidate_universe",
        "check_attractor", "check_controllable_invariant", "infimal_attractor", "is_stable",
        "largest_controllable_invariant", "search_stabilizing_witness",
        "synthesize_stabilizing_controller", "verify_stabilizability_witness",
    ),
    "fileio": (
        "export_dot", "parse_automaton", "parse_spec", "serialize_automaton",
        "serialize_controller", "serialize_language",
    ),
    "cli": ("run_command",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for name in (*_MODULES, *_OWNER) if not name.startswith("_")]


def __getattr__(name):
    """A public name, read from the module that defines it, which runs that
    module's body if it has not run yet."""
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[owner], name)


def __dir__():
    return sorted({*globals(), *__all__})
