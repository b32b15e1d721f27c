"""Max-min automata for fuzzy discrete-event systems: exact lattice algebra,
reachability under state feedback, controllable state sets, supervisor
translation, and stabilization.

Every submodule but the entry point cli is registered here, in sys.modules
and as an attribute of the package, through importlib.util.LazyLoader: its
body runs on the first access to one of its attributes.  So a CLI command
runs only the modules it uses, and every module stays visible to code that
walks sys.modules.  cli is imported on first use instead, so that
`python -m fuzzydes.cli` finds it unimported.  The public names, cli
included, resolve through the module __getattr__ below (PEP 562).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

# _record and cli's handler modules are registered too, so that no module
# imported by cli adds an attribute to the package later.
_MODULES = ("_record", "errors", "graph", "possibility", "automaton", "reachability",
            "statecontrol", "language", "stability", "fileio",
            "_cli_plant", "_cli_reach", "_cli_control", "_cli_language", "_cli_stability")

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
        "accessible_part", "as_event_string", "closed_loop_graph", "closed_loop_trajectory",
        "make_automaton", "open_loop_trajectory", "run", "step",
    ),
    "reachability": ("ReachFamily", "ReachWitness", "family_contains", "reach_family"),
    "statecontrol": (
        "ControllabilityVerdict", "ControllableSubgraph", "Obstruction", "SuccessorEdge",
        "SuccessorGraph", "build_successor_graph", "check_controllable", "chosen_graph",
        "synthesize_controller", "validate_subgraph",
    ),
    "language": (
        "ConsistencyVerdict", "FuzzyLanguage", "FuzzySupervisor", "LanguageVerdict",
        "consistency_check", "controller_from_language", "language_controllable",
        "reach_of_language", "supervisor_from_controller", "supervisor_from_language",
        "closed_loop_language_of_supervisor",
    ),
    "stability": (
        "AttractorReport", "StabilizabilityWitness", "candidate_universe", "check_attractor",
        "infimal_attractor", "largest_controllable_invariant", "search_stabilizing_witness",
        "synthesize_stabilizing_controller", "verify_stabilizability_witness",
    ),
    "fileio": ("export_dot", "parse_automaton", "parse_spec"),
    "cli": ("run_command",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [name for name in (*_MODULES, "cli", *_OWNER) if not name.startswith("_")]


def __getattr__(name):
    """cli, or a public name read from the module that defines it, which
    runs that module's body if it has not run yet."""
    owner = "cli" if name == "cli" else _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{owner}")
    return module if name == owner else getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__})
