"""Max-min automata for fuzzy discrete-event systems: exact lattice algebra,
reachability under state feedback, controllable state sets, supervisor
translation, and stabilization."""

from .errors import (
    DimensionMismatch,
    DomainError,
    FuzzyDESError,
    InfeasibleControl,
    PreconditionError,
    UnknownEvent,
    ValidationError,
    WitnessRejected,
)
from .possibility import (
    ONE,
    ZERO,
    FuzzyEvent,
    Possibility,
    ScaleSolution,
    State,
    as_possibility,
    format_possibility,
    format_state,
    make_event,
    make_state,
    maxmin_compose,
    scale_product,
    solve_scale,
    state_is_zero,
)
from .automaton import (
    MaxMinAutomaton,
    StateFeedbackController,
    Trajectory,
    TransitionGraph,
    accessible_part,
    as_event_string,
    closed_loop_graph,
    closed_loop_language_degree,
    closed_loop_reachable,
    closed_loop_step,
    closed_loop_trajectory,
    language_degree,
    make_automaton,
    make_controller,
    open_loop_trajectory,
    run,
    step,
)
from .reachability import (
    ReachFamily,
    ReachWitness,
    family_contains,
    reach_family,
    scaling_floor,
)
from .statecontrol import (
    ControllabilityVerdict,
    ControllableSubgraph,
    Obstruction,
    SuccessorEdge,
    SuccessorGraph,
    build_successor_graph,
    check_controllable,
    chosen_graph,
    successor_set,
    synthesize_controller,
    validate_subgraph,
)
from .language import (
    ConsistencyVerdict,
    FuzzyLanguage,
    FuzzySupervisor,
    LanguageVerdict,
    consistency_check,
    controller_from_language,
    controller_language_is_controllable,
    language_controllable,
    reach_of_language,
    supervisor_from_controller,
    supervisor_from_language,
    closed_loop_language_of_supervisor,
)
from .stability import (
    AttractorReport,
    InvariantVerdict,
    StabilizabilityWitness,
    candidate_universe,
    check_attractor,
    check_controllable_invariant,
    find_cycles,
    grid_universe,
    infimal_attractor,
    is_stable,
    largest_controllable_invariant,
    search_stabilizing_witness,
    synthesize_stabilizing_controller,
    verify_stabilizability_witness,
)
from .fileio import (
    export_dot,
    parse_automaton,
    parse_spec,
    serialize_automaton,
    serialize_controller,
    serialize_language,
)
from .cli import run_command

__all__ = [name for name in dir() if not name.startswith("_")]
