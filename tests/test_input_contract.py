"""One refusal per malformed input, whichever public function gets it.

Every public function that takes a state, a state set or a controller
checks it through one owner: automaton._validated_codes for states and
state sets, StateFeedbackController.validate for controllers.  The table
below feeds each such function each malformed value and expects the
owner's exception type and message, exactly, so no function can keep a
copy of a check that drifts from the others.
"""

from fractions import Fraction

import pytest

from conftest import load_automaton
from fuzzydes import (
    ControllableSubgraph,
    DimensionMismatch,
    StabilizabilityWitness,
    StateFeedbackController,
    UnknownEvent,
    ValidationError,
    build_successor_graph,
    candidate_universe,
    check_controllable,
    closed_loop_graph,
    closed_loop_trajectory,
    family_contains,
    largest_controllable_invariant,
    make_state,
    reach_family,
    search_stabilizing_witness,
    supervisor_from_controller,
    synthesize_controller,
    synthesize_stabilizing_controller,
    verify_stabilizability_witness,
)

PLANT = load_automaton("treatment_plant.json")  # floors a 0, b 0.1, c 1, d 1
FIRST, SECOND = make_state(["0.9", "0.1", "0"]), make_state(["0.1", "0.9", "0.1"])
WELL_FORMED = (FIRST, SECOND)

# Each malformed state, with the exception and message it must raise.  A
# repeat is malformed only inside a set.
MALFORMED_STATES = {
    "length": (make_state(["0.1", "0.1"]), DimensionMismatch,
               "state [0.1,0.1] has 2 components, expected 3"),
    "zero": (make_state(["0", "0", "0"]), ValidationError,
             "the all-zero vector is excluded from the state set"),
}
MALFORMED_MEMBERS = {
    **MALFORMED_STATES,
    "repeat": (FIRST, ValidationError, "duplicate state [0.9,0.1,0] in the set"),
}


def _witness(n=WELL_FORMED, n_prime=WELL_FORMED[:1], p=WELL_FORMED):
    return n, StabilizabilityWitness(tuple(n_prime), tuple(p))


# Each function that takes a state set, called with the set S.  The witness
# functions take S as one of N, N' and P of a witness well formed otherwise.
SET_TAKERS = {
    "build_successor_graph": lambda S: build_successor_graph(PLANT, S),
    "check_controllable": lambda S: check_controllable(PLANT, S),
    "synthesize_controller": lambda S: synthesize_controller(PLANT, S, ControllableSubgraph({})),
    "largest_controllable_invariant": lambda S: largest_controllable_invariant(PLANT, S),
    "candidate_universe": lambda S: candidate_universe(PLANT, S),
    "search_stabilizing_witness": lambda S: search_stabilizing_witness(PLANT, S),
    **{
        f"{verifier.__name__}-{field}": (
            lambda S, verifier=verifier, field=field: verifier(PLANT, *_witness(**{field: S}))
        )
        for verifier in (verify_stabilizability_witness, synthesize_stabilizing_controller)
        for field in ("n", "n_prime", "p")
    },
}

# Each malformed controller, with the exception and message it must raise.
MALFORMED_CONTROLLERS = {
    "entry-below-floor": (
        StateFeedbackController({(FIRST, "c"): Fraction(0)}), ValidationError,
        "controller value 0 for event 'c' at [0.9,0.1,0] is below the uncontrollability floor 1",
    ),
    "default-below-floor": (
        StateFeedbackController({}, Fraction(0)), ValidationError,
        "controller default 0 is below the highest uncontrollability floor 1",
    ),
    "unknown-event": (
        StateFeedbackController({(FIRST, "zz"): Fraction(1)}), UnknownEvent,
        "controller maps unknown event 'zz'",
    ),
    "state-length": (
        StateFeedbackController({(make_state(["0.1", "0.1"]), "a"): Fraction(1)}), DimensionMismatch,
        "controller state [0.1,0.1] has 2 components, expected 3",
    ),
}

CONTROLLER_TAKERS = {
    "closed_loop_graph": lambda f: closed_loop_graph(PLANT, f),
    "closed_loop_trajectory": lambda f: closed_loop_trajectory(PLANT, f, "c"),
    "supervisor_from_controller": lambda f: supervisor_from_controller(PLANT, f),
}

CASES = [
    *(
        pytest.param(lambda q=q: family_contains(reach_family(PLANT), q), error, message,
                     id=f"family_contains-{kind}")
        for kind, (q, error, message) in MALFORMED_STATES.items()
    ),
    *(
        pytest.param(lambda call=call, q=q: call((FIRST, q)), error, message, id=f"{name}-{kind}")
        for name, call in SET_TAKERS.items()
        for kind, (q, error, message) in MALFORMED_MEMBERS.items()
    ),
    *(
        pytest.param(lambda call=call, f=f: call(f), error, message, id=f"{name}-{kind}")
        for name, call in CONTROLLER_TAKERS.items()
        for kind, (f, error, message) in MALFORMED_CONTROLLERS.items()
    ),
]


@pytest.mark.parametrize("call,error,message", CASES)
def test_every_public_function_refuses_a_malformed_input_as_its_owner_does(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (error, message)
