import random
from fractions import Fraction

import pytest

from fuzzydes import (
    ONE,
    ZERO,
    DimensionMismatch,
    MaxMinAutomaton,
    Trajectory,
    TransitionGraph,
    UnknownEvent,
    ValidationError,
    accessible_part,
    closed_loop_graph,
    closed_loop_language_of_supervisor,
    closed_loop_trajectory,
    make_automaton,
    make_event,
    make_state,
    run,
    scale_product,
    step,
    supervisor_from_controller,
)
from generators import all_strings, controlled_fold, random_automaton, random_controller
from reference import make_controller

S = lambda text: make_state(text.split())

NINE_STATES = [
    S("0.9 0.1 0"),
    S("0.9 0.1 0.1"),
    S("0.5 0.5 0.1"),
    S("0.1 0.9 0.1"),
    S("0.1 0.1 0.9"),
    S("0.5 0.1 0.5"),
    S("0.5 0.5 0.5"),
    S("0.1 0.5 0.5"),
    S("0.1 0.1 0.5"),
]


class TestValidation:
    def test_zero_initial_rejected(self):
        ev = make_event("a", [[1, 0], [0, 1]])
        with pytest.raises(ValidationError):
            make_automaton(["x", "y"], ["0", "0"], [ev])

    def test_duplicate_event_names_rejected(self):
        ev = make_event("a", [[1, 0], [0, 1]])
        with pytest.raises(ValidationError):
            make_automaton(["x", "y"], ["1", "0"], [ev, ev])

    @pytest.mark.parametrize("fields, error, message", [
        ((0, (), (), ()), ValidationError, "dimension must be positive"),
        ((2, ("x",), S("1 0"), ()), ValidationError, "expected 2 state labels, got 1"),
        ((2, ("x", "y"), S("1"), ()), DimensionMismatch, "initial state has 1 components, expected 2"),
        ((1, ("x",), S("1"), (make_event("a", [[1, 0], [0, 1]]),)), DimensionMismatch,
         "event 'a' is 2x2, expected 1x1"),
    ])
    def test_constructor_rejects(self, fields, error, message):
        with pytest.raises(error) as exc:
            MaxMinAutomaton(*fields)
        assert str(exc.value) == message

    def test_trajectory_needs_one_more_state_than_events(self):
        with pytest.raises(ValidationError, match="one more state than events"):
            Trajectory((S("1"),), ("a",))

    @pytest.mark.parametrize("edge, shown", [
        (((0,), "a", (1,)), "[0] --a--> [1]"),
        (((2,), "b", (0,)), "[2] --b--> [0]"),
    ])
    def test_graph_edge_off_the_vertices_rejected(self, edge, shown):
        with pytest.raises(ValidationError) as exc:
            TransitionGraph((0,), ((0,),), (((0,), "a", (0,)), edge))
        assert str(exc.value) == f"edge {shown} has an endpoint that is not a vertex"

    def test_unknown_event_lookup(self, treatment_plant):
        with pytest.raises(UnknownEvent):
            step(treatment_plant, treatment_plant.initial, "z")


class TestOpenLoop:
    def test_step_b(self, treatment_plant):
        assert step(treatment_plant, treatment_plant.initial, "b") == S("0.9 0.1 0.1")

    def test_step_d_self_loop(self, treatment_plant):
        assert step(treatment_plant, treatment_plant.initial, "d") == treatment_plant.initial

    def test_run_empty_is_initial(self, treatment_plant):
        assert run(treatment_plant, "") == treatment_plant.initial

    def test_run_a(self, treatment_plant):
        assert run(treatment_plant, "a") == S("0.1 0.9 0.1")

    def test_run_ab_matches_stepwise_composition(self, treatment_plant):
        by_hand = step(treatment_plant, step(treatment_plant, treatment_plant.initial, "a"), "b")
        assert run(treatment_plant, "ab") == by_hand

    def test_language_degree_empty_string(self, treatment_plant):
        # The empty string has degree 1, though the initial state's largest
        # component is only 0.9.
        supervisor = supervisor_from_controller(treatment_plant, make_controller({}))
        K = closed_loop_language_of_supervisor(treatment_plant, supervisor, 1)
        assert max(run(treatment_plant, "")) == Fraction(9, 10)
        assert K.degrees[()] == ONE
        assert K.degrees[("a",)] == max(run(treatment_plant, "a"))

    def test_language_degree_single(self, treatment_plant):
        assert max(run(treatment_plant, "a")) == Fraction(9, 10)

    def test_language_degree_never_grows(self, treatment_plant):
        rng = random.Random(7)
        names = treatment_plant.event_names
        for _ in range(50):
            s = tuple(rng.choice(names) for _ in range(rng.randint(0, 5)))
            a = rng.choice(names)
            degree = max(run(treatment_plant, s)) if s else ONE
            assert degree >= max(run(treatment_plant, s + (a,)))


class TestAccessiblePart:
    def test_nine_states(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        assert set(graph.vertices) == set(NINE_STATES)
        assert len(graph.vertices) == 9

    def test_identity_automaton_has_single_vertex(self):
        identity = make_event("i", [[1, 0], [0, 1]])
        aut = make_automaton(["x", "y"], ["0.5", "0.2"], [identity])
        graph = accessible_part(aut)
        assert graph.vertices == (aut.initial,)
        assert graph.edges == ((aut.initial, "i", aut.initial),)

    def test_matches_bounded_string_enumeration(self, drift_plant):
        by_strings = set()
        for s in all_strings(drift_plant.event_names, 8):
            q = run(drift_plant, s)
            if any(q):
                by_strings.add(q)
        assert set(accessible_part(drift_plant).vertices) == by_strings

    def test_order_independent(self, treatment_plant):
        shuffled = make_automaton(
            treatment_plant.state_labels,
            treatment_plant.initial,
            tuple(reversed(treatment_plant.events)),
        )
        ours = accessible_part(treatment_plant)
        theirs = accessible_part(shuffled)
        assert set(ours.vertices) == set(theirs.vertices)
        assert set(ours.edges) == set(theirs.edges)

    def test_edges_cover_every_nonzero_transition(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        edge_set = set(graph.edges)
        for q in graph.vertices:
            for name in treatment_plant.event_names:
                p = step(treatment_plant, q, name)
                if any(p):
                    assert (q, name, p) in edge_set

    def test_grid_closure(self, treatment_plant):
        pool = set(treatment_plant.value_grid())
        for q in accessible_part(treatment_plant).vertices:
            assert set(q) <= pool


class TestClosedLoop:
    def test_witness_override_step(self, treatment_plant):
        f = make_controller({(("0.9", "0.1", "0"), "b"): "0.1"})
        out = closed_loop_trajectory(treatment_plant, f, "b").states[-1]
        assert out == S("0.1 0.1 0.1")

    def test_disabled_event_yields_no_transition(self, treatment_plant):
        f = make_controller({(("0.9", "0.1", "0"), "a"): "0"})
        assert closed_loop_trajectory(treatment_plant, f, "a").halted

    def test_all_enabling_controller_matches_open_loop(self, treatment_plant):
        f = make_controller({})
        graph = accessible_part(treatment_plant)
        closed = closed_loop_graph(treatment_plant, f)
        assert (closed.vertices, closed.edges) == (graph.vertices, graph.edges)

    def test_controller_below_floor_rejected(self, treatment_plant):
        f = make_controller({(("0.9", "0.1", "0"), "b"): "0.05"})
        with pytest.raises(ValidationError):
            f.validate(treatment_plant)

    def test_default_below_floor_rejected(self, treatment_plant):
        f = make_controller({}, default="0.5")
        with pytest.raises(ValidationError):
            f.validate(treatment_plant)

    def test_language_degree_of_witness_string(self, treatment_plant):
        f = make_controller({(("0.9", "0.1", "0"), "b"): "0.1"})
        assert max(closed_loop_trajectory(treatment_plant, f, "b").states[-1]) == Fraction(1, 10)

    def test_language_containment(self, treatment_plant):
        rng = random.Random(3)
        f = random_controller(rng, treatment_plant)
        for s in all_strings(treatment_plant.event_names, 3):
            closed = closed_loop_trajectory(treatment_plant, f, s)
            if s and not closed.halted:
                assert max(closed.states[-1]) <= max(run(treatment_plant, s))

    def test_grid_closure_under_control(self, treatment_plant):
        rng = random.Random(5)
        f = random_controller(rng, treatment_plant)
        pool = set(treatment_plant.value_grid()) | set(f.entries.values()) | {f.default}
        for q in closed_loop_graph(treatment_plant, f).vertices:
            assert set(q) <= pool

    def test_empty_string_stays_at_the_initial_state(self, treatment_plant):
        # The controller disables a at the initial state; no event, no halt.
        f = make_controller({(("0.9", "0.1", "0"), "a"): "0"})
        t = closed_loop_trajectory(treatment_plant, f, "")
        assert t.states == (treatment_plant.initial,) and t.events == () and not t.halted

    def test_trajectory_halts_on_disabled_event(self, treatment_plant):
        f = make_controller({(("0.9", "0.1", "0"), "a"): "0"})
        t = closed_loop_trajectory(treatment_plant, f, "da")
        assert t.halted and t.events == ("d",) and len(t.states) == 2


class TestScalingIdentities:
    def test_closed_loop_run_is_scaled_open_loop(self):
        rng = random.Random(11)
        for _ in range(30):
            aut = random_automaton(rng, max_n=4, max_events=3)
            f = random_controller(rng, aut)
            for s in all_strings(aut.event_names, 4):
                if not s:
                    continue
                folded, alphas = controlled_fold(aut, f, s)
                expected = scale_product(min(alphas), run(aut, s))
                assert folded == expected

    def test_closed_loop_degree_is_scaled_language_degree(self):
        rng = random.Random(12)
        for _ in range(30):
            aut = random_automaton(rng, max_n=4, max_events=3)
            f = random_controller(rng, aut)
            for s in all_strings(aut.event_names, 4):
                if not s:
                    continue
                _, alphas = controlled_fold(aut, f, s)
                expected = min(min(alphas), max(run(aut, s)))
                closed = closed_loop_trajectory(aut, f, s)
                assert (ZERO if closed.halted else max(closed.states[-1])) == expected
