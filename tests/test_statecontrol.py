import inspect
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from fuzzydes import (
    ControllableSubgraph,
    DomainError,
    ValidationError,
    accessible_part,
    build_successor_graph,
    check_controllable,
    chosen_graph,
    closed_loop_reachable,
    make_state,
    successor_set,
    synthesize_controller,
    validate_subgraph,
)
from fuzzydes.statecontrol import forced_events
from generators import COARSE, random_automaton, random_controller

S = lambda text: make_state(text.split())

Q = {
    0: S("0.9 0.1 0"),
    1: S("0.9 0.1 0.1"),
    2: S("0.5 0.5 0.1"),
    3: S("0.1 0.9 0.1"),
    4: S("0.1 0.1 0.9"),
    6: S("0.5 0.5 0.5"),
    7: S("0.1 0.5 0.5"),
    9: S("0.1 0.1 0.1"),
}

EXPECTED_SUCC = {
    0: {("a", 3), ("a", 9), ("b", 1), ("b", 9), ("c", 1), ("d", 0)},
    1: {("a", 3), ("a", 9), ("b", 1), ("b", 9), ("c", 1), ("d", 1)},
    2: {("a", 7), ("a", 9), ("b", 9), ("c", 6), ("d", 2)},
    3: {("a", 4), ("a", 9), ("b", 4), ("b", 9), ("c", 7), ("d", 2)},
    4: {("a", 4), ("a", 9), ("b", 4), ("b", 9), ("c", 4), ("d", 7)},
    6: {("a", 7), ("a", 9), ("b", 9), ("c", 6), ("d", 6)},
    7: {("a", 9), ("b", 9), ("c", 7), ("d", 6)},
    9: {("a", 9), ("b", 9), ("c", 9), ("d", 9)},
}

CHOSEN_SELECTION = {
    0: {"a": 3, "b": 9, "c": 1, "d": 0},
    1: {"a": 3, "b": 9, "c": 1, "d": 1},
    2: {"a": 7, "b": 9, "c": 6, "d": 2},
    3: {"b": 4, "c": 7, "d": 2},
    4: {"b": 4, "c": 4, "d": 7},
    6: {"a": 7, "b": 9, "c": 6, "d": 6},
    7: {"b": 9, "c": 7, "d": 6},
    9: {"b": 9, "c": 9, "d": 9},
}


def reference_subgraph():
    choice = {}
    for i, table in CHOSEN_SELECTION.items():
        for name, j in table.items():
            choice[(Q[i], name)] = Q[j]
    return ControllableSubgraph(choice)


class TestSuccessorSets:
    def test_all_eight_match(self, treatment_plant, admissible_set):
        for i, expected in EXPECTED_SUCC.items():
            edges = successor_set(treatment_plant, admissible_set, Q[i])
            got = {(e.event, e.target) for e in edges}
            assert got == {(name, Q[j]) for name, j in expected}, f"state {i}"

    def test_cardinality_bound(self, treatment_plant, admissible_set):
        bound = len(treatment_plant.events) * len(admissible_set)
        for q in admissible_set:
            assert len(successor_set(treatment_plant, admissible_set, q)) <= bound

    def test_non_member_is_domain_error(self, treatment_plant, admissible_set):
        with pytest.raises(DomainError):
            successor_set(treatment_plant, admissible_set, S("0.5 0.1 0.5"))

    def test_singleton_initial(self, single_event_plant):
        # From [0.9,0.1,0] the only composition is [0.1,0.9,0.1]; no scaling
        # with alpha >= 0.8 lands back, so no successors within the singleton.
        P = (single_event_plant.initial,)
        assert successor_set(single_event_plant, P, P[0]) == ()


def compatible_subsets(aut, P, q, succ):
    """Lazily enumerate the subsets of succ (the successor edges of q within
    P) that are functional per event (C1) and keep a target for every
    feasible event with a positive floor (C2)."""
    options = []
    mandatory = {ev.name for ev, _ in forced_events(aut, q)}
    for ev in aut.events:
        candidates = [e for e in succ if e.event == ev.name]
        if ev.name in mandatory:
            options.append(candidates)  # empty list kills the enumeration
        elif candidates:
            options.append([None, *candidates])
    for pick in product(*options):
        yield tuple(e for e in pick if e is not None)


class TestCompatibleSubsets:
    def test_sink_state_drops_only_the_free_event(self, treatment_plant, admissible_set):
        succ = successor_set(treatment_plant, admissible_set, Q[9])
        subsets = [frozenset((e.event, e.target) for e in c)
                   for c in compatible_subsets(treatment_plant, admissible_set, Q[9], succ)]
        wanted = frozenset({("b", Q[9]), ("c", Q[9]), ("d", Q[9])})
        assert wanted in subsets

    def test_count_matches_brute_force_filter(self, treatment_plant, admissible_set):
        succ = successor_set(treatment_plant, admissible_set, Q[0])
        lazy = list(compatible_subsets(treatment_plant, admissible_set, Q[0], succ))
        brute = []
        for mask in range(2 ** len(succ)):
            subset = [e for k, e in enumerate(succ) if mask >> k & 1]
            per_event = {}
            functional = True
            for e in subset:
                if per_event.setdefault(e.event, e.target) != e.target:
                    functional = False
            if not functional:
                continue
            covered = {e.event for e in subset}
            met = True
            for ev in treatment_plant.events:
                from fuzzydes import maxmin_compose, state_is_zero

                if ev.uc_degree > 0 and not state_is_zero(
                    maxmin_compose(Q[0], ev)
                ) and ev.name not in covered:
                    met = False
            if met:
                brute.append(frozenset((e.event, e.target) for e in subset))
        assert sorted(map(sorted, (
            {(e.event, e.target) for e in c} for c in lazy
        ))) == sorted(map(sorted, brute))
        assert len(lazy) == 6

    def test_unsatisfiable_coverage_yields_nothing(self, single_event_plant):
        P = (single_event_plant.initial,)
        succ = successor_set(single_event_plant, P, P[0])
        assert list(compatible_subsets(single_event_plant, P, P[0], succ)) == []


class TestSuccessorGraph:
    def test_union_of_successor_sets(self, treatment_plant, admissible_set):
        graph = build_successor_graph(treatment_plant, admissible_set)
        got = {(e.source, e.event, e.target) for e in graph.edges}
        expected = set()
        for i, pairs in EXPECTED_SUCC.items():
            for name, j in pairs:
                expected.add((Q[i], name, Q[j]))
        assert got == expected

    def test_empty_set_gives_empty_graph(self, treatment_plant):
        graph = build_successor_graph(treatment_plant, ())
        assert graph.vertices == () and graph.edges == ()

    def test_singleton_initial_keeps_only_the_self_loop(self, treatment_plant):
        # Per-event hand check: only d admits the initial state as its own
        # successor; a, b, c land on patterns no scaling can bring back.
        graph = build_successor_graph(treatment_plant, (Q[0],))
        assert [(e.source, e.event, e.target) for e in graph.edges] == [
            (Q[0], "d", Q[0])
        ]


def exhaustive_verdict(aut, P, cap=300000):
    """Definitional check: some selection of compatible subsets reaches every
    member from the initial state.  None when the product is too large."""
    states = tuple(P)
    if not states:
        return True
    if aut.initial not in states:
        return False
    options = []
    for q in states:
        succ = successor_set(aut, states, q)
        subsets = list(compatible_subsets(aut, states, q, succ))
        if not subsets:
            return False
        options.append(subsets)
    total = 1
    for group in options:
        total *= len(group)
        if total > cap:
            return None
    state_set = set(states)
    for combo in product(*options):
        adjacency = {}
        for subset in combo:
            for e in subset:
                adjacency.setdefault(e.source, set()).add(e.target)
        reached = {aut.initial}
        frontier = [aut.initial]
        while frontier:
            q = frontier.pop()
            for t in adjacency.get(q, ()):
                if t not in reached:
                    reached.add(t)
                    frontier.append(t)
        if reached == state_set:
            return True
    return False


class TestControllability:
    def test_admissible_set_is_controllable(self, treatment_plant, admissible_set):
        verdict = check_controllable(treatment_plant, admissible_set)
        assert verdict.controllable
        validate_subgraph(treatment_plant, admissible_set, verdict.subgraph)

    def test_empty_set_trivially_controllable(self, treatment_plant):
        verdict = check_controllable(treatment_plant, ())
        assert verdict.controllable and verdict.subgraph.choice == {}

    def test_initial_absence_is_immediate_obstruction(self, treatment_plant):
        verdict = check_controllable(treatment_plant, (Q[3], Q[9]))
        assert not verdict.controllable
        assert verdict.obstruction.kind == "missing-initial"

    def test_split_sets_controllable_but_not_their_union(self, single_event_plant):
        p1 = (S("0.9 0.1 0"), S("0.1 0.9 0.1"), S("0.1 0.1 0.9"))
        p2 = (S("0.9 0.1 0"), S("0.1 0.8 0.1"), S("0.1 0.1 0.8"))
        assert check_controllable(single_event_plant, p1).controllable
        assert check_controllable(single_event_plant, p2).controllable
        union = p1 + tuple(q for q in p2 if q not in p1)
        union_verdict = check_controllable(single_event_plant, union)
        assert not union_verdict.controllable
        assert union_verdict.obstruction.kind == "unreachable"

    def test_intersection_not_controllable_either(self, single_event_plant):
        verdict = check_controllable(single_event_plant, (S("0.9 0.1 0"),))
        assert not verdict.controllable
        assert verdict.obstruction.kind == "uncoverable-event"
        assert verdict.obstruction.event == "a"

    def test_split_sets_agree_with_exhaustive_enumeration(self, single_event_plant):
        p1 = (S("0.9 0.1 0"), S("0.1 0.9 0.1"), S("0.1 0.1 0.9"))
        p2 = (S("0.9 0.1 0"), S("0.1 0.8 0.1"), S("0.1 0.1 0.8"))
        union = p1 + tuple(q for q in p2 if q not in p1)
        intersection = (S("0.9 0.1 0"),)
        for P in (p1, p2, union, intersection):
            expected = exhaustive_verdict(single_event_plant, P)
            assert expected is not None
            assert check_controllable(single_event_plant, P).controllable == expected

    def test_search_depth_does_not_grow_the_call_stack(self):
        # Draw 24 has 35 vertices and 105 search slots; the search must not
        # take a stack frame per slot.
        rng = random.Random(1)
        for _ in range(25):
            aut = random_automaton(rng, 6, 4)
        P = accessible_part(aut).vertices
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            verdict = check_controllable(aut, P)
        finally:
            sys.setrecursionlimit(limit)
        assert verdict.controllable
        validate_subgraph(aut, P, verdict.subgraph)

    def test_duplicate_and_zero_states_rejected(self, treatment_plant):
        with pytest.raises(ValidationError):
            check_controllable(treatment_plant, (Q[0], Q[0]))
        with pytest.raises(ValidationError):
            check_controllable(treatment_plant, (Q[0], S("0 0 0")))


class TestSynthesis:
    def test_round_trip_on_admissible_set(self, treatment_plant, admissible_set):
        verdict = check_controllable(treatment_plant, admissible_set)
        f = synthesize_controller(treatment_plant, admissible_set, verdict.subgraph)
        assert set(closed_loop_reachable(treatment_plant, f)) == set(admissible_set)

    def test_reference_selection_validates_and_round_trips(self, treatment_plant, admissible_set):
        subgraph = reference_subgraph()
        validate_subgraph(treatment_plant, admissible_set, subgraph)
        f = synthesize_controller(treatment_plant, admissible_set, subgraph)
        assert set(closed_loop_reachable(treatment_plant, f)) == set(admissible_set)

    def test_reference_selection_synthesis_values(self, treatment_plant, admissible_set):
        f = synthesize_controller(
            treatment_plant, admissible_set, reference_subgraph()
        )
        assert f.value(Q[6], "a") == Fraction(1, 2)
        assert f.value(Q[6], "b") == Fraction(1, 10)
        assert f.value(Q[9], "b") == Fraction(1, 10)
        assert f.value(Q[3], "a") == Fraction(0)
        assert f.value(Q[7], "a") == Fraction(0)
        assert f.value(Q[0], "b") == Fraction(1, 10)
        # Off the admissible set everything stays fully enabled.
        assert f.value(S("0.5 0.1 0.5"), "a") == Fraction(1)

    def test_reference_controller_fixture_round_trips(
        self, treatment_plant, admissible_set, reference_controller
    ):
        reachable = closed_loop_reachable(treatment_plant, reference_controller)
        assert set(reachable) == set(admissible_set)

    def test_chosen_graph_matches_reference_edges(self, treatment_plant, admissible_set):
        graph = build_successor_graph(treatment_plant, admissible_set)
        sub = reference_subgraph()
        edges = {(e.source, e.event, e.target) for e in chosen_graph(graph, sub).edges}
        expected = {
            (Q[i], name, Q[j])
            for i, table in CHOSEN_SELECTION.items()
            for name, j in table.items()
        }
        assert edges == expected

    def test_empty_set_has_no_controller(self, treatment_plant):
        with pytest.raises(DomainError):
            synthesize_controller(treatment_plant, (), ControllableSubgraph({}))

    def test_freezing_controller_for_singleton_initial(self, drift_plant):
        # Every floor is zero, so the empty choice is compatible and the
        # synthesized controller pins the plant at its initial state.
        P = (drift_plant.initial,)
        verdict = check_controllable(drift_plant, P)
        assert verdict.controllable
        f = synthesize_controller(drift_plant, P, verdict.subgraph)
        assert closed_loop_reachable(drift_plant, f) == [drift_plant.initial]
        for name in drift_plant.event_names:
            assert f.value(drift_plant.initial, name) == Fraction(0)

    def test_invalid_subgraph_rejected(self, treatment_plant, admissible_set):
        # c cannot be scaled below 1, so retargeting it onto the sink state
        # is inadmissible.
        bad = ControllableSubgraph({(Q[0], "c"): Q[9]})
        with pytest.raises(ValidationError):
            synthesize_controller(treatment_plant, admissible_set, bad)


class TestRandomRoundTrips:
    def test_reachable_sets_are_controllable_and_resynthesizable(self):
        rng = random.Random(31)
        for _ in range(25):
            aut = random_automaton(rng, max_n=3, max_events=3, grid=COARSE)
            f = random_controller(rng, aut, grid=COARSE)
            P = tuple(closed_loop_reachable(aut, f))
            verdict = check_controllable(aut, P)
            assert verdict.controllable, f"reachable set must be controllable"
            f2 = synthesize_controller(aut, P, verdict.subgraph)
            assert set(closed_loop_reachable(aut, f2)) == set(P)

    def test_verdicts_agree_with_exhaustive_enumeration(self):
        rng = random.Random(33)
        compared = 0
        while compared < 12:
            aut = random_automaton(rng, max_n=3, max_events=2, grid=COARSE)
            pool = sorted(set(aut.value_grid()))
            universe = []
            seen = set()
            from fuzzydes import accessible_part, scale_product

            for q in accessible_part(aut).vertices:
                for alpha in pool:
                    scaled = scale_product(alpha, q)
                    if any(scaled) and scaled not in seen:
                        seen.add(scaled)
                        universe.append(scaled)
            if not universe:
                continue
            size = rng.randint(1, min(6, len(universe)))
            P = [aut.initial] if aut.initial not in universe else []
            P += rng.sample(universe, size)
            P = tuple(dict.fromkeys(P))[:6]
            expected = exhaustive_verdict(aut, P)
            if expected is None:
                continue
            compared += 1
            assert check_controllable(aut, P).controllable == expected
