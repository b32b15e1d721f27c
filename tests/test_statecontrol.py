import inspect
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from fuzzydes import (
    ControllableSubgraph,
    DimensionMismatch,
    DomainError,
    Obstruction,
    ValidationError,
    accessible_part,
    build_successor_graph,
    candidate_universe,
    check_controllable,
    chosen_graph,
    closed_loop_graph,
    make_automaton,
    make_event,
    make_state,
    search_stabilizing_witness,
    synthesize_controller,
)
from conftest import child_stdout
from generators import COARSE, random_automaton, random_controller
from test_statecontrol_equivalence import GOLDEN, forced_events

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
        graph = build_successor_graph(treatment_plant, admissible_set)
        for i, expected in EXPECTED_SUCC.items():
            edges = [e for e in graph.edges if e.source == Q[i]]
            got = {(e.event, e.target) for e in edges}
            assert got == {(name, Q[j]) for name, j in expected}, f"state {i}"

    def test_cardinality_bound(self, treatment_plant, admissible_set):
        bound = len(treatment_plant.events) * len(admissible_set)
        graph = build_successor_graph(treatment_plant, admissible_set)
        for q in admissible_set:
            assert len([e for e in graph.edges if e.source == q]) <= bound

    def test_state_of_another_dimension_is_rejected(self, treatment_plant, admissible_set):
        with pytest.raises(DimensionMismatch, match=r"state \[0.5,0.1\] has 2 components"):
            build_successor_graph(treatment_plant, tuple(admissible_set) + (S("0.5 0.1"),))

    def test_singleton_initial(self, single_event_plant):
        # From [0.9,0.1,0] the only composition is [0.1,0.9,0.1]; no scaling
        # with alpha >= 0.8 lands back, so no successors within the singleton.
        P = (single_event_plant.initial,)
        assert build_successor_graph(single_event_plant, P).edges == ()


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
        graph = build_successor_graph(treatment_plant, admissible_set)
        succ = [e for e in graph.edges if e.source == Q[9]]
        subsets = [frozenset((e.event, e.target) for e in c)
                   for c in compatible_subsets(treatment_plant, admissible_set, Q[9], succ)]
        wanted = frozenset({("b", Q[9]), ("c", Q[9]), ("d", Q[9])})
        assert wanted in subsets

    def test_count_matches_brute_force_filter(self, treatment_plant, admissible_set):
        graph = build_successor_graph(treatment_plant, admissible_set)
        succ = [e for e in graph.edges if e.source == Q[0]]
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
        succ = build_successor_graph(single_event_plant, P).edges
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

    def test_positions_locate_each_edge_in_the_vertices(self, treatment_plant, admissible_set):
        graph = build_successor_graph(treatment_plant, admissible_set)
        for g in (graph, chosen_graph(graph, reference_subgraph())):
            where = [(g.vertices.index(e.source), g.vertices.index(e.target)) for e in g.edges]
            assert list(g.positions) == where
        assert len(graph.positions) > len(chosen_graph(graph, reference_subgraph()).positions) > 0

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
    edges = build_successor_graph(aut, states).edges
    options = []
    for q in states:
        succ = [e for e in edges if e.source == q]
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


def _decided_in_a_child(setup: str, deadline: float) -> str:
    """Run setup, which binds cases to (plant, set) pairs, then
    check_controllable and synthesize_controller on each pair in a child
    process that subprocess.run kills at the deadline.  Returns the child's
    stdout: one line "<size of the set> <verdict>" per pair."""
    return child_stdout(
        "import pathlib, random\n"
        "from fuzzydes import (accessible_part, check_controllable, parse_automaton,\n"
        "                      parse_spec, synthesize_controller)\n"
        "from generators import random_automaton\n"
        f"{setup}"
        "for aut, P in cases:\n"
        "    verdict = check_controllable(aut, P)\n"
        "    synthesize_controller(aut, P, verdict.subgraph)\n"
        "    print(len(P), verdict.controllable)\n",
        deadline,
    )


class TestControllability:
    def test_admissible_set_is_controllable(self, treatment_plant, admissible_set):
        verdict = check_controllable(treatment_plant, admissible_set)
        assert verdict.controllable
        synthesize_controller(treatment_plant, admissible_set, verdict.subgraph)

    def test_empty_set_misses_the_initial_state(self, treatment_plant):
        # No controller reaches exactly the empty set: the initial state is
        # always reached.
        verdict = check_controllable(treatment_plant, ())
        assert not verdict.controllable
        assert verdict.obstruction == Obstruction("missing-initial")

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

    def test_first_uncoverable_event_in_set_then_alphabet_order(self):
        # Both events swap the components.  At [1,0] only b (floor 0.6)
        # misses [0,0.5], which needs alpha 0.5; at [0,0.5] neither event
        # has a target.  The report is the first member of P with an
        # uncoverable event, and there the first such event.
        swap = [[0, 1], [1, 0]]
        aut = make_automaton(["x", "y"], [1, 0], [make_event("a", swap, "0.4"), make_event("b", swap, "0.6")])
        first, second = S("1 0"), S("0 0.5")
        for P, expected in (((first, second), (first, "b")), ((second, first), (second, "a"))):
            obstruction = check_controllable(aut, P).obstruction
            assert (obstruction.kind, obstruction.vertex, obstruction.event) == ("uncoverable-event", *expected)

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
        synthesize_controller(aut, P, verdict.subgraph)

    def test_the_accessible_set_of_draw_44_is_decided_within_2_s(self):
        # A greedy pass finds a full choice at once; the search without
        # the matching prune gave no verdict within 10 s.
        setup = (
            "rng = random.Random(8)\n"
            "aut = [random_automaton(rng, 4, 3) for _ in range(45)][44]\n"
            "cases = [(aut, accessible_part(aut).vertices)]\n"
        )
        assert _decided_in_a_child(setup, 2) == "27 True\n"

    def test_the_draw_23_golden_set_is_decided_within_10_s(self):
        setup = (
            f"golden = pathlib.Path({str(GOLDEN)!r})\n"
            "aut = parse_automaton((golden / 'draw23_plant.json').read_text())\n"
            "cases = [(aut, parse_spec((golden / 'draw23_states.json').read_text()).states)]\n"
        )
        assert _decided_in_a_child(setup, 10) == "255 True\n"

    def test_the_d1_plant_is_decided_within_10_s(self):
        # D1: draw 23 of random_automaton(Random(315), 10, 5), the largest
        # accessible part among its first 30 draws.
        setup = (
            "rng = random.Random(315)\n"
            "aut = [random_automaton(rng, 10, 5) for _ in range(24)][23]\n"
            "cases = [(aut, accessible_part(aut).vertices)]\n"
        )
        assert _decided_in_a_child(setup, 10) == "809 True\n"

    @pytest.mark.xfail(strict=True, reason="K1 residue, ROADMAP Direction 1")
    def test_draws_1_and_22_of_the_d1_generator_are_decided_within_5_s(self):
        # A greedy pass finds a full choice on both (V=152 and V=321); the
        # search with the matching prune still gives no verdict in time.
        setup = (
            "rng = random.Random(315)\n"
            "auts = [random_automaton(rng, 10, 5) for _ in range(23)]\n"
            "cases = [(aut, accessible_part(aut).vertices) for aut in (auts[1], auts[22])]\n"
        )
        assert _decided_in_a_child(setup, 5) == "152 True\n321 True\n"

    def test_duplicate_and_zero_states_rejected(self, treatment_plant):
        with pytest.raises(ValidationError):
            check_controllable(treatment_plant, (Q[0], Q[0]))
        with pytest.raises(ValidationError):
            check_controllable(treatment_plant, (Q[0], S("0 0 0")))


class TestSynthesis:
    def test_round_trip_on_admissible_set(self, treatment_plant, admissible_set):
        verdict = check_controllable(treatment_plant, admissible_set)
        f = synthesize_controller(treatment_plant, admissible_set, verdict.subgraph)
        assert set(closed_loop_graph(treatment_plant, f).vertices) == set(admissible_set)

    def test_reference_selection_validates_and_round_trips(self, treatment_plant, admissible_set):
        subgraph = reference_subgraph()
        f = synthesize_controller(treatment_plant, admissible_set, subgraph)
        assert set(closed_loop_graph(treatment_plant, f).vertices) == set(admissible_set)

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
        reachable = closed_loop_graph(treatment_plant, reference_controller).vertices
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
        assert closed_loop_graph(drift_plant, f).vertices == (drift_plant.initial,)
        for name in drift_plant.event_names:
            assert f.value(drift_plant.initial, name) == Fraction(0)

    def test_invalid_subgraph_rejected(self, treatment_plant, admissible_set):
        # c cannot be scaled below 1, so retargeting it onto the sink state
        # is inadmissible.
        bad = ControllableSubgraph({(Q[0], "c"): Q[9]})
        with pytest.raises(ValidationError):
            synthesize_controller(treatment_plant, admissible_set, bad)


def _retargeted(edges):
    """The reference selection with each (member number, event) of edges sent
    to the given state, or dropped when that is None."""
    choice = dict(reference_subgraph().choice)
    for (i, name), target in edges.items():
        if target is None:
            del choice[(Q[i], name)]
        else:
            choice[(Q[i], name)] = target
    return choice


class TestValidateSubgraph:
    """synthesize_controller's check of a chosen subgraph."""

    @pytest.mark.parametrize("states,choice,message", [
        (None, _retargeted({(0, "a"): S("0.5 0.1 0.5")}),
         "chosen edge [0.9,0.1,0] --a--> [0.5,0.1,0.5] leaves the candidate set"),
        (None, _retargeted({(0, "b"): None}),
         "event 'b' is feasible and partially uncontrollable at [0.9,0.1,0] but has no chosen edge"),
        ((Q[9],), {(Q[9], name): Q[9] for name in "bcd"},
         "the initial state is not a member of the candidate set"),
        # Only a leads into [0.1,0.9,0.1], and everything after it hangs on it.
        (None, _retargeted({(0, "a"): Q[9], (1, "a"): Q[9]}),
         "chosen edges do not reach: [0.5,0.5,0.1], [0.1,0.9,0.1], [0.1,0.1,0.9], "
         "[0.5,0.5,0.5], [0.1,0.5,0.5]"),
    ], ids=["edge-leaves-set", "forced-event-unchosen", "initial-not-member", "members-unreached"])
    def test_rejection_names_the_fault(self, treatment_plant, admissible_set, states, choice, message):
        with pytest.raises(ValidationError) as raised:
            synthesize_controller(treatment_plant, states or admissible_set, ControllableSubgraph(choice))
        assert str(raised.value) == message


class TestRandomRoundTrips:
    def test_reachable_sets_are_controllable_and_resynthesizable(self):
        rng = random.Random(31)
        for _ in range(25):
            aut = random_automaton(rng, max_n=3, max_events=3, grid=COARSE)
            f = random_controller(rng, aut, grid=COARSE)
            P = closed_loop_graph(aut, f).vertices
            verdict = check_controllable(aut, P)
            assert verdict.controllable, f"reachable set must be controllable"
            f2 = synthesize_controller(aut, P, verdict.subgraph)
            assert set(closed_loop_graph(aut, f2).vertices) == set(P)

    def test_the_closed_loop_is_exactly_the_chosen_edges(self):
        # The stabilization verifier reads the funnel controller's closed
        # loop from the chosen edges.  Subgraphs of three sources: the
        # reachable sets of random controllers and random sets of scalings,
        # with the choice check_controllable makes, and the funnels that the
        # witness search finds, with the choice it makes.
        rng = random.Random(41)
        checked = 0
        for _ in range(200):
            aut = random_automaton(rng, max_n=3, max_events=3, grid=COARSE)
            universe = candidate_universe(aut, ())
            rest = [q for q in universe if q != aut.initial]
            cases = []
            for P in (
                closed_loop_graph(aut, random_controller(rng, aut, grid=COARSE)).vertices,
                (aut.initial,) + tuple(q for q in rest if rng.random() < 0.5),
            ):
                cases.append((P, check_controllable(aut, P).subgraph))
            witness = search_stabilizing_witness(aut, tuple(q for q in universe if rng.random() < 0.3))
            if witness is not None:
                cases.append((witness.p_set, witness.subgraph))
            for P, subgraph in cases:
                if subgraph is None:
                    continue
                graph = closed_loop_graph(aut, synthesize_controller(aut, P, subgraph))
                assert set(graph.vertices) == set(P)
                assert len(graph.edges) == len(subgraph.edges())
                assert set(graph.edges) == set(subgraph.edges())
                checked += 1
        assert checked >= 300

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
