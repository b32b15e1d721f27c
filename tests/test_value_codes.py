"""Int codes stay inside the library.

The analyses run on int codes of the possibility values; every public
result must still carry Fractions.  The seeded plants here are drawn from a
grid of nine-digit values (the other suites draw tenths), and the analyses
are checked against the definition-level oracles of the other suites on
them.
"""

import random
from fractions import Fraction

from fuzzydes import (
    MaxMinAutomaton,
    accessible_part,
    as_possibility,
    build_successor_graph,
    candidate_universe,
    check_controllable,
    closed_loop_graph,
    closed_loop_language_of_supervisor,
    closed_loop_trajectory,
    consistency_check,
    controller_from_language,
    family_contains,
    language_controllable,
    largest_controllable_invariant,
    open_loop_trajectory,
    reach_family,
    reach_of_language,
    run,
    scale_product,
    search_stabilizing_witness,
    step,
    supervisor_from_controller,
    supervisor_from_language,
    synthesize_controller,
    synthesize_stabilizing_controller,
)
from fuzzydes._record import Record
from generators import random_automaton, random_controller
from test_language_oracles import assert_agrees
from test_reachability import brute_force_floor
from test_stability import swept_attractor
from test_statecontrol_equivalence import (
    brute_force_invariant_violation,
    brute_force_largest_invariant,
    brute_force_successor_edges,
    forced_events,
    reference_check_controllable,
)

NINE_DIGIT = tuple(
    as_possibility(text)
    for text in ("0", "0.000000001", "0.000000512", "0.125", "0.1953125", "0.333333333",
                 "0.5", "0.666666667", "0.8", "0.999999999", "1")
)


def fractions_in(value, path="result") -> int:
    """The number of possibility values in a public result; fails on any int
    in their place.  The automaton an object refers to is not walked."""
    if value is None or isinstance(value, (bool, str, MaxMinAutomaton)):
        return 0
    assert not isinstance(value, int), f"{path} is the int {value}"
    if isinstance(value, Fraction):
        return 1
    if isinstance(value, Record):
        # Hidden fields hold what the library runs on (ReachFamily.codes, the
        # coded form family_contains reads; SuccessorGraph.positions).
        return sum(fractions_in(getattr(value, name), f"{path}.{name}")
                   for name in value._compared)
    if isinstance(value, dict):
        return sum(fractions_in(k, f"{path} key") + fractions_in(v, f"{path}[{k!r}]")
                   for k, v in value.items())
    if isinstance(value, (tuple, list, set, frozenset)):
        return sum(fractions_in(v, f"{path}[{i}]") for i, v in enumerate(value))
    raise AssertionError(f"{path} has unexpected type {type(value).__name__}")


def plants(seed, count, **kwargs):
    rng = random.Random(seed)
    return [(rng, random_automaton(rng, grid=NINE_DIGIT, **kwargs)) for _ in range(count)]


class TestPublicValuesAreFractions:
    def test_every_analysis_returns_fractions(self):
        seen = 0
        for rng, aut in plants(12, 25):
            graph = accessible_part(aut)
            V = graph.vertices
            if len(V) > 40:
                continue
            f = random_controller(rng, aut, grid=NINE_DIGIT)
            names = tuple(rng.choice(aut.event_names) for _ in range(4))
            fam = reach_family(aut)
            targets = [q for q in V[:5]] + [scale_product(NINE_DIGIT[5], q) for q in V[:5]]
            verdict = check_controllable(aut, V)
            results = [
                graph, closed_loop_graph(aut, f), fam, aut.value_grid(),
                [family_contains(fam, t) for t in targets if any(t)],
                build_successor_graph(aut, V),
                [list(forced_events(aut, q)) for q in V],
                verdict, candidate_universe(aut, V[:2]),
                largest_controllable_invariant(aut, V), step(aut, V[-1], names[0]), run(aut, names),
                open_loop_trajectory(aut, names), closed_loop_trajectory(aut, f, names),
            ]
            if verdict.controllable:
                results.append(synthesize_controller(aut, V, verdict.subgraph))
            witness = search_stabilizing_witness(aut, V[-2:])
            if witness is not None:
                results += [witness, synthesize_stabilizing_controller(aut, V[-2:], witness)]
            seen += sum(fractions_in(r) for r in results)
        assert seen > 10_000

    def test_language_results_are_fractions(self):
        checked = 0
        for rng, aut in plants(13, 30, max_uc=Fraction(0)):
            f = random_controller(rng, aut, grid=NINE_DIGIT)
            supervisor = supervisor_from_controller(aut, f)
            K = closed_loop_language_of_supervisor(aut, supervisor, 3)
            if not (language_controllable(aut, K).ok and consistency_check(aut, K).ok):
                continue
            results = [K, reach_of_language(aut, K), controller_from_language(aut, K),
                       [supervisor.value(s, name) for s in K.support() for name in aut.event_names],
                       [supervisor_from_language(aut, K).value(s, name)
                        for s in K.support() for name in aut.event_names]]
            assert all(fractions_in(r) for r in results)
            checked += 1
        assert checked >= 10


class TestNineDigitAgreement:
    def test_floors_and_witnesses(self):
        checked = 0
        for _, aut in plants(21, 25, max_n=4):
            fam = reach_family(aut)
            if len(fam.entries) > 120:
                continue
            uc = aut.uc_map()
            for base, floor in fam.entries:
                assert floor == brute_force_floor(fam.graph, uc, base)
                target = scale_product(max(floor, NINE_DIGIT[1]), base)
                witness = family_contains(fam, target)
                assert witness is not None
                replay = closed_loop_trajectory(aut, witness.controller, witness.path_string)
                assert not replay.halted and replay.states[-1] == target
            checked += 1
        assert checked >= 20

    def test_successor_graphs_invariants_and_the_search(self):
        kinds = {}
        for rng, aut in plants(22, 40, max_n=4):
            V = accessible_part(aut).vertices
            if len(V) > 25:
                continue
            sets = [V, closed_loop_graph(aut, random_controller(rng, aut, grid=NINE_DIGIT)).vertices]
            sets += [P[: len(P) // 2] for P in sets]
            for P in sets:
                expected = [e for q in P for e in brute_force_successor_edges(aut, P, q)]
                assert build_successor_graph(aut, P).edges == tuple(expected)
                largest = largest_controllable_invariant(aut, P)
                assert largest == brute_force_largest_invariant(aut, P)
                assert (largest == P) == (brute_force_invariant_violation(aut, P) is None)
                if len(P) > 12:
                    # The state-keyed reference search exhausts for over a
                    # minute on a 15-state closed-loop set here (ROADMAP K1).
                    continue
                got, want = check_controllable(aut, P), reference_check_controllable(aut, P)
                assert (got.controllable, got.obstruction) == (want.controllable, want.obstruction)
                if want.controllable:
                    assert list(got.subgraph.choice.items()) == list(want.subgraph.choice.items())
                kind = want.obstruction.kind if want.obstruction else "controllable"
                kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds.get("controllable", 0) >= 10 and kinds.get("uncoverable-event", 0) >= 5

    def test_stabilization_matches_the_swept_attractor(self):
        decided = {True: 0, False: 0}
        for rng, aut in plants(23, 80):
            V = accessible_part(aut).vertices
            if len(V) > 12:
                continue
            legal = tuple(rng.sample(V, max(1, len(V) // 2)))
            witness = search_stabilizing_witness(aut, legal)
            assert (witness is not None) == (aut.initial in swept_attractor(aut, legal))
            decided[witness is not None] += 1
        assert decided[True] >= 5 and decided[False] >= 5

    def test_language_checks_match_the_replay(self):
        checked = 0
        for rng, aut in plants(24, 30, max_uc=Fraction(0)):
            supervisor = supervisor_from_controller(aut, random_controller(rng, aut, grid=NINE_DIGIT))
            K = closed_loop_language_of_supervisor(aut, supervisor, rng.randint(1, 3))
            assert_agrees(aut, K)
            checked += 1
        assert checked == 30
