"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from fuzzydes import (
    StabilizabilityWitness,
    accessible_part,
    build_successor_graph,
    check_attractor,
    check_controllable,
    closed_loop_graph,
    closed_loop_language_of_supervisor,
    closed_loop_trajectory,
    consistency_check,
    family_contains,
    infimal_attractor,
    language_controllable,
    make_state,
    reach_family,
    reach_of_language,
    run,
    scale_product,
    search_stabilizing_witness,
    supervisor_from_controller,
    synthesize_controller,
    synthesize_stabilizing_controller,
    verify_stabilizability_witness,
)
from generators import (
    COARSE,
    GRID11,
    all_strings,
    controlled_fold,
    random_automaton,
    random_controller,
)
from reference import scaling_floor
from test_language import controlled_language, horizon_controller_language_is_controllable
from test_reachability import INSIDE_PROBES, OUTSIDE_PROBES, printed_union_member
from test_statecontrol import EXPECTED_SUCC, Q, exhaustive_verdict
from test_stability import CASCADE_X, CASCADE_Z, oracle_stabilizable

S = lambda text: make_state(text.split())
F = Fraction


@contextmanager
def criterion(number, summary, limit=None):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {summary}", flush=True)
        raise
    elapsed = time.perf_counter() - started
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s (limit {limit}s)"
    print(f"PASS criterion {number}: {summary} ({elapsed:.2f}s)", flush=True)


def test_criterion_01_reachable_set(treatment_plant):
    with criterion(1, "open-loop reachable set is exactly the nine listed states", 1.0):
        expected = {
            S("0.9 0.1 0"), S("0.9 0.1 0.1"), S("0.5 0.5 0.1"),
            S("0.1 0.9 0.1"), S("0.1 0.1 0.9"), S("0.5 0.1 0.5"),
            S("0.5 0.5 0.5"), S("0.1 0.5 0.5"), S("0.1 0.1 0.5"),
        }
        vertices = set(accessible_part(treatment_plant).vertices)
        assert vertices == expected


def test_criterion_02_scaling_floors(treatment_plant):
    with criterion(2, "scaling floors are 1, 0.1, and zero for the rest", 1.0):
        graph = accessible_part(treatment_plant)
        uc = treatment_plant.uc_map()
        floors = {q: scaling_floor(graph, uc, q) for q in graph.vertices}
        assert floors.pop(S("0.9 0.1 0")) == F(1)
        assert floors.pop(S("0.9 0.1 0.1")) == F(1, 10)
        assert len(floors) == 7
        assert all(v == 0 for v in floors.values())


def test_criterion_03_family_membership(treatment_plant):
    with criterion(
        3, "family membership matches the closed-form union on all probes", 5.0
    ):
        fam = reach_family(treatment_plant)
        assert len(INSIDE_PROBES) >= 20 and len(OUTSIDE_PROBES) >= 10
        for text in INSIDE_PROBES:
            probe = S(text)
            assert printed_union_member(probe)
            witness = family_contains(fam, probe)
            assert witness is not None
            replay = closed_loop_trajectory(
                treatment_plant, witness.controller, witness.path_string
            )
            assert not replay.halted and replay.states[-1] == probe
        for text in OUTSIDE_PROBES:
            probe = S(text)
            assert not printed_union_member(probe)
            assert family_contains(fam, probe) is None


def test_criterion_04_successor_sets(treatment_plant, admissible_set):
    with criterion(4, "all eight successor sets reproduced exactly", 1.0):
        graph = build_successor_graph(treatment_plant, admissible_set)
        for i, expected in EXPECTED_SUCC.items():
            edges = [e for e in graph.edges if e.source == Q[i]]
            assert {(e.event, e.target) for e in edges} == {
                (name, Q[j]) for name, j in expected
            }


def test_criterion_05_admissible_set_controllable(
    treatment_plant, admissible_set, reference_controller
):
    with criterion(
        5, "admissible set controllable; synthesized and reference controllers both realize it", 5.0
    ):
        verdict = check_controllable(treatment_plant, admissible_set)
        assert verdict.controllable
        synthesized = synthesize_controller(
            treatment_plant, admissible_set, verdict.subgraph
        )
        assert set(closed_loop_graph(treatment_plant, synthesized).vertices) == set(
            admissible_set
        )
        assert set(closed_loop_graph(treatment_plant, reference_controller).vertices) == set(
            admissible_set
        )


def test_criterion_06_no_closure_under_union(single_event_plant):
    with criterion(
        6, "split sets controllable, union and intersection not, oracle agrees", 5.0
    ):
        p1 = (S("0.9 0.1 0"), S("0.1 0.9 0.1"), S("0.1 0.1 0.9"))
        p2 = (S("0.9 0.1 0"), S("0.1 0.8 0.1"), S("0.1 0.1 0.8"))
        union = p1 + tuple(q for q in p2 if q not in p1)
        intersection = (S("0.9 0.1 0"),)
        expectations = [(p1, True), (p2, True), (union, False), (intersection, False)]
        for P, expected in expectations:
            assert check_controllable(single_event_plant, P).controllable == expected
            oracle = exhaustive_verdict(single_event_plant, P)
            assert oracle is not None and oracle == expected


def test_criterion_07_language_bridge_regression(drift_plant, drift_language):
    with criterion(
        7, "drift language controllable, passes three controllable states, inconsistent", 2.0
    ):
        assert language_controllable(drift_plant, drift_language).ok
        states = reach_of_language(drift_plant, drift_language)
        assert set(states) == {S("0.9 0.1 0"), S("0.3 0.1 0"), S("0.2 0.1 0")}
        assert check_controllable(drift_plant, states).controllable
        verdict = consistency_check(drift_plant, drift_language)
        assert not verdict.ok
        s1, s2, name = verdict.counterexample
        assert drift_language.degree(s1 + (name,)) != drift_language.degree(s2 + (name,))
        assert {s1, s2} == {("a2",), ("a3",)} and name == "a1"


def test_criterion_08_attractor_claim(drift_plant):
    with criterion(8, "absorbing state is an attractor of the recomputed graph", 2.0):
        graph = accessible_part(drift_plant)
        report = check_attractor(graph, {S("0.4 0.1 0")})
        assert report.verdict


def test_criterion_09_scaling_identity_suite():
    with criterion(
        9, "closed-loop run and language identities on 200 random plants"
    ):
        rng = random.Random(901)
        for _ in range(200):
            aut = random_automaton(rng, max_n=4, max_events=3, grid=GRID11)
            f = random_controller(rng, aut, grid=GRID11)
            for s in all_strings(aut.event_names, 4):
                if not s:
                    continue
                folded, alphas = controlled_fold(aut, f, s)
                floor = min(alphas)
                assert folded == scale_product(floor, run(aut, s))
                closed = closed_loop_trajectory(aut, f, s)
                degree = 0 if closed.halted else max(closed.states[-1])
                assert degree == min(floor, max(run(aut, s)))


def test_criterion_10_supervisor_translation_suite():
    with criterion(
        10, "derived supervisors reproduce controlled languages on 100 random pairs"
    ):
        rng = random.Random(1001)
        for _ in range(100):
            aut = random_automaton(rng, max_n=3, max_events=2, grid=GRID11)
            f = random_controller(rng, aut, grid=GRID11)
            supervisor = supervisor_from_controller(aut, f)
            closed = closed_loop_language_of_supervisor(aut, supervisor, 4)
            assert closed == controlled_language(aut, f, 4)
            assert horizon_controller_language_is_controllable(aut, f, 5)


def test_criterion_11_round_trip_suite(treatment_plant, admissible_set, single_event_plant):
    with criterion(
        11, "synthesize-then-reach is exact on fixtures and 100 random instances"
    ):
        fixtures = [
            (treatment_plant, admissible_set),
            (single_event_plant, (S("0.9 0.1 0"), S("0.1 0.9 0.1"), S("0.1 0.1 0.9"))),
            (single_event_plant, (S("0.9 0.1 0"), S("0.1 0.8 0.1"), S("0.1 0.1 0.8"))),
        ]
        for aut, P in fixtures:
            verdict = check_controllable(aut, P)
            assert verdict.controllable
            f = synthesize_controller(aut, P, verdict.subgraph)
            assert set(closed_loop_graph(aut, f).vertices) == set(P)
        rng = random.Random(1101)
        for _ in range(100):
            aut = random_automaton(rng, max_n=3, max_events=3, grid=COARSE)
            g = random_controller(rng, aut, grid=COARSE)
            P = closed_loop_graph(aut, g).vertices
            verdict = check_controllable(aut, P)
            assert verdict.controllable
            f = synthesize_controller(aut, P, verdict.subgraph)
            assert set(closed_loop_graph(aut, f).vertices) == set(P)


def test_criterion_12_stability_oracle_suite():
    with criterion(
        12, "smallest attractor and intersection closure on exhaustive sweeps", 60.0
    ):
        rng = random.Random(1201)
        swept = 0
        for _ in range(60):
            aut = random_automaton(rng, max_n=3, max_events=2, grid=COARSE)
            graph = accessible_part(aut)
            vertices = list(graph.vertices)
            if len(vertices) > 8:
                continue
            swept += 1
            attractors = []
            for size in range(len(vertices) + 1):
                for subset in combinations(vertices, size):
                    if check_attractor(graph, set(subset)).verdict:
                        attractors.append(frozenset(subset))
            infimal = frozenset(infimal_attractor(graph))
            assert infimal in attractors
            for attractor in attractors:
                assert infimal <= attractor
            table = set(attractors)
            for first, second in combinations(attractors, 2):
                assert first & second in table
        assert swept >= 30


def test_criterion_13_stabilization_soundness(drift_plant, cascade_plant):
    with criterion(
        13, "stabilizing controllers yield attractors; search agrees with the grid oracle"
    ):
        m = S("0.4 0.1 0")
        witnesses = [
            (drift_plant, (m,), StabilizabilityWitness((m,), (drift_plant.initial, m))),
            (
                drift_plant,
                (drift_plant.initial,),
                StabilizabilityWitness((drift_plant.initial,), (drift_plant.initial,)),
            ),
            (
                cascade_plant,
                (CASCADE_X, CASCADE_Z),
                StabilizabilityWitness(
                    (CASCADE_X, CASCADE_Z),
                    (cascade_plant.initial, S("0 0.8 0.8"), CASCADE_Z, CASCADE_X),
                ),
            ),
        ]
        for aut, legal, witness in witnesses:
            assert verify_stabilizability_witness(aut, legal, witness)
            controller = synthesize_stabilizing_controller(aut, legal, witness)
            graph = closed_loop_graph(aut, controller)
            assert check_attractor(graph, set(witness.n_prime)).verdict
        oracle_cases = [
            (drift_plant, (m,)),
            (drift_plant, (S("0.2 0.3 0.4"),)),
            (drift_plant, (S("0.2 0.1 0"), m)),
            (drift_plant, (S("0.1 0.1 0"),)),
            (cascade_plant, (CASCADE_X, CASCADE_Z)),
        ]
        for aut, legal in oracle_cases:
            expected = oracle_stabilizable(aut, legal)
            found = search_stabilizing_witness(aut, legal)
            assert (found is not None) == expected
            if found is not None:
                graph = closed_loop_graph(aut, found.controller)
                assert check_attractor(graph, set(found.n_prime)).verdict
