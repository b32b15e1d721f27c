import random
from fractions import Fraction
from itertools import product

import pytest

from fuzzydes import (
    ONE,
    ZERO,
    DomainError,
    StateFeedbackController,
    ValidationError,
    accessible_part,
    closed_loop_graph,
    closed_loop_trajectory,
    family_contains,
    make_state,
    reach_family,
    scale_product,
)
from generators import COARSE, adjacency, random_automaton
from reference import make_controller, scaling_floor

S = lambda text: make_state(text.split())

F = Fraction
TENTH = F(1, 10)
HALF = F(1, 2)


def successor(graph, q, name):
    """The target of q's edge labeled name in a transition graph, or None."""
    for label, dst in adjacency(graph)[0][q]:
        if label == name:
            return dst
    return None


def brute_force_floor(graph, uc, q):
    """The floor by its definition: the least degree over edges whose target
    is an ancestor of q (q included), 1 when there is none."""
    _, into = adjacency(graph)
    ancestors = {q}
    stack = [q]
    while stack:
        for src, _ in into[stack.pop()]:
            if src not in ancestors:
                ancestors.add(src)
                stack.append(src)
    return min((uc[name] for _, name, dst in graph.edges if dst in ancestors), default=ONE)


def printed_union_member(state):
    """Closed-form membership in the worked example's reachability family
    (written out sub-family by sub-family)."""
    x, y, z = state
    if state == (F(9, 10), TENTH, F(0)):
        return True
    if x == y == z and ZERO <= x <= HALF:
        return True
    if y == TENTH and z == TENTH and TENTH < x <= F(9, 10):
        return True
    if x == TENTH and z == TENTH and TENTH < y <= F(9, 10):
        return True
    if x == TENTH and y == TENTH and TENTH < z <= F(9, 10):
        return True
    if x == y and z == TENTH and TENTH < x <= HALF:
        return True
    if x == TENTH and y == z and TENTH < y <= HALF:
        return True
    if y == TENTH and x == z and TENTH < x <= HALF:
        return True
    return False


INSIDE_PROBES = [
    "0.9 0.1 0",
    "0.05 0.05 0.05",
    "0.1 0.1 0.1",
    "0.25 0.25 0.25",
    "0.3 0.3 0.3",
    "0.5 0.5 0.5",
    "0.2 0.1 0.1",
    "0.5 0.1 0.1",
    "0.7 0.1 0.1",
    "0.9 0.1 0.1",
    "0.1 0.2 0.1",
    "0.1 0.5 0.1",
    "0.1 0.9 0.1",
    "0.1 0.1 0.2",
    "0.1 0.1 0.5",
    "0.1 0.1 0.9",
    "0.2 0.2 0.1",
    "0.45 0.45 0.1",
    "0.5 0.5 0.1",
    "0.1 0.3 0.3",
    "0.1 0.5 0.5",
    "0.3 0.1 0.3",
    "0.5 0.1 0.5",
]

OUTSIDE_PROBES = [
    "0 0.1 0.9",
    "0.6 0.6 0.6",
    "0.95 0.1 0.1",
    "0.05 0.1 0.1",
    "0.1 0.95 0.1",
    "0.1 0.1 0.95",
    "0.6 0.6 0.1",
    "0.1 0.6 0.6",
    "0.6 0.1 0.6",
    "0.2 0.3 0.1",
    "0.9 0.2 0",
    "0.9 0.1 0.2",
]


class TestScalingFloor:
    def test_initial_state_floor_is_one(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        assert scaling_floor(graph, treatment_plant.uc_map(), S("0.9 0.1 0")) == ONE

    def test_one_hop_state_floor(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        assert scaling_floor(graph, treatment_plant.uc_map(), S("0.9 0.1 0.1")) == TENTH

    def test_remaining_floors_are_zero(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        uc = treatment_plant.uc_map()
        others = set(graph.vertices) - {S("0.9 0.1 0"), S("0.9 0.1 0.1")}
        assert len(others) == 7
        for q in others:
            assert scaling_floor(graph, uc, q) == ZERO

    def test_non_vertex_is_domain_error(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        with pytest.raises(DomainError) as exc:
            scaling_floor(graph, treatment_plant.uc_map(), S("0.2 0.2 0.2"))
        assert str(exc.value) == "state [0.2,0.2,0.2] is not an accessible vertex"

    def test_matches_bounded_string_enumeration(self, drift_plant):
        # Tiny plant: every string up to twice the vertex count (long enough
        # to route through any qualifying edge) collected directly.
        from fuzzydes import run
        from generators import all_strings

        graph = accessible_part(drift_plant)
        uc = drift_plant.uc_map()
        bound = 2 * len(graph.vertices)
        occurring = {q: set() for q in graph.vertices}
        for s in all_strings(drift_plant.event_names, bound):
            q = run(drift_plant, s)
            if any(q):
                occurring[q] |= set(s)
        for q in graph.vertices:
            expected = min((uc[e] for e in occurring[q]), default=ONE)
            assert scaling_floor(graph, uc, q) == expected

    def test_matches_walk_subset_saturation(self, treatment_plant):
        # Larger plant: saturate (vertex, events-used) pairs over walks; the
        # pair space is finite, so this covers walks of every length.
        from collections import deque

        graph = accessible_part(treatment_plant)
        uc = treatment_plant.uc_map()
        seen = {(graph.root, frozenset())}
        queue = deque(seen)
        while queue:
            q, used = queue.popleft()
            for name in treatment_plant.event_names:
                p = successor(graph, q, name)
                if p is None:
                    continue
                pair = (p, used | {name})
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
        occurring = {q: set() for q in graph.vertices}
        for q, used in seen:
            occurring[q] |= used
        for q in graph.vertices:
            expected = min((uc[e] for e in occurring[q]), default=ONE)
            assert scaling_floor(graph, uc, q) == expected

    def test_family_matches_brute_force_on_seeded_plants(self):
        rng = random.Random(1)
        checked = 0
        for _ in range(25):
            aut = random_automaton(rng, 6, 4)
            fam = reach_family(aut)
            if len(fam.graph.vertices) > 120:
                continue
            uc = aut.uc_map()
            for q, floor in fam.entries:
                assert floor == brute_force_floor(fam.graph, uc, q)
                assert scaling_floor(fam.graph, uc, q) == floor
            checked += 1
        assert checked == 23

    def test_single_floor_walks_back_from_the_vertex(self, treatment_plant, monkeypatch):
        # The oracle costs one backward closure and never reads _floors, the
        # pass it checks.
        from fuzzydes import reachability

        graph = accessible_part(treatment_plant)

        def every_floor(*args):
            raise AssertionError("scaling_floor computed every floor")

        monkeypatch.setattr(reachability, "_floors", every_floor)
        uc = treatment_plant.uc_map()
        assert scaling_floor(graph, uc, S("0.9 0.1 0")) == ONE
        assert scaling_floor(graph, uc, S("0.9 0.1 0.1")) == TENTH


class TestFamily:
    def test_entries_cover_accessible_vertices(self, treatment_plant):
        fam = reach_family(treatment_plant)
        assert [base for base, _ in fam.entries] == list(
            accessible_part(treatment_plant).vertices
        )

    def test_all_floors_one_when_uncontrollable(self, treatment_plant):
        clamped = treatment_plant.__class__(
            treatment_plant.n,
            treatment_plant.state_labels,
            treatment_plant.initial,
            tuple(
                type(ev)(ev.name, ev.matrix, ONE) for ev in treatment_plant.events
            ),
        )
        fam = reach_family(clamped)
        assert all(floor == ONE for _, floor in fam.entries)


class TestMembership:
    def test_printed_union_probes(self, treatment_plant):
        fam = reach_family(treatment_plant)
        for text in INSIDE_PROBES:
            probe = S(text)
            assert printed_union_member(probe), f"probe {text} misclassified by oracle"
            witness = family_contains(fam, probe)
            assert witness is not None, f"{text} should be reachable"
            replay = closed_loop_trajectory(treatment_plant, witness.controller, witness.path_string)
            assert not replay.halted
            assert replay.states[-1] == probe
        for text in OUTSIDE_PROBES:
            probe = S(text)
            assert not printed_union_member(probe)
            assert family_contains(fam, probe) is None, f"{text} should be unreachable"

    def test_base_state_itself_gets_trivial_witness(self, treatment_plant):
        fam = reach_family(treatment_plant)
        witness = family_contains(fam, S("0.5 0.5 0.1"))
        assert witness.alpha == ONE
        assert witness.controller.entries == {}
        assert not witness.controller.entries

    def test_illustrated_single_override_controller_reaches_target(self, treatment_plant):
        # The single-override controller enabling b to 0.1 at the initial
        # state also lands on [0.1, 0.1, 0.1]; pinned as a fixture.
        f = make_controller({(("0.9", "0.1", "0"), "b"): "0.1"})
        assert S("0.1 0.1 0.1") in set(closed_loop_graph(treatment_plant, f).vertices)

    def test_witness_controller_is_single_override_or_empty(self, treatment_plant):
        fam = reach_family(treatment_plant)
        for text in INSIDE_PROBES:
            witness = family_contains(fam, S(text))
            assert len(witness.controller.entries) <= 1

    def test_zero_target_rejected(self, treatment_plant):
        fam = reach_family(treatment_plant)
        with pytest.raises(ValidationError, match="the all-zero vector is excluded"):
            family_contains(fam, S("0 0 0"))

    def test_membership_is_upward_monotone_in_alpha(self, treatment_plant):
        # Once alpha clears the floor, every larger alpha stays a member.
        fam = reach_family(treatment_plant)
        grid = sorted(set(treatment_plant.value_grid()))
        for base, floor in fam.entries:
            for alpha in grid:
                if alpha < floor:
                    continue
                for higher in grid:
                    if higher < alpha:
                        continue
                    target = scale_product(higher, base)
                    if any(target):
                        assert family_contains(fam, target) is not None

    def test_every_accepted_grid_scaling_has_a_replaying_witness(self):
        # Each accepted target below its base goes through the single
        # override, whose through-edge exists whenever alpha clears a floor
        # below 1.
        rng = random.Random(5)
        accepted = overridden = 0
        for _ in range(40):
            aut = random_automaton(rng, 4, 3)
            fam = reach_family(aut)
            grid = sorted(set(aut.value_grid()))
            for base, _ in fam.entries:
                for alpha in grid:
                    target = scale_product(alpha, base)
                    witness = family_contains(fam, target) if any(target) else None
                    if witness is None:
                        continue
                    replay = closed_loop_trajectory(aut, witness.controller, witness.path_string)
                    assert not replay.halted and replay.states[-1] == target
                    accepted += 1
                    overridden += bool(witness.controller.entries)
        assert (accepted, overridden) == (2295, 1424)

    def test_random_controller_reachables_are_members(self, treatment_plant):
        from generators import random_controller

        fam = reach_family(treatment_plant)
        rng = random.Random(77)
        for _ in range(10):
            f = random_controller(rng, treatment_plant)
            for q in closed_loop_graph(treatment_plant, f).vertices:
                assert family_contains(fam, q) is not None


def exhaustive_controller_reach(aut, value_pool, cap=70000):
    """All states reachable under any controller whose overrides live on the
    accessible vertices with values from the pool; None when too large."""
    vertices = accessible_part(aut).vertices
    slots = [
        (q, ev.name, [v for v in value_pool if v >= ev.uc_degree])
        for q in vertices
        for ev in aut.events
    ]
    total = 1
    for _, _, choices in slots:
        total *= len(choices)
        if total > cap:
            return None
    reached = set()
    for combo in product(*[choices for _, _, choices in slots]):
        entries = {
            (q, name): value
            for (q, name, _), value in zip(slots, combo)
        }
        f = StateFeedbackController(entries, ONE)
        reached.update(closed_loop_graph(aut, f).vertices)
    return reached


class TestSmallInstanceOracle:
    def test_family_matches_exhaustive_controller_enumeration(self):
        rng = random.Random(21)
        checked = 0
        while checked < 8:
            aut = random_automaton(
                rng, max_n=2, max_events=2, grid=COARSE, max_uc=Fraction(1, 2)
            )
            vertices = accessible_part(aut).vertices
            if not 2 <= len(vertices) * len(aut.events) <= 6:
                continue
            pool = sorted(set(aut.value_grid()))
            oracle = exhaustive_controller_reach(aut, pool)
            if oracle is None:
                continue
            checked += 1
            fam = reach_family(aut)
            candidates = {
                scale_product(alpha, q) for q in vertices for alpha in pool
            }
            candidates |= {tuple(v) for v in product(pool, repeat=aut.n)}
            for target in candidates:
                if not any(target):
                    continue
                witness = family_contains(fam, target)
                assert (witness is not None) == (target in oracle), (
                    f"family and controller enumeration disagree on {target}"
                )
                if witness is not None:
                    replay = closed_loop_trajectory(aut, witness.controller, witness.path_string)
                    assert not replay.halted and replay.states[-1] == target
