"""The indexed successor lookup, the id-based controllability search and
the choice check, checked against the definitions they replace.

brute_force_successor_edges and brute_force_largest_invariant scan every
member of the set with solve_scale, the latter in the restart loop that
largest_controllable_invariant ran before its worklist (drop the first
escaping survivor, scan again from the start); reference_check_controllable
is the controllability search keyed by state tuples instead of vertex ids;
reference.reference_synthesize_controller solves each chosen edge with
solve_scale.  The library must give the same edges, alpha ranges, choices,
obstructions and controllers, in the same order, and refuse a malformed
choice with the same exception and message.
"""

import pathlib
import random
import sys
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import example, given, strategies as st

import fuzzydes._moves as moves
import fuzzydes.possibility as possibility
import fuzzydes.statecontrol as statecontrol
from fuzzydes import (
    ControllabilityVerdict,
    ControllableSubgraph,
    FuzzyDESError,
    Obstruction,
    SuccessorEdge,
    accessible_part,
    build_successor_graph,
    check_controllable,
    closed_loop_graph,
    largest_controllable_invariant,
    maxmin_compose,
    run_command,
    scale_product,
    solve_scale,
    state_is_zero,
    synthesize_controller,
)
from fuzzydes.graph import bfs, closure
from fuzzydes.possibility import ScaleSolution, decode_value, encode_state, encode_value
from fuzzydes._moves import ScalingIndex
from generators import GRID11, random_automaton, random_controller
from reference import reference_synthesize_controller

F = Fraction
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def draws():
    """(index, plant, accessible vertices) of the 25 draws of
    random_automaton(Random(1), 6, 4)."""
    rng = random.Random(1)
    plants = [random_automaton(rng, 6, 4) for _ in range(25)]
    return [(i, aut, accessible_part(aut).vertices) for i, aut in enumerate(plants)]


def validated_state_set(aut, P):
    """P as a tuple, once the library has checked its dimension, zero and
    duplicate states."""
    states = tuple(P)
    statecontrol._validated_codes(aut, states)
    return states


def forced_events(aut, q):
    """(event, q . event) for every event that is feasible at q and
    partially uncontrollable (condition C2)."""
    for ev in aut.events:
        composed = maxmin_compose(q, ev)
        if ev.uc_degree and not state_is_zero(composed):
            yield ev, composed


def brute_force_successor_edges(aut, states, q):
    """Successor edges by their definition: solve_scale against every member
    of the set, events in alphabet order, members in set order."""
    edges = []
    for ev in aut.events:
        composed = maxmin_compose(q, ev)
        for p in states:
            admissible = solve_scale(composed, p).restrict(ev.uc_degree)
            if not admissible.is_empty:
                edges.append(SuccessorEdge(q, ev.name, p, admissible))
    return edges


def _escapes(aut, q, state_set):
    for ev, composed in forced_events(aut, q):
        if all(solve_scale(composed, p).restrict(ev.uc_degree).is_empty for p in state_set):
            return ev.name
    return None


def brute_force_invariant_violation(aut, N):
    """The first (member, forced event) with no admissible scaling back into
    N, scanning every member, or None."""
    state_set = set(N)
    for q in N:
        name = _escapes(aut, q, state_set)
        if name is not None:
            return q, name
    return None


def brute_force_largest_invariant(aut, N):
    survivors = list(N)
    while True:
        state_set = set(survivors)
        escaping = next((q for q in survivors if _escapes(aut, q, state_set) is not None), None)
        if escaping is None:
            return tuple(survivors)
        survivors.remove(escaping)


def reference_check_controllable(aut, P):
    """check_controllable with the search keyed by state tuples: a dict of
    chosen targets per (state, event) slot and a fresh candidate table for
    every closure."""
    states = validated_state_set(aut, P)
    if aut.initial not in states:
        return ControllabilityVerdict(False, None, Obstruction("missing-initial"))
    candidates = {}
    for edge in build_successor_graph(aut, states).edges:
        candidates.setdefault((edge.source, edge.event), []).append(edge.target)
    for q in states:
        for ev, _ in forced_events(aut, q):
            if (q, ev.name) not in candidates:
                return ControllabilityVerdict(
                    False, None, Obstruction("uncoverable-event", vertex=q, event=ev.name)
                )
    full_map = {}
    for (q, name), targets in candidates.items():
        full_map.setdefault(q, []).extend((name, t) for t in targets)
    reached = bfs(aut.initial, lambda q: full_map.get(q, ())).dist
    if len(reached) != len(states):
        missing = tuple(q for q in states if q not in reached)
        return ControllabilityVerdict(False, None, Obstruction("unreachable", vertices=missing))
    slots = []
    for q in reached:
        for ev in aut.events:
            targets = candidates.get((q, ev.name))
            if targets:
                slots.append((q, ev.name, targets))
    found = _reference_search(aut.initial, states, slots)
    if found is not None:
        return ControllabilityVerdict(True, ControllableSubgraph(found))
    reached = first_target_closure(aut.initial, [(q, targets) for q, _, targets in slots])
    missing = tuple(q for q in states if q not in reached)
    return ControllabilityVerdict(False, None, Obstruction("unreachable", vertices=missing))


def first_target_closure(root, slots):
    """What the choice of every (source, targets) slot's first target
    reaches from root: an exhausted search's reach set."""
    firsts = {}
    for q, targets in slots:
        firsts.setdefault(q, []).append(targets[0])
    return closure([root], lambda q: firsts.get(q, ()))


def _reference_search(root, states, slots) -> Optional[dict]:
    """The first full choice, in slot and target order, whose edges reach
    every state, or None; a node is pruned when its optimistic completion
    strands a state."""
    state_set = set(states)
    chosen = {}

    def reach_from(extra_from):
        table = {}
        for (q, _), t in chosen.items():
            table.setdefault(q, []).append(t)
        for q, _, targets in slots[extra_from:]:
            table.setdefault(q, []).extend(targets)
        return closure([root], lambda q: table.get(q, ()))

    picks = []
    while True:
        i = len(picks)
        reach = reach_from(i)
        if i == len(slots):
            if reach == state_set:
                return dict(chosen)
        elif state_set <= reach:
            q, name, targets = slots[i]
            chosen[(q, name)] = targets[0]
            picks.append(0)
            continue
        while picks:
            q, name, targets = slots[len(picks) - 1]
            if picks[-1] + 1 < len(targets):
                picks[-1] += 1
                chosen[(q, name)] = targets[picks[-1]]
                break
            picks.pop()
            del chosen[(q, name)]
        else:
            return None


values = st.sampled_from(GRID11)


@st.composite
def lookups(draw):
    """(composed vector, members, floor).  Members mix ties with the vector,
    its scalings by grid values and by its own components (so components
    equal the member's maximum), and unrelated vectors."""
    n = draw(st.integers(1, 4))
    vectors = st.tuples(*[values] * n)
    composed = draw(vectors)
    members = []
    for kind in draw(st.lists(st.sampled_from(("tie", "grid", "component", "other")), max_size=8)):
        if kind == "tie":
            p = composed
        elif kind == "other":
            p = draw(vectors)
        else:
            alpha = draw(values if kind == "grid" else st.sampled_from(composed))
            p = scale_product(alpha, composed)
        if any(p) and p not in members:
            members.append(p)
    return composed, tuple(members), draw(values)


class TestScalingIndex:
    @given(lookups())
    # A tie with the vector: an upward alpha range.
    @example(((F(1, 2), F(3, 10)), ((F(1, 2), F(3, 10)),), F(0)))
    # Components equal to the member's maximum (point 0.4), beside a
    # member of the same maximum that is no scaling.
    @example(((F(7, 10), F(2, 5), F(7, 10)),
              ((F(2, 5), F(1, 5), F(2, 5)), (F(2, 5), F(2, 5), F(2, 5))), F(0)))
    # A floor above the point solution 0.5 empties it.
    @example(((F(4, 5), F(1, 5)), ((F(1, 2), F(1, 5)), (F(4, 5), F(1, 5))), F(3, 5)))
    def test_targets_match_the_scan_of_every_member(self, case):
        # The index takes codes; its alpha ranges are compared decoded.
        composed, members, floor = case
        expected = []
        for i, p in enumerate(members):
            admissible = solve_scale(composed, p).restrict(floor)
            if not admissible.is_empty:
                expected.append((i, admissible))
        index = ScalingIndex([encode_state(p) for p in members])
        got = index.targets(encode_state(composed), encode_value(floor))
        assert [(i, ScaleSolution(decode_value(a.lower), decode_value(a.upper))) for i, a in got] == expected

    def test_successor_graphs_of_the_seeded_draws(self, draws):
        checked = 0
        for _, aut, P in draws:
            if len(P) > 120:
                continue
            per_source = [brute_force_successor_edges(aut, P, q) for q in P]
            assert build_successor_graph(aut, P).edges == tuple(e for es in per_source for e in es)
            checked += 1
        assert checked == 23

    def test_controllable_invariants_of_the_seeded_draws(self, draws):
        shrunk = 0
        for index, aut, V in draws:
            if len(V) > 120:
                continue
            N = scaled_subset(index, V)
            largest = largest_controllable_invariant(aut, N)
            assert largest == brute_force_largest_invariant(aut, N)
            assert (largest == N) == (brute_force_invariant_violation(aut, N) is None)
            shrunk += len(largest) < len(N)
        assert shrunk >= 8


def scaled_subset(index, V):
    """The accessible vertices of a draw and their scalings by 0.6 and 0.3,
    about 70 % of them kept, so the invariant fixpoint has members to drop."""
    rng = random.Random(index)
    pool = dict.fromkeys(
        s for q in V for alpha in (F(1), F(3, 5), F(3, 10)) if any(s := scale_product(alpha, q))
    )
    return tuple(p for p in pool if rng.random() < 0.7)


def _search_cases(draws):
    """(plant, set) on the draws with fewer than 100 accessible vertices: the
    accessible set, the closed-loop sets of three seeded controllers, the
    first half of each (mostly not controllable), and on draws below 9
    vertices the union of every two of those sets (some exhaust the search)."""
    for index, aut, V in draws:
        if len(V) >= 100:
            continue
        rng = random.Random(index)
        sets = [V]
        for _ in range(3):
            P = closed_loop_graph(aut, random_controller(rng, aut)).vertices
            if all(set(P) != set(other) for other in sets):
                sets.append(P)
        for P in sets:
            yield aut, P
            yield aut, P[: len(P) // 2]
        if len(V) < 9:
            for x, first in enumerate(sets):
                for second in sets[x + 1:]:
                    yield aut, tuple(dict.fromkeys(first + second))


class TestSearchOverIds:
    def test_verdicts_choices_and_obstructions_match_the_state_keyed_search(self, draws):
        kinds = {}
        for aut, P in _search_cases(draws):
            got, want = check_controllable(aut, P), reference_check_controllable(aut, P)
            assert got.controllable == want.controllable
            if want.controllable:
                assert list(got.subgraph.choice.items()) == list(want.subgraph.choice.items())
            else:
                assert got.obstruction == want.obstruction
            kind = want.obstruction.kind if want.obstruction else "controllable"
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds["controllable"] >= 50
        assert kinds["uncoverable-event"] >= 40
        assert kinds["unreachable"] >= 3


def _admissible(aut, q, name, p):
    """Does some admissible scaling of q . name land on p?"""
    ev = next(ev for ev in aut.events if ev.name == name)
    return not solve_scale(maxmin_compose(q, ev), p).restrict(ev.uc_degree).is_empty


def _reaches_all(aut, P, choice):
    edges = {}
    for (q, _), t in choice.items():
        edges.setdefault(q, []).append(t)
    return len(closure([aut.initial], lambda q: edges.get(q, ()))) == len(P)


def _malformed_choices(rng, aut, P, choice):
    """{kind: choice} for each way a valid choice over P can be broken here,
    each made from it by one seeded change: an edge retargeted off the set,
    an edge retargeted to a member no admissible scaling reaches, an edge on
    an unknown event, a dropped edge of a forced event, and an edge dropped
    (when not forced) or retargeted to another admissible member so that a
    member is stranded."""
    keys = list(choice)
    rng.shuffle(keys)
    members = list(P)
    rng.shuffle(members)
    forced = {ev.name for ev in aut.events if ev.uc_degree}

    def without(key):
        return {k: t for k, t in choice.items() if k != key}

    stranding = [
        *(without(key) for key in keys if key[1] not in forced),
        *({**choice, key: p} for key in keys for p in members
          if p != choice[key] and _admissible(aut, *key, p)),
    ]
    found = {
        "off-the-set": {**choice, keys[0]: (Fraction(1, 1000),) * aut.n},  # no draw leaves the tenths
        "not-admissible": next(
            ({**choice, key: p} for key in keys for p in members if not _admissible(aut, *key, p)), None
        ),
        "unknown-event": {**choice, (keys[0][0], "zz"): choice[keys[0]]},
        "dropped-forced": next((without(key) for key in keys if key[1] in forced), None),
        "unreachable": next((c for c in stranding if not _reaches_all(aut, P, c)), None),
    }
    return {kind: c for kind, c in found.items() if c is not None}


# The start of the message each kind of malformed choice is refused with.
REFUSALS = {
    "off-the-set": "chosen edge ",
    "not-admissible": "no admissible scaling realizes ",
    "unknown-event": "unknown event 'zz'",
    "dropped-forced": "event ",
    "unreachable": "chosen edges do not reach: ",
}


def _raised(call):
    """(type, message) of the library error call raises, or None."""
    try:
        call()
    except FuzzyDESError as error:
        return type(error), str(error)
    return None


class TestChoiceCheck:
    def test_controllers_and_refusals_match_the_definition(self, draws):
        rng = random.Random(33)
        controllers, kinds = 0, dict.fromkeys(REFUSALS, 0)
        for aut, P in _search_cases(draws):
            subgraph = check_controllable(aut, P).subgraph
            if subgraph is None:
                continue
            got = synthesize_controller(aut, P, subgraph)
            want = reference_synthesize_controller(aut, P, subgraph)
            assert list(got.entries.items()) == list(want.entries.items()) and got.default == want.default
            controllers += 1
            for kind, choice in _malformed_choices(rng, aut, P, subgraph.choice).items():
                malformed = ControllableSubgraph(choice)
                raised = _raised(lambda: synthesize_controller(aut, P, malformed))
                assert raised == _raised(lambda: reference_synthesize_controller(aut, P, malformed))
                assert raised[1].startswith(REFUSALS[kind])
                kinds[kind] += 1
        # Every controllable case has a forced edge and a member off some
        # edge's admissible targets; 24 have no change that strands a member.
        assert controllers == 98
        assert kinds == {**dict.fromkeys(REFUSALS, 98), "unreachable": 74}


def random_slot_lists(rng, count):
    """count seeded (root, size, slots) inputs of _search: 1 to 14
    vertices, 0 to 3 slots per vertex in a shuffled order, 1 to 3 distinct
    targets per slot."""
    for _ in range(count):
        size = rng.randint(1, 14)
        slots = [(v, rng.sample(range(size), rng.randint(1, min(3, size))))
                 for v in range(size) for _ in range(rng.randint(0, 3))]
        rng.shuffle(slots)
        yield rng.randrange(size), size, slots


class TestSearchOnRandomSlotLists:
    def test_choices_match_the_reference(self):
        cases = [
            # Root 0 reaches 1 only through slot 0's second target.
            (0, 3, [(0, [2, 1]), (1, [2])]),
            # No slot targets vertex 2, so the root is pruned without a walk.
            (0, 3, [(0, [1]), (1, [0])]),
            # The optimistic graph reaches every vertex, but one slot
            # cannot be the entering edge of both 1 and 2.
            (0, 3, [(0, [1, 2])]),
            (0, 1, []),
            *random_slot_lists(random.Random(21), 2000),
        ]
        outcomes = {True: 0, False: 0}
        for root, size, slots in cases:
            picks = statecontrol._search(root, size, slots)
            found = _reference_search(
                root, range(size), [(v, k, targets) for k, (v, targets) in enumerate(slots)]
            )
            assert (picks is None) == (found is None)
            if found is not None:
                assert {(v, k): targets[picks[k]] for k, (v, targets) in enumerate(slots)} == found
            else:
                # check_controllable reports what the all-first-target
                # choice strands, which must be some vertex.
                assert len(first_target_closure(root, slots)) < size
            outcomes[found is not None] += 1
        # Both verdicts are well represented: many draws strand a vertex
        # under every choice.
        assert min(outcomes.values()) >= 500

    def test_draw_24_walks_the_optimistic_graph_once(self, draws, monkeypatch):
        # Draw 24: 35 vertices and 105 slots.  The search walks the root's
        # optimistic graph only; each descent keeps the root's spanning
        # tree, so no node below it is walked.  A walk at every node made
        # 106 closures.
        _, aut, P = draws[24]
        walks = []
        real = statecontrol._walk
        monkeypatch.setattr(statecontrol, "_walk", lambda *a: walks.append(a[3][:]) or real(*a))
        slots = []
        real_search = statecontrol._search
        monkeypatch.setattr(statecontrol, "_search",
                            lambda root, size, s: slots.append(s) or real_search(root, size, s))
        assert check_controllable(aut, P).controllable
        assert (len(P), len(slots[0])) == (35, 105)
        assert walks == [[]]


def _recorded(monkeypatch, kernel: str) -> list:
    """The arguments of every call of the possibility kernel made from here
    on, in every fuzzydes module that binds it."""
    seen = []
    real = getattr(possibility, kernel)
    for name, module in list(sys.modules.items()):
        if name.startswith("fuzzydes") and getattr(module, kernel, None) is real:
            monkeypatch.setattr(module, kernel, lambda *a: seen.append(a) or real(*a))
    return seen


class TestComplexity:
    def test_successor_graph_makes_no_solve_scale_call(self, draws, monkeypatch):
        # Draw 23: V=255, |events|=4, 5 distinct maxima; a scan of every
        # member makes V*V*|events| = 260,100 solve_scale calls.  ScalingIndex
        # gives every alpha range in closed form, so the graph needs none.
        _, aut, P = draws[23]
        calls = _recorded(monkeypatch, "solve_scale")
        graph = build_successor_graph(aut, P)
        maxima = len({max(p) for p in P})
        assert (len(P), len(aut.events), maxima) == (255, 4, 5)
        assert graph.edges and calls == []

    def test_check_controllable_composes_each_member_event_once(self, draws, monkeypatch):
        # Draw 24: V=35 and 3 events, all with a nonzero floor, and a forced
        # event at every vertex; the set is controllable, so every member is
        # expanded and checked for C2.
        _, aut, P = draws[24]
        seen = _recorded(monkeypatch, "maxmin_compose")
        assert check_controllable(aut, P).controllable
        assert any(ev.uc_degree for ev in aut.events)
        assert len(seen) == len(set(seen)) == len(P) * len(aut.events)

    def test_synthesize_controller_composes_each_member_event_once(self, draws, monkeypatch):
        # Validating the choice and filling the entries share one expansion
        # of each member: 105 compositions on draw 24, not 315.
        _, aut, P = draws[24]
        subgraph = check_controllable(aut, P).subgraph
        seen = _recorded(monkeypatch, "maxmin_compose")
        synthesize_controller(aut, P, subgraph)
        assert len(seen) == len(set(seen)) == len(P) * len(aut.events) == 105

    def test_synthesize_controller_makes_no_solve_scale_call(self, draws, monkeypatch):
        # Each chosen edge's least alpha is read from the set's expansion,
        # in closed form.
        _, aut, P = draws[24]
        subgraph = check_controllable(aut, P).subgraph
        calls = _recorded(monkeypatch, "solve_scale")
        synthesize_controller(aut, P, subgraph)
        assert (len(subgraph.choice), calls) == (105, [])

    def test_largest_invariant_builds_one_index(self, draws, monkeypatch):
        # Draw 21: 58 of the 82 scaled states drop out of the fixpoint.
        _, aut, V = draws[21]
        N = scaled_subset(21, V)
        built = []

        def counting(states):
            built.append(len(states))
            return ScalingIndex(states)

        monkeypatch.setattr(moves, "ScalingIndex", counting)
        kept = largest_controllable_invariant(aut, N)
        assert (len(N), len(N) - len(kept), built) == (82, 58, [82])

    def test_succ_validates_the_set_once(self, monkeypatch):
        calls = []
        real = statecontrol._validated_codes
        monkeypatch.setattr(
            statecontrol, "_validated_codes", lambda aut, P: calls.append(1) or real(aut, P)
        )
        argv = ["succ", "--automaton", str(GOLDEN / "draw23_plant.json"),
                "--spec", str(GOLDEN / "draw23_states.json")]
        assert run_command(argv) == 0
        assert len(calls) == 1
