import inspect
import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import fuzzydes.stability as stability
import fuzzydes.statecontrol as statecontrol
from fuzzydes import (
    AttractorReport,
    ControllableSubgraph,
    PreconditionError,
    StabilizabilityWitness,
    TransitionGraph,
    ValidationError,
    WitnessRejected,
    accessible_part,
    candidate_universe,
    check_attractor,
    check_controllable,
    closed_loop_graph,
    infimal_attractor,
    largest_controllable_invariant,
    make_automaton,
    make_event,
    make_state,
    maxmin_compose,
    search_stabilizing_witness,
    solve_scale,
    synthesize_controller,
    synthesize_stabilizing_controller,
    verify_stabilizability_witness,
)
from fuzzydes.graph import closure
from generators import COARSE, adjacency, random_automaton, random_controller
from conftest import load_automaton
from test_statecontrol_equivalence import forced_events

S = lambda text: make_state(text.split())
F = Fraction

A, B, C = (F(1),), (F(1, 2),), (F(1, 4),)
CHAIN = TransitionGraph(A, (A, B, C), ((A, "e", B), (B, "e", C)))
LOOP_CHAIN = TransitionGraph(A, (A, B), ((A, "e", A), (A, "f", B)))


def cycle_vertices(vertices, neighbours):
    """Vertices lying on a directed cycle (self-loops included) of the graph
    induced on vertices; neighbours must stay inside vertices.

    Uses Tarjan's strongly connected components (SIAM J. Comput. 1(2),
    1972) with an explicit work stack: a vertex is on a cycle exactly when
    its component has two or more vertices or it has a self-loop.
    """
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    on_cycle: set = set()
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(neighbours(root)))]
        while work:
            v, children = work[-1]
            pushed = False
            for w in children:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(neighbours(w))))
                    pushed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1 or v in neighbours(v):
                    on_cycle.update(component)
    return on_cycle


def find_cycles(g):
    """Vertices lying on some directed cycle (including self-loops)."""
    out, _ = adjacency(g)
    return cycle_vertices(g.vertices, lambda q: (dst for _, dst in out[q]))


def tarjan_infimal_attractor(g):
    """The smallest attractor by cycle search: the forward closure of the
    cycle vertices together with the dead vertices."""
    out, _ = adjacency(g)
    dead = {q for q in g.vertices if not out[q]}
    return closure(find_cycles(g), lambda q: (dst for _, dst in out[q])) | dead


def tarjan_check_attractor(g, N):
    """check_attractor with "acyclic outside" decided by cycle search."""
    out, into = adjacency(g)
    n_set = set(N)
    absent = tuple(q for q in n_set if q not in out)
    closed = all(dst in n_set for q in g.vertices if q in n_set for _, dst in out[q])
    into_n = closure((q for q in g.vertices if q in n_set), lambda q: (src for src, _ in into[q]))
    outside = [q for q in g.vertices if q not in n_set]
    connected = all(q in into_n for q in outside)
    acyclic = not cycle_vertices(outside, lambda q: (dst for _, dst in out[q] if dst not in n_set))
    return AttractorReport(closed, connected, acyclic, closed and connected and acyclic, absent)


def random_graph(rng):
    """A transition graph on 1-9 vertices and up to twice as many edges.  Of
    3,000 draws from Random(1313), 2,356 have a dead vertex, 1,792 a
    self-loop and 1,088 parallel edges."""
    vertices = tuple((i,) for i in range(rng.randint(1, 9)))
    edges = tuple(
        (rng.choice(vertices), rng.choice("abc"), rng.choice(vertices))
        for _ in range(rng.randint(0, 2 * len(vertices)))
    )
    return TransitionGraph(vertices[0], vertices, edges)


def chain(size, tail):
    """size vertices in a line; the last one steps back to its predecessor
    (a 2-cycle) when tail is "cycle" and is dead when it is "dead"."""
    vertices = tuple((i,) for i in range(size))
    edges = [(vertices[i], "e", vertices[i + 1]) for i in range(size - 1)]
    if tail == "cycle":
        edges.append((vertices[-1], "e", vertices[-2]))
    return TransitionGraph(vertices[0], vertices, tuple(edges))


class TestCycles:
    def test_linear_chain_has_none(self):
        assert find_cycles(CHAIN) == set()

    def test_self_loop_detected(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        assert treatment_plant.initial in find_cycles(graph)

    def test_matches_path_enumeration(self, drift_plant):
        graph = accessible_part(drift_plant)
        # A vertex lies on a cycle iff some walk of length <= |V| returns to it.
        out, _ = adjacency(graph)
        expected = set()
        for start in graph.vertices:
            frontier = {start}
            for _ in range(len(graph.vertices)):
                frontier = {
                    dst for q in frontier for _, dst in out[q]
                }
                if start in frontier:
                    expected.add(start)
                    break
        assert find_cycles(graph) == expected


class TestAttractor:
    def test_drift_plant_absorbing_state(self, drift_plant):
        graph = accessible_part(drift_plant)
        report = check_attractor(graph, {S("0.4 0.1 0")})
        assert report.verdict and report.closed and report.connected

    def test_every_vertex_set_is_an_attractor(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        assert check_attractor(graph, set(graph.vertices)).verdict

    def test_empty_set_fails_on_cyclic_graph(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        report = check_attractor(graph, set())
        assert not report.verdict and not report.acyclic_outside

    def test_states_outside_graph_are_reported(self, drift_plant):
        graph = accessible_part(drift_plant)
        report = check_attractor(graph, {S("0.4 0.1 0"), S("0.3 0.3 0.3")})
        assert report.absent == (S("0.3 0.3 0.3"),)


class TestInfimalAttractor:
    def test_linear_chain(self):
        assert infimal_attractor(CHAIN) == {C}

    def test_loop_then_chain(self):
        assert infimal_attractor(LOOP_CHAIN) == {A, B}

    def test_drift_plant(self, drift_plant):
        graph = accessible_part(drift_plant)
        assert infimal_attractor(graph) == {S("0.4 0.1 0")}

    def test_subset_sweep_property(self):
        rng = random.Random(57)
        swept = 0
        while swept < 10:
            aut = random_automaton(rng, max_n=3, max_events=2, grid=COARSE)
            graph = accessible_part(aut)
            if len(graph.vertices) > 8:
                continue
            swept += 1
            vertices = list(graph.vertices)
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


class TestPeelingAgainstCycleSearch:
    """Peeling with graph.attractor against the Tarjan oracle."""

    def test_random_graphs(self):
        rng = random.Random(1313)
        for _ in range(3000):
            g = random_graph(rng)
            N = {q for q in g.vertices if rng.random() < 0.4} | {(99,)}
            assert infimal_attractor(g) == tarjan_infimal_attractor(g)
            report = check_attractor(g, N)
            assert report == tarjan_check_attractor(g, N)
            assert report.absent == ((99,),)

    @pytest.mark.parametrize("tail", ["cycle", "dead"])
    def test_long_chain_does_not_grow_the_call_stack(self, tail):
        g = chain(50_000, tail)
        last = g.vertices[-1]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            infimal = infimal_attractor(g)
            report = check_attractor(g, {last})
        finally:
            sys.setrecursionlimit(limit)
        if tail == "cycle":
            assert infimal == {g.vertices[-2], last}
            assert report == AttractorReport(False, True, True, False)
        else:
            assert infimal == {last}
            assert report == AttractorReport(True, True, True, True)


class TestStability:
    def test_full_vertex_set_is_stable(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        assert infimal_attractor(graph) <= set(graph.vertices)

    def test_empty_legal_set_is_unstable(self, treatment_plant):
        graph = accessible_part(treatment_plant)
        assert not infimal_attractor(graph) <= set()

    def test_drift_plant_with_absorbing_target(self, drift_plant):
        graph = accessible_part(drift_plant)
        assert infimal_attractor(graph) <= {S("0.4 0.1 0")}
        assert not infimal_attractor(graph) <= {drift_plant.initial}


class TestControllableInvariant:
    def test_empty_set_vacuous(self, treatment_plant):
        assert largest_controllable_invariant(treatment_plant, ()) == ()

    def test_everything_vacuous_when_floors_vanish(self, drift_plant):
        N = (S("0.4 0.1 0"),)
        assert largest_controllable_invariant(drift_plant, N) == N

    def test_singleton_left_by_a_forced_event_is_not_invariant(self, treatment_plant):
        # d (floor 1) moves [0.1,0.9,0.1] out of the singleton set, and no
        # controller can hold it back.
        assert largest_controllable_invariant(treatment_plant, (S("0.1 0.9 0.1"),)) == ()

    def test_violation_reported(self, treatment_plant):
        # Of the two states only [0.1,0.9,0.1] is dropped: d (floor 1) takes
        # it out of the set.  [0.9,0.1,0.1] stays, since a (floor 0) may be
        # disabled and b, c and d lead back to it.
        N = (S("0.9 0.1 0.1"), S("0.1 0.9 0.1"))
        assert largest_controllable_invariant(treatment_plant, N) == (S("0.9 0.1 0.1"),)

    def test_largest_fixpoint_keeps_invariant_sets(self, drift_plant):
        graph = accessible_part(drift_plant)
        assert largest_controllable_invariant(drift_plant, graph.vertices) == graph.vertices

    def test_largest_fixpoint_of_empty_is_empty(self, treatment_plant):
        assert largest_controllable_invariant(treatment_plant, ()) == ()

    def test_member_lost_through_several_forced_events_at_once(self):
        # [0.2,0.5] loses every target of e0 and of e2 when [0.2,0.3] leaves;
        # [0.2,0.2] and [0.3,0.4] keep targets for all their forced events.
        aut = make_automaton(["s0", "s1"], ["0.2", "0.5"], [
            make_event("e0", [["0.5", "0.1"], ["0.3", "0.7"]], "1"),
            make_event("e1", [["0.2", "0.2"], ["0.1", "0.3"]], "0.1"),
            make_event("e2", [["0.3", "0.7"], ["0.3", "0.4"]], "0.6"),
            make_event("e3", [["0.9", "1"], ["0", "0.5"]], "0.2"),
        ])
        N = (S("0.2 0.3"), S("0.2 0.5"), S("0.2 0.2"), S("0.3 0.4"))
        assert largest_controllable_invariant(aut, N) == (S("0.2 0.2"), S("0.3 0.4"))

    def test_largest_fixpoint_is_locally_maximal(self):
        rng = random.Random(61)
        tested = 0
        while tested < 10:
            aut = random_automaton(rng, max_n=3, max_events=2, grid=COARSE)
            universe = candidate_universe(aut, ())
            if not universe:
                continue
            size = rng.randint(1, min(6, len(universe)))
            N = tuple(rng.sample(universe, size))
            kept = largest_controllable_invariant(aut, N)
            removed = [q for q in N if q not in kept]
            if not removed:
                continue
            tested += 1
            assert largest_controllable_invariant(aut, kept) == kept
            for q in removed:
                assert largest_controllable_invariant(aut, kept + (q,)) != kept + (q,)


CASCADE_X = S("1 1 1")
CASCADE_P = S("0 0.8 0.8")
CASCADE_Z = S("0 0.5 0.5")


class TestWitnessVerification:
    def test_cascade_witness_passes(self, cascade_plant):
        witness = StabilizabilityWitness(
            (CASCADE_X, CASCADE_Z),
            (cascade_plant.initial, CASCADE_P, CASCADE_Z, CASCADE_X),
        )
        assert verify_stabilizability_witness(
            cascade_plant, (CASCADE_X, CASCADE_Z), witness
        )

    def test_target_outside_legal_set_is_precondition_error(self, cascade_plant):
        witness = StabilizabilityWitness((CASCADE_X,), (cascade_plant.initial, CASCADE_X))
        with pytest.raises(PreconditionError):
            verify_stabilizability_witness(cascade_plant, (CASCADE_Z,), witness)

    def test_cycle_outside_target_fails(self, drift_plant):
        # Funnel {q0, m} with target {q0}: m self-loops outside the target.
        m = S("0.4 0.1 0")
        witness = StabilizabilityWitness(
            (drift_plant.initial,), (drift_plant.initial, m)
        )
        assert not verify_stabilizability_witness(
            drift_plant, (drift_plant.initial, m), witness
        )

    def test_singleton_target_equal_funnel(self, drift_plant):
        # Every floor is zero, so the controller may freeze the plant at the
        # initial state: the singleton witness verifies and synthesizes.
        witness = StabilizabilityWitness(
            (drift_plant.initial,), (drift_plant.initial,)
        )
        assert verify_stabilizability_witness(
            drift_plant, (drift_plant.initial,), witness
        )
        controller = synthesize_stabilizing_controller(
            drift_plant, (drift_plant.initial,), witness
        )
        graph = closed_loop_graph(drift_plant, controller)
        assert graph.vertices == (drift_plant.initial,)
        assert check_attractor(graph, {drift_plant.initial}).verdict

    def test_supplied_subgraph_that_fails_validation_is_rejected(self, cascade_plant):
        # The empty choice leaves the forced event u at the initial state
        # without a chosen edge, so synthesize_controller refuses it.
        legal = (CASCADE_X, CASCADE_Z)
        p_set = (cascade_plant.initial, CASCADE_P, CASCADE_Z, CASCADE_X)
        witness = StabilizabilityWitness(legal, p_set, subgraph=ControllableSubgraph({}))
        assert check_controllable(cascade_plant, p_set).controllable
        assert not verify_stabilizability_witness(cascade_plant, legal, witness)
        with pytest.raises(WitnessRejected):
            synthesize_stabilizing_controller(cascade_plant, legal, witness)

    @pytest.mark.parametrize("bad", [S("0.5 0.5"), S("0 0 0"), S("0.9 0.1 0")])
    @pytest.mark.parametrize("field", ["n_prime", "p_set"])
    @pytest.mark.parametrize("check", [verify_stabilizability_witness,
                                       synthesize_stabilizing_controller])
    def test_a_malformed_target_or_funnel_set_is_a_validation_error(
        self, treatment_plant, check, field, bad
    ):
        # A wrong length, the zero vector or a repeat, as in every state set.
        # The target {[0.9,0.1,0]} is not controllable invariant, so only
        # validation can look at the funnel set.
        legal = (S("0.9 0.1 0"), S("0.1 0.9 0.1"))
        sets = {"n_prime": legal[:1], "p_set": legal}
        sets[field] += (bad,)
        with pytest.raises(ValidationError):
            check(treatment_plant, legal, StabilizabilityWitness(**sets))


class TestStabilizingSynthesis:
    def test_cascade_redirect_uses_least_admissible_scale(self, cascade_plant):
        legal = (CASCADE_X, CASCADE_Z)
        witness = StabilizabilityWitness(
            legal, (cascade_plant.initial, CASCADE_P, CASCADE_Z, CASCADE_X)
        )
        controller = synthesize_stabilizing_controller(cascade_plant, legal, witness)
        assert controller.value(CASCADE_X, "u") == F(1, 2)
        graph = closed_loop_graph(cascade_plant, controller)
        assert check_attractor(graph, set(legal)).verdict

    def test_fully_controllable_variant_disables_instead(self):
        aut = load_automaton("cascade_plant.json")
        free = aut.__class__(
            aut.n,
            aut.state_labels,
            aut.initial,
            tuple(type(ev)(ev.name, ev.matrix, F(0)) for ev in aut.events),
        )
        legal = (CASCADE_X, CASCADE_Z)
        witness = StabilizabilityWitness(
            legal, (free.initial, CASCADE_P, CASCADE_Z, CASCADE_X)
        )
        controller = synthesize_stabilizing_controller(free, legal, witness)
        assert controller.value(CASCADE_X, "u") == F(0)
        graph = closed_loop_graph(free, controller)
        assert check_attractor(graph, set(legal)).verdict

    def test_target_equal_funnel_keeps_base_controller(self, drift_plant):
        m = S("0.4 0.1 0")
        p_set = (drift_plant.initial, m)
        witness = StabilizabilityWitness(p_set, p_set)
        controller = synthesize_stabilizing_controller(drift_plant, p_set, witness)
        verdict = check_controllable(drift_plant, p_set)
        base = synthesize_controller(drift_plant, p_set, verdict.subgraph)
        assert controller == base

    def test_unverified_witness_rejected(self, drift_plant):
        m = S("0.4 0.1 0")
        witness = StabilizabilityWitness(
            (drift_plant.initial,), (drift_plant.initial, m)
        )
        with pytest.raises(PreconditionError):
            synthesize_stabilizing_controller(
                drift_plant, (drift_plant.initial, m), witness
            )


class TestOnePass:
    """Verification and redirection are one pass: the funnel controller is
    encoded once, and a witness that verifies always redirects."""

    def test_funnel_controller_is_encoded_once(self, cascade_plant, monkeypatch):
        legal = (CASCADE_X, CASCADE_Z)
        p_set = (cascade_plant.initial, CASCADE_P, CASCADE_Z, CASCADE_X)
        funnel = synthesize_controller(
            cascade_plant, p_set, check_controllable(cascade_plant, p_set).subgraph
        )
        encoded = []

        def counting(f):
            encoded.append(f)
            return coded(f)

        coded = stability._coded
        monkeypatch.setattr(stability, "_coded", counting)
        synthesize_stabilizing_controller(cascade_plant, legal, StabilizabilityWitness(legal, p_set))
        assert encoded == [funnel]

    def test_every_verified_witness_redirects(self):
        # Random targets inside the largest controllable invariant subset of
        # a random legal set, with random funnels of the open-loop universe.
        verified = forced = 0
        for seed in range(200):
            rng = random.Random(seed)
            aut = random_automaton(rng, 4, 3, grid=COARSE)
            universe = candidate_universe(aut, ())
            legal = tuple(q for q in universe if rng.random() < 0.5)
            invariant = largest_controllable_invariant(aut, legal)
            rest = [q for q in universe if q != aut.initial]
            for _ in range(10 if invariant else 0):
                n_prime = tuple(q for q in invariant if rng.random() < 0.7) or invariant
                p_set = (aut.initial,) + tuple(q for q in rest if rng.random() < 0.8)
                witness = StabilizabilityWitness(n_prime, p_set)
                if not verify_stabilizability_witness(aut, legal, witness):
                    continue
                verified += 1
                controller = synthesize_stabilizing_controller(aut, legal, witness)
                funnel = synthesize_controller(aut, p_set, check_controllable(aut, p_set).subgraph)
                # The forced-redirection branch re-scales a partially
                # uncontrollable event at a target state.
                forced += any(
                    ev.uc_degree and controller.value(q, ev.name) != funnel.value(q, ev.name)
                    for q in n_prime for ev in aut.events
                )
                graph = closed_loop_graph(aut, controller)
                assert check_attractor(graph, set(n_prime) & set(graph.vertices)).verdict
        assert verified > 300 and forced > 5


def oracle_stabilizable(aut, legal):
    """Exhaustive enumeration over the grid universe: any target subset of
    the legal set with any funnel subset of the universe that verifies."""
    universe = candidate_universe(aut, legal)
    rest = [q for q in universe if q != aut.initial]
    for n_size in range(1, len(legal) + 1):
        for n_prime in combinations(legal, n_size):
            for p_size in range(len(rest) + 1):
                for extra in combinations(rest, p_size):
                    witness = StabilizabilityWitness(
                        n_prime, (aut.initial,) + extra
                    )
                    try:
                        if verify_stabilizability_witness(aut, legal, witness):
                            return True
                    except PreconditionError:
                        continue
    return False


class TestWitnessSearch:
    def test_absorbing_target_found_immediately(self, drift_plant):
        m = S("0.4 0.1 0")
        witness = search_stabilizing_witness(drift_plant, (m,))
        assert witness is not None
        assert witness.n_prime == (m,)
        graph = closed_loop_graph(drift_plant, witness.controller)
        assert check_attractor(graph, set(witness.n_prime)).verdict

    def test_empty_legal_set_is_inconclusive(self, drift_plant):
        assert search_stabilizing_witness(drift_plant, ()) is None

    def test_legal_superset_of_reachables_freezes_the_initial_state(self, drift_plant):
        # The initial state is in N* (rank 0) and no event is forced there,
        # so the rank strategy disables every event at it.
        reachable = accessible_part(drift_plant).vertices
        witness = search_stabilizing_witness(drift_plant, reachable)
        assert witness is not None
        assert witness.n_prime == witness.p_set == (drift_plant.initial,)
        assert witness.subgraph.choice == {}
        graph = closed_loop_graph(drift_plant, witness.controller)
        assert graph.vertices == (drift_plant.initial,)
        assert check_attractor(graph, set(witness.n_prime)).verdict

    def test_unreachable_legal_state_is_inconclusive(self, drift_plant):
        assert search_stabilizing_witness(drift_plant, (S("0.2 0.3 0.4"),)) is None

    def test_cascade_search_finds_redirecting_witness(self, cascade_plant):
        legal = (CASCADE_X, CASCADE_Z)
        witness = search_stabilizing_witness(cascade_plant, legal)
        assert witness is not None
        graph = closed_loop_graph(cascade_plant, witness.controller)
        assert check_attractor(graph, set(witness.n_prime)).verdict

    def test_search_agrees_with_exhaustive_oracle(self, drift_plant):
        m = S("0.4 0.1 0")
        cases = [
            (drift_plant, (m,)),
            (drift_plant, (S("0.2 0.3 0.4"),)),
            (drift_plant, (S("0.2 0.1 0"), m)),
        ]
        for aut, legal in cases:
            expected = oracle_stabilizable(aut, legal)
            found = search_stabilizing_witness(aut, legal) is not None
            assert found == expected


def enumerated_stabilizing_witness(aut, N, budget):
    """The bounded enumeration that search_stabilizing_witness ran before the
    attractor fixpoint: target sets are subsets of N*, largest first, funnel
    sets the initial state plus subsets of the grid universe, smallest
    first, after one quick try of N* with the open-loop reachable set.
    Returns (witness or None, whether the enumeration ended within budget).

    A candidate is verified without a subgraph, so check_controllable picks
    the funnel's edges, and its full selection may close a cycle outside
    the target that another selection avoids: an exhausted enumeration is
    not a proof that no witness exists.
    """
    largest = largest_controllable_invariant(aut, N)
    if not largest:
        return None, True
    universe = candidate_universe(aut, N)
    reachable = accessible_part(aut).vertices
    rest = tuple(q for q in universe if q != aut.initial)

    def candidates():
        yield largest, tuple(reachable) + tuple(q for q in largest if q not in set(reachable))
        for n_size in range(len(largest), 0, -1):
            for n_prime in combinations(largest, n_size):
                for p_size in range(len(rest) + 1):
                    for extra in combinations(rest, p_size):
                        yield n_prime, (aut.initial,) + extra

    tried = set()
    for n_prime, p_set in candidates():
        key = (frozenset(n_prime), frozenset(p_set))
        if key in tried:
            continue
        if len(tried) == budget:
            return None, False
        tried.add(key)
        witness = StabilizabilityWitness(tuple(n_prime), tuple(p_set))
        if verify_stabilizability_witness(aut, N, witness):
            return witness, True
    return None, True


def swept_attractor(aut, N):
    """The controllable attractor by its definition: sweep the grid universe,
    padded with the members of N* that it lacks, until no state joins,
    testing each event against every state joined so far with solve_scale.
    A state joins when every forced event there has an admissible target
    among them or, with none forced, some event has."""
    invariant = largest_controllable_invariant(aut, N)
    joined = set(invariant)

    def lands(q, ev):
        composed = maxmin_compose(q, ev)
        return any(
            not solve_scale(composed, p).restrict(ev.uc_degree).is_empty for p in joined
        )

    def joins(q):
        forced = [ev for ev, _ in forced_events(aut, q)]
        if forced:
            return all(lands(q, ev) for ev in forced)
        return any(lands(q, ev) for ev in aut.events)

    universe = candidate_universe(aut, N)
    universe += tuple(q for q in invariant if q not in universe)
    while True:
        layer = {q for q in universe if q not in joined and joins(q)}
        if not layer:
            return joined
        joined |= layer


class TestAttractorFixpoint:
    def test_agrees_with_the_enumeration_and_the_definition(self):
        # Plants with at most 12 accessible states, a random half of them
        # legal.  The enumeration (budget 300) is the old search.
        rng = random.Random(7)
        outcomes = {"yes": 0, "no": 0, "open": 0, "cyclic-choice": 0}
        for _ in range(150):
            aut = random_automaton(rng, 3, 3)
            V = accessible_part(aut).vertices
            if len(V) > 12:
                continue
            legal = tuple(rng.sample(V, max(1, len(V) // 2)))
            witness = search_stabilizing_witness(aut, legal)
            assert (witness is not None) == (aut.initial in swept_attractor(aut, legal))
            if witness is not None:
                assert verify_stabilizability_witness(aut, legal, witness)
                graph = closed_loop_graph(aut, witness.controller)
                assert check_attractor(graph, set(witness.n_prime)).verdict
            found, conclusive = enumerated_stabilizing_witness(aut, legal, 300)
            if found is not None:
                outcomes["yes"] += 1
                assert witness is not None
            elif not conclusive:
                outcomes["open"] += 1
            elif witness is None:
                outcomes["no"] += 1
            else:
                # The enumeration missed this witness only because
                # check_controllable chose a cycle outside the target.
                outcomes["cyclic-choice"] += 1
                plain = StabilizabilityWitness(witness.n_prime, witness.p_set)
                assert not verify_stabilizability_witness(aut, legal, plain)
        assert outcomes["yes"] >= 20 and outcomes["no"] >= 50

    def test_the_candidate_universe_loses_no_witness(self):
        # Legal sets holding vectors off the candidate universe C: a random
        # half of the accessible states plus up to three vectors on the 1/20
        # grid.  The oracle sweeps C padded with the members of N* it lacks.
        rng = random.Random(2024)
        padded_cases = 0
        for _ in range(270):
            aut = random_automaton(rng, 3, 3)
            V = accessible_part(aut).vertices
            if len(V) > 14:
                continue
            extra = [
                tuple(F(rng.randint(0, 20), 20) for _ in range(aut.n))
                for _ in range(rng.randint(0, 3))
            ]
            half = rng.sample(V, max(1, len(V) // 2))
            legal = tuple(dict.fromkeys(half + [q for q in extra if any(q)]))
            universe = candidate_universe(aut, legal)
            in_universe = set(universe)
            stray = [p for p in legal if p not in in_universe]
            padded_cases += any(q in stray for q in largest_controllable_invariant(aut, legal))
            witness = search_stabilizing_witness(aut, legal)
            assert (witness is not None) == (aut.initial in swept_attractor(aut, legal))
            if witness is not None:
                assert verify_stabilizability_witness(aut, legal, witness)
            # No state of C has an admissible target among the legal states
            # off C, which include the members of N* that C lacks.
            for q in universe:
                for ev in aut.events:
                    composed = maxmin_compose(q, ev)
                    for p in stray:
                        assert solve_scale(composed, p).restrict(ev.uc_degree).is_empty
        assert padded_cases >= 20

    def test_draw_44_decides_without_the_controllability_search(self, monkeypatch):
        # ROADMAP K2: with its smallest attractor as the legal set, draw 44's
        # first enumerated candidate was a set that the backtracking search,
        # before its matching prune, could not decide in minutes.  The
        # witness search still needs no controllability decision here.
        rng = random.Random(8)
        aut = [random_automaton(rng, 4, 3) for _ in range(45)][44]
        graph = accessible_part(aut)
        smallest = infimal_attractor(graph)
        legal = tuple(q for q in graph.vertices if q in smallest)
        calls = []

        def counting(*args):
            calls.append(args)
            return check_controllable(*args)

        monkeypatch.setattr(statecontrol, "check_controllable", counting)
        witness = search_stabilizing_witness(aut, legal)
        assert witness is not None
        assert verify_stabilizability_witness(aut, legal, witness)
        graph = closed_loop_graph(aut, witness.controller)
        assert check_attractor(graph, set(witness.n_prime)).verdict
        assert calls == []


class TestNecessityDirection:
    def test_closed_loop_attractors_imply_invariance_and_controllability(self):
        rng = random.Random(71)
        examined = 0
        while examined < 10:
            aut = random_automaton(rng, max_n=3, max_events=2, grid=COARSE)
            f = random_controller(rng, aut, grid=COARSE)
            graph = closed_loop_graph(aut, f)
            if not 2 <= len(graph.vertices) <= 6:
                continue
            examined += 1
            assert check_controllable(aut, graph.vertices).controllable
            vertices = list(graph.vertices)
            for size in range(1, len(vertices) + 1):
                for subset in combinations(vertices, size):
                    if check_attractor(graph, set(subset)).verdict:
                        assert largest_controllable_invariant(aut, subset) == subset
