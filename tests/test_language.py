import random
from fractions import Fraction

import pytest

from fuzzydes import (
    FuzzyLanguage,
    PreconditionError,
    StateFeedbackController,
    UnknownEvent,
    ValidationError,
    accessible_part,
    check_controllable,
    closed_loop_graph,
    closed_loop_language_of_supervisor,
    closed_loop_trajectory,
    consistency_check,
    controller_from_language,
    language_controllable,
    make_automaton,
    make_event,
    make_state,
    reach_of_language,
    run,
    scale_product,
    step,
    supervisor_from_controller,
    supervisor_from_language,
)
from generators import GRID11, all_strings, random_automaton, random_controller
from reference import make_controller, replaying_supervisor

S = lambda text: make_state(text.split())
F = Fraction


def horizon_controller_language_is_controllable(aut, f, max_len):
    """The pointwise controllability inequality of the controlled language,
    walked over every string up to max_len with its open-loop and its
    controlled state; degrees are exact on that range."""
    f.validate(aut)
    frontier = [(aut.initial, aut.initial, F(1))]
    for _ in range(max_len):
        nxt = []
        for open_q, closed_q, d in frontier:
            for ev in aut.events:
                open_2 = step(aut, open_q, ev.name)
                closed_2 = scale_product(f.value(closed_q, ev.name), step(aut, closed_q, ev.name))
                d2 = max(closed_2)
                if min(d, ev.uc_degree, max(open_2)) > d2:
                    return False
                if d2:
                    nxt.append((open_2, closed_2, d2))
        frontier = nxt
    return True


def redrawn_on_closed_loop(rng, aut, f):
    """f with the value of every event at every vertex of its closed loop
    drawn again at random, at or above the event's floor."""
    entries = dict(f.entries)
    for q in closed_loop_graph(aut, f).vertices:
        for ev in aut.events:
            entries[(q, ev.name)] = rng.choice([v for v in GRID11 if v >= ev.uc_degree])
    return StateFeedbackController(entries, f.default)


def truncated_plant_language(aut, max_len):
    """The plant language up to max_len: 1 at the empty string, else the
    largest component of the string's open-loop run."""
    pairs = []
    for s in all_strings(aut.event_names, max_len):
        pairs.append((s, max(run(aut, s)) if s else F(1)))
    return FuzzyLanguage.from_pairs(pairs)


def controlled_language(aut, f, max_len):
    """The language of the plant under f up to max_len, one controlled run
    per string: 1 at the empty string, 0 once the run halts, else the
    largest component of its last state."""
    pairs = []
    for s in all_strings(aut.event_names, max_len):
        closed = closed_loop_trajectory(aut, f, s)
        pairs.append((s, F(0) if closed.halted else max(closed.states[-1]) if s else F(1)))
    return FuzzyLanguage.from_pairs(pairs)


class TestFuzzyLanguage:
    def test_empty_language_is_distinct_from_epsilon_only(self):
        empty = FuzzyLanguage({})
        epsilon = FuzzyLanguage.from_pairs([((), 1)])
        assert empty.is_empty and not epsilon.is_empty
        assert empty != epsilon

    def test_requires_unit_degree_at_empty_string(self):
        with pytest.raises(ValidationError):
            FuzzyLanguage.from_pairs([(("a",), "0.5")])

    def test_rejects_growing_extension(self):
        with pytest.raises(ValidationError):
            FuzzyLanguage.from_pairs([((), 1), (("a",), "0.2"), (("a", "a"), "0.4")])

    @pytest.mark.parametrize("degree", [F(0), F(-1, 2), F(3, 2)])
    def test_rejects_a_support_degree_outside_the_unit_interval(self, degree):
        # from_pairs drops zero degrees; the raw mapping keeps them, so the
        # constructor itself must refuse them.
        with pytest.raises(ValidationError, match=r"support degree out of \(0, 1\]"):
            FuzzyLanguage({(): F(1), ("a",): degree})

    def test_zero_degrees_are_dropped(self):
        lang = FuzzyLanguage.from_pairs([((), 1), (("a",), 0)])
        assert lang.support() == ((),)

    @pytest.mark.parametrize("degrees, expected", [(["0.5", "0"], F(0)), (["0", "0.5"], F(1, 2))])
    def test_the_last_pair_for_a_string_wins_even_at_degree_zero(self, degrees, expected):
        lang = FuzzyLanguage.from_pairs([("", "1")] + [("a", d) for d in degrees])
        assert lang.degree("a") == expected
        assert (("a",) in lang.support()) == (expected != 0)


def concat_raw(m1, m2):
    """Concatenation on raw degree maps: degree of s is the best min over
    two-way splits of s.  Used directly by the containment form of the
    controllability definition, whose uncontrollability lift is not itself a
    fuzzy language."""
    out = {}
    for s1, d1 in m1.items():
        for s2, d2 in m2.items():
            d = min(d1, d2)
            if d == 0:
                continue
            s = s1 + s2
            if d > out.get(s, 0):
                out[s] = d
    return out


def concatenate(l1, l2):
    """Concatenation of fuzzy languages (raw degree maps also accepted when
    the result still satisfies the language invariants)."""
    m1 = l1.degrees if isinstance(l1, FuzzyLanguage) else dict(l1)
    m2 = l2.degrees if isinstance(l2, FuzzyLanguage) else dict(l2)
    return FuzzyLanguage(concat_raw(m1, m2))


def uncontrollability_lift(aut):
    """The floors as a fuzzy subset of strings: an event's floor on its
    one-letter string, zero everywhere else (zero entries are left implicit)."""
    return {(ev.name,): ev.uc_degree for ev in aut.events if ev.uc_degree > 0}


class TestConcatenate:
    def test_empty_annihilates(self, drift_language):
        assert concatenate(drift_language, FuzzyLanguage({})).is_empty

    def test_epsilon_only_is_identity(self, drift_language):
        unit = FuzzyLanguage.from_pairs([((), 1)])
        assert concatenate(unit, drift_language) == drift_language
        assert concatenate(drift_language, unit) == drift_language

    def test_fully_controllable_lift_annihilates(self, drift_plant, drift_language):
        # Every floor is zero, so the lift is the zero map and concatenation
        # with it yields the empty language.
        lift = uncontrollability_lift(drift_plant)
        assert lift == {}
        assert concat_raw(drift_language.degrees, lift) == {}
        assert concatenate(drift_language, lift).is_empty

    def test_raw_concatenation_takes_best_split(self, treatment_plant):
        lift = uncontrollability_lift(treatment_plant)
        m = concat_raw({(): F(1), ("b",): F(1, 2)}, lift)
        # ("b", "b") comes from the split ("b",) + ("b",): min(0.5, 0.1).
        assert m[("b", "b")] == F(1, 10)
        assert m[("d",)] == F(1)


def containment_controllable(aut, K):
    """Definition written as set containment: the concatenation of K with the
    floor lift, cut to the plant language, must stay below K."""
    product = concat_raw(K.degrees, uncontrollability_lift(aut))
    for s, degree in product.items():
        if min(degree, max(run(aut, s)) if s else F(1)) > K.degree(s):
            return False
    return True


class TestLanguageControllability:
    def test_drift_language_is_controllable(self, drift_plant, drift_language):
        assert language_controllable(drift_plant, drift_language).ok

    def test_truncated_plant_language_controllable_when_floors_vanish(self, drift_plant):
        K = truncated_plant_language(drift_plant, 2)
        assert language_controllable(drift_plant, K).ok

    def test_violation_is_detected_with_counterexample(self, treatment_plant):
        K = FuzzyLanguage.from_pairs([((), 1), (("d",), "0.5")])
        verdict = language_controllable(treatment_plant, K)
        assert not verdict.ok
        s, name = verdict.counterexample
        lhs = min(
            K.degree(s),
            treatment_plant.event(name).uc_degree,
            max(run(treatment_plant, s + (name,))),
        )
        assert lhs > K.degree(s + (name,))

    def test_agrees_with_containment_form(self, drift_plant, treatment_plant, drift_language):
        fixtures = [
            (drift_plant, drift_language),
            (drift_plant, truncated_plant_language(drift_plant, 2)),
            (drift_plant, FuzzyLanguage.from_pairs([((), 1)])),
            (treatment_plant, FuzzyLanguage.from_pairs([((), 1), (("d",), "0.5")])),
            (treatment_plant, FuzzyLanguage.from_pairs([((), 1), (("b",), "0.1")])),
        ]
        for aut, K in fixtures:
            assert language_controllable(aut, K).ok == containment_controllable(aut, K)

    def test_sublanguage_precondition(self, drift_plant):
        K = FuzzyLanguage.from_pairs([((), 1), (("a1",), "0.9")])
        with pytest.raises(PreconditionError):
            language_controllable(drift_plant, K)


class TestSupervisorFromLanguage:
    def test_reproduces_language(self, drift_plant, drift_language):
        supervisor = supervisor_from_language(drift_plant, drift_language)
        closed = closed_loop_language_of_supervisor(drift_plant, supervisor, 3)
        for s in all_strings(drift_plant.event_names, 3):
            assert closed.degree(s) == drift_language.degree(s)

    def test_truncated_plant_language_round_trip(self, drift_plant):
        K = truncated_plant_language(drift_plant, 2)
        supervisor = supervisor_from_language(drift_plant, K)
        closed = closed_loop_language_of_supervisor(drift_plant, supervisor, 3)
        for s in all_strings(drift_plant.event_names, 3):
            assert closed.degree(s) == K.degree(s)

    def test_epsilon_only_language_disables_everything(self, drift_plant):
        K = FuzzyLanguage.from_pairs([((), 1)])
        supervisor = supervisor_from_language(drift_plant, K)
        closed = closed_loop_language_of_supervisor(drift_plant, supervisor, 4)
        assert closed.support() == ((),)

    def test_uncontrollable_language_rejected(self, treatment_plant):
        K = FuzzyLanguage.from_pairs([((), 1), (("d",), "0.5")])
        with pytest.raises(PreconditionError):
            supervisor_from_language(treatment_plant, K)

    def test_empty_language_rejected(self, drift_plant):
        from fuzzydes import DomainError

        with pytest.raises(DomainError):
            supervisor_from_language(drift_plant, FuzzyLanguage({}))

    def test_unit_supervisor_reproduces_plant_language(self, drift_plant):
        from fuzzydes import FuzzySupervisor

        unit = FuzzySupervisor(lambda s, a: F(1))
        closed = closed_loop_language_of_supervisor(drift_plant, unit, 4)
        assert closed == truncated_plant_language(drift_plant, 4)


class TestSupervisorFromController:
    def test_all_enabling_controller_gives_unit_supervisor(self, treatment_plant):
        f = make_controller({})
        supervisor = supervisor_from_controller(treatment_plant, f)
        for s in all_strings(treatment_plant.event_names, 2):
            for name in treatment_plant.event_names:
                assert supervisor.value(s, name) == F(1)

    def test_single_override_shows_at_empty_string(self, treatment_plant):
        f = make_controller({(("0.9", "0.1", "0"), "b"): "0.1"})
        supervisor = supervisor_from_controller(treatment_plant, f)
        assert supervisor.value((), "b") == F(1, 10)
        assert supervisor.value((), "a") == F(1)

    def test_vanished_run_fully_enables(self, treatment_plant):
        # a is disabled at the initial state, so the controlled run of "a"
        # vanishes and the override at the state a would reach never applies.
        after_a = ("0.1", "0.9", "0.1")
        f = make_controller({(("0.9", "0.1", "0"), "a"): "0", (after_a, "b"): "0.1"})
        supervisor = supervisor_from_controller(treatment_plant, f)
        assert supervisor.value((), "a") == F(0)
        assert supervisor.value(("a",), "b") == F(1)
        assert step(treatment_plant, treatment_plant.initial, "a") == S(" ".join(after_a))

    def test_closed_loop_language_equality(self, treatment_plant, reference_controller):
        supervisor = supervisor_from_controller(treatment_plant, reference_controller)
        closed = closed_loop_language_of_supervisor(treatment_plant, supervisor, 4)
        assert closed == controlled_language(treatment_plant, reference_controller, 4)

    def test_controlled_language_is_controllable(self, treatment_plant, reference_controller):
        assert horizon_controller_language_is_controllable(treatment_plant, reference_controller, 5)
        assert horizon_controller_language_is_controllable(treatment_plant, make_controller({}), 5)

    def test_random_pairs_uphold_both_properties(self):
        rng = random.Random(41)
        for _ in range(20):
            aut = random_automaton(rng, max_n=3, max_events=2)
            f = random_controller(rng, aut)
            supervisor = supervisor_from_controller(aut, f)
            closed = closed_loop_language_of_supervisor(aut, supervisor, 4)
            assert closed == controlled_language(aut, f, 4)
            assert horizon_controller_language_is_controllable(aut, f, 5)


    def test_one_step_per_prefix_agrees_with_replaying_the_string(self):
        rng = random.Random(43)
        for _ in range(40):
            aut = random_automaton(rng, max_n=3, max_events=3)
            f = random_controller(rng, aut)
            fast, slow = supervisor_from_controller(aut, f), replaying_supervisor(aut, f)
            strings = list(all_strings(aut.event_names, 4))
            rng.shuffle(strings)  # prefixes are filled out of order too
            for s in strings:
                for name in aut.event_names:
                    assert fast.value(s, name) == slow.value(s, name)
            max_len = rng.randint(1, 5)
            assert closed_loop_language_of_supervisor(
                aut, supervisor_from_controller(aut, f), max_len
            ) == closed_loop_language_of_supervisor(aut, slow, max_len)

    def test_each_new_prefix_costs_one_step(self, treatment_plant, reference_controller, monkeypatch):
        import fuzzydes.language as language

        steps = []

        def counted(aut, q, name):
            steps.append(name)
            return step_coded(aut, q, name)

        step_coded = language._step
        monkeypatch.setattr(language, "_step", counted)
        supervisor = supervisor_from_controller(treatment_plant, reference_controller)
        supervisor.value(("d", "d", "b", "d"), "a")
        assert steps == ["d", "d", "b", "d"]
        supervisor.value(("d", "d", "b", "d", "c"), "a")
        supervisor.value(("d", "d", "b"), "c")
        assert steps == ["d", "d", "b", "d", "c"]


class TestSupervisorAlphabet:
    """A supervisor asked about an event outside the plant's alphabet, as
    the event or inside the observed string, raises UnknownEvent."""

    def test_language_supervisor_unknown_event(self, drift_plant):
        K = FuzzyLanguage.from_pairs([((), 1), (("a1",), "0.2")])
        with pytest.raises(UnknownEvent, match="'zz'"):
            supervisor_from_language(drift_plant, K).value((), "zz")

    def test_language_supervisor_unknown_event_in_the_string(self, drift_plant):
        K = FuzzyLanguage.from_pairs([((), 1), (("a1",), "0.2")])
        with pytest.raises(UnknownEvent, match="'zz'"):
            supervisor_from_language(drift_plant, K).value(("zz",), "a1")

    def test_controller_supervisor_unknown_event(self, drift_plant):
        supervisor = supervisor_from_controller(drift_plant, StateFeedbackController())
        with pytest.raises(UnknownEvent, match="'zz'"):
            supervisor.value((), "zz")

    def test_controller_supervisor_unknown_event_in_the_string(self, drift_plant):
        supervisor = supervisor_from_controller(drift_plant, StateFeedbackController())
        with pytest.raises(UnknownEvent, match="'zz'"):
            supervisor.value(("a1", "zz"), "a1")

    def test_controller_supervisor_unknown_event_past_a_vanished_run(self, drift_plant):
        f = make_controller({(drift_plant.initial, "a1"): "0"})
        supervisor = supervisor_from_controller(drift_plant, f)
        assert supervisor.value(("a1", "a2"), "a3") == F(1)  # vanished: fully enabled
        with pytest.raises(UnknownEvent, match="'zz'"):
            supervisor.value(("a1", "zz"), "a1")


class TestControllerLanguageIdentity:
    """The controlled language is controllable by the scaling identity in
    supervisor_from_controller's docstring; the horizon walk checks it."""

    def test_horizon_walk_holds_on_redrawn_controllers(self):
        rng = random.Random(907)
        for _ in range(300):
            aut = random_automaton(rng, max_n=3, max_events=3)
            f = random_controller(rng, aut)
            f = redrawn_on_closed_loop(rng, aut, redrawn_on_closed_loop(rng, aut, f))
            assert horizon_controller_language_is_controllable(aut, f, 5)

    def test_invalid_controllers_still_raise(self, treatment_plant):
        name = next(ev.name for ev in treatment_plant.events if ev.uc_degree == F(1, 10))
        below = make_controller({(treatment_plant.initial, name): "0"})
        unknown = make_controller({(treatment_plant.initial, "zz"): "1"})
        for f, error in ((below, ValidationError), (unknown, UnknownEvent)):
            with pytest.raises(error):
                f.validate(treatment_plant)
            with pytest.raises(error):
                horizon_controller_language_is_controllable(treatment_plant, f, 5)


class TestConsistency:
    def test_drift_language_is_inconsistent_with_witness(self, drift_plant, drift_language):
        verdict = consistency_check(drift_plant, drift_language)
        assert not verdict.ok
        assert verdict.counterexample == (("a2",), ("a3",), "a1")

    def test_distinct_states_are_vacuously_consistent(self, drift_plant):
        K = FuzzyLanguage.from_pairs([((), 1), (("a1",), "0.2"), (("a2",), "0.3")])
        assert consistency_check(drift_plant, K).ok

    def test_consistent_fixture_has_agreeing_scaled_successors(self, drift_plant):
        K = FuzzyLanguage.from_pairs(
            [((), 1), (("a2",), "0.3"), (("a3",), "0.3"),
             (("a2", "a1"), "0.25"), (("a3", "a1"), "0.25")]
        )
        assert consistency_check(drift_plant, K).ok
        left = scale_product(K.degree(("a2", "a1")), run(drift_plant, ("a2", "a1")))
        right = scale_product(K.degree(("a3", "a1")), run(drift_plant, ("a3", "a1")))
        assert left == right


class TestReachOfLanguage:
    def test_drift_language_passes_three_states(self, drift_plant, drift_language):
        states = reach_of_language(drift_plant, drift_language)
        assert set(states) == {S("0.9 0.1 0"), S("0.3 0.1 0"), S("0.2 0.1 0")}

    def test_epsilon_only(self, drift_plant):
        K = FuzzyLanguage.from_pairs([((), 1)])
        assert reach_of_language(drift_plant, K) == [drift_plant.initial]

    def test_drift_passed_states_are_controllable(self, drift_plant, drift_language):
        states = reach_of_language(drift_plant, drift_language)
        assert check_controllable(drift_plant, states).controllable

    def test_each_call_reads_the_plant_it_is_given(self, drift_plant, treatment_plant):
        # The language keeps its walk for the last plant asked only.
        K = FuzzyLanguage.from_pairs([((), 1), (("a1",), "0.2")])
        want = reach_of_language(drift_plant, FuzzyLanguage(dict(K.degrees)))
        assert reach_of_language(drift_plant, K) == want
        with pytest.raises(UnknownEvent):
            reach_of_language(treatment_plant, K)
        assert reach_of_language(drift_plant, K) == want


class TestControllerFromLanguage:
    def test_two_string_restriction(self, drift_plant):
        K = FuzzyLanguage.from_pairs([((), 1), (("a1",), "0.2")])
        f = controller_from_language(drift_plant, K)
        assert f.value(drift_plant.initial, "a1") == F(1, 5)
        assert f.value(drift_plant.initial, "a2") == F(0)
        assert set(closed_loop_graph(drift_plant, f).vertices) == set(
            reach_of_language(drift_plant, K)
        )

    def test_epsilon_only_freezes_the_plant(self, drift_plant):
        K = FuzzyLanguage.from_pairs([((), 1)])
        f = controller_from_language(drift_plant, K)
        assert closed_loop_graph(drift_plant, f).vertices == (drift_plant.initial,)

    def test_consistent_language_round_trip_with_run_identity(self, drift_plant):
        K = FuzzyLanguage.from_pairs(
            [((), 1), (("a2",), "0.3"), (("a3",), "0.3"),
             (("a2", "a1"), "0.25"), (("a3", "a1"), "0.25")]
        )
        f = controller_from_language(drift_plant, K)
        assert set(closed_loop_graph(drift_plant, f).vertices) == set(
            reach_of_language(drift_plant, K)
        )
        for s in K.support():
            expected = scale_product(K.degree(s), run(drift_plant, s))
            closed = closed_loop_trajectory(drift_plant, f, s)
            assert not closed.halted and closed.states[-1] == expected

    def test_two_state_fixture_verified_exhaustively(self):
        move = make_event("m", [["0.5", "1"], ["0", "0.5"]], 0)
        aut = make_automaton(["x", "y"], ["1", "0.2"], [move])
        K = FuzzyLanguage.from_pairs([((), 1), (("m",), "0.6"), (("m", "m"), "0.4")])
        assert language_controllable(aut, K).ok
        assert consistency_check(aut, K).ok
        f = controller_from_language(aut, K)
        assert set(closed_loop_graph(aut, f).vertices) == set(reach_of_language(aut, K))
        assert controlled_language(aut, f, 3) == K

    def test_inconsistent_language_rejected(self, drift_plant, drift_language):
        with pytest.raises(PreconditionError) as exc:
            controller_from_language(drift_plant, drift_language)
        assert exc.value.counterexample == (("a2",), ("a3",), "a1")

    def test_empty_language_rejected(self, drift_plant):
        # Every closed loop reaches the initial state, which the empty
        # language never passes through, so no controller realizes it.
        from fuzzydes import DomainError

        with pytest.raises(DomainError):
            controller_from_language(drift_plant, FuzzyLanguage({}))


class TestNonNecessityRegression:
    def test_controllable_and_state_controllable_yet_inconsistent(
        self, drift_plant, drift_language
    ):
        assert language_controllable(drift_plant, drift_language).ok
        states = reach_of_language(drift_plant, drift_language)
        assert check_controllable(drift_plant, states).controllable
        assert not consistency_check(drift_plant, drift_language).ok
