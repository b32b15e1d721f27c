"""The one-pass language checks against the replay definitions they replace.

language_controllable and consistency_check read each support string's
open-loop state off one table, built one step past the parent's state.  The
oracles below replay every string from the initial state, probe every
one-step extension off the support, and compare strings pairwise inside
each state group.  Both sides must give the same verdict, the same
counterexample, and the same error type, message and counterexample.  The
count guards pin the cost: one composition per support string and event, and
a consistency check linear in the size of a state group.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import fuzzydes.automaton as automaton
from fuzzydes import (
    FuzzyDESError,
    FuzzyLanguage,
    PreconditionError,
    UnknownEvent,
    closed_loop_language_of_supervisor,
    consistency_check,
    language_controllable,
    make_automaton,
    make_event,
    parse_automaton,
    parse_spec,
    reach_of_language,
    run,
    scale_product,
    state_is_zero,
    step,
    supervisor_from_controller,
)
from fuzzydes.language import ConsistencyVerdict, LanguageVerdict
from generators import COARSE, GRID11, all_strings, random_automaton, random_controller

GOLDEN = Path(__file__).parent / "golden"


def _require_sublanguage(aut, K):
    for s in K.support():
        if s and K.degree(s) > max(run(aut, s)):
            raise PreconditionError(
                f"language degree at {s} exceeds the plant language", counterexample=s
            )


def replay_language_controllable(aut, K):
    """The replay check: every support string and every one-step extension
    off the support is run from the initial state and probed."""
    if K.is_empty:
        return LanguageVerdict(True)
    _require_sublanguage(aut, K)
    probes = list(K.support())
    probes.extend(
        s + (name,)
        for s in K.support()
        for name in aut.event_names
        if s + (name,) not in K.degrees
    )
    for s in probes:
        open_state = run(aut, s)
        for ev in aut.events:
            extended = max(step(aut, open_state, ev.name))
            lhs = min(K.degree(s), ev.uc_degree, extended)
            if lhs > K.degree(s + (ev.name,)):
                return LanguageVerdict(False, (s, ev.name))
    return LanguageVerdict(True)


def pairwise_consistency_check(aut, K):
    """The pairwise check: every two strings of a state group, every event."""
    for group in state_groups(aut, K):
        for i, s1 in enumerate(group):
            for s2 in group[i + 1 :]:
                for name in aut.event_names:
                    d1 = K.degree(s1 + (name,))
                    d2 = K.degree(s2 + (name,))
                    if d1 != 0 and d2 != 0 and d1 != d2:
                        return ConsistencyVerdict(False, (s1, s2, name))
    return ConsistencyVerdict(True)


def state_groups(aut, K):
    """Support strings grouped by their degree scaled onto a replayed run."""
    groups = {}
    for s in K.support():
        scaled = scale_product(K.degree(s), run(aut, s))
        if not state_is_zero(scaled):
            groups.setdefault(scaled, []).append(s)
    return list(groups.values())


def outcome(check, *args):
    """A verdict, or the error's type, message and counterexample."""
    try:
        return check(*args)
    except FuzzyDESError as exc:
        return type(exc), str(exc), getattr(exc, "counterexample", None)


def assert_agrees(aut, K):
    got = outcome(language_controllable, aut, K)
    assert got == outcome(replay_language_controllable, aut, K)
    consistency = outcome(consistency_check, aut, K)
    assert consistency == outcome(pairwise_consistency_check, aut, K)
    return got, consistency


def controlled_language(rng):
    """The language a seeded controller's supervisor lets through, to a
    seeded depth; all floors zero on half of the draws, so that truncation
    does not always make it uncontrollable."""
    aut = random_automaton(rng, 3, 3, max_uc=rng.choice([Fraction(0), None]))
    supervisor = supervisor_from_controller(aut, random_controller(rng, aut))
    return aut, closed_loop_language_of_supervisor(aut, supervisor, rng.randint(1, 4))


def lowered(rng, K):
    """Lower one string's degree, and cap the strings below it to match."""
    cut = rng.choice(K.support()[1:])
    low = rng.choice([v for v in GRID11 if v < K.degree(cut)])
    return FuzzyLanguage.from_pairs(
        (s, min(d, low) if s[: len(cut)] == cut else d) for s, d in K.degrees.items()
    )


def raised(rng, aut, K):
    """Give one extension of a support string its parent's degree, which the
    plant may not allow."""
    s = rng.choice(K.support())
    degrees = dict(K.degrees)
    degrees[s + (rng.choice(aut.event_names),)] = K.degree(s)
    return FuzzyLanguage(degrees)


def split_group(aut, K):
    """Lower an extension of the second string of a state group below the
    first string's, so that the group disagrees; None when no group has two
    strings with a common extension to lower."""
    for strings in state_groups(aut, K):
        for name in aut.event_names:
            both = [s for s in strings if K.degree(s + (name,)) > Fraction(1, 10)]
            if len(both) > 1:
                cut = both[1] + (name,)
                low = K.degree(cut) - Fraction(1, 10)
                return FuzzyLanguage(
                    {s: min(d, low) if s[: len(cut)] == cut else d for s, d in K.degrees.items()}
                )
    return None


def one_state_plant(names):
    """Every string reaches the single state at degree 1, so the state groups
    are the strings of equal degree."""
    return make_automaton(["s"], [1], [make_event(name, [[1]], 0) for name in names])


class TestAgreesWithReplay:
    def test_seeded_controlled_languages_and_perturbations(self):
        verdicts, consistencies = set(), set()
        for seed in range(80):
            rng = random.Random(seed)
            aut, K = controlled_language(rng)
            variants = [K, raised(rng, aut, K)]
            if len(K.degrees) > 1:
                variants.append(lowered(rng, K))
            broken = split_group(aut, K)
            if broken is not None:
                variants.append(broken)
            for language in variants:
                verdict, consistency = assert_agrees(aut, language)
                verdicts.add(verdict.ok if isinstance(verdict, LanguageVerdict) else verdict[0])
                consistencies.add(consistency.ok)
        # Every kind of outcome turned up.
        assert verdicts == {True, False, PreconditionError}
        assert consistencies == {True, False}

    def test_random_groups_on_a_one_state_plant(self):
        aut = one_state_plant("abc")
        rng = random.Random(5)
        for _ in range(300):
            degrees = {(): Fraction(1)}
            for s in all_strings(aut.event_names, 3):
                if s and s[:-1] in degrees:
                    value = rng.choice([v for v in COARSE if v <= degrees[s[:-1]]])
                    if value:
                        degrees[s] = value
            assert_agrees(aut, FuzzyLanguage(degrees))

    def test_earliest_clash_belongs_to_the_first_string(self):
        # One group: (), (c), (c c), (c c c) at degree 1.  On a the earliest
        # clash is (c) against (c c); on b it is () against (c c c), which a
        # pairwise scan meets first because its first string comes earlier.
        aut = one_state_plant("abc")
        K = FuzzyLanguage.from_pairs(
            [((), 1), (("b",), "0.4"), (("c",), 1), (("c", "a"), "0.5"), (("c", "c"), 1),
             (("c", "c", "a"), "0.3"), (("c", "c", "c"), 1), (("c", "c", "c", "b"), "0.2")]
        )
        expected = ConsistencyVerdict(False, ((), ("c", "c", "c"), "b"))
        assert pairwise_consistency_check(aut, K) == expected
        assert consistency_check(aut, K) == expected


class TestErrorsAgreeWithReplay:
    @pytest.mark.parametrize(
        "pairs, error",
        [
            ([((), 1), (("zz",), "0.5")], UnknownEvent),
            ([((), 1), (("a1", "zz"), "0.1"), (("a1",), "0.2")], UnknownEvent),
            # The sublanguage violation at (a1) comes before (zz) ...
            ([((), 1), (("a1",), "0.9"), (("zz",), "0.1")], PreconditionError),
            # ... and (a0), unknown, comes before (a1).
            ([((), 1), (("a0",), "0.1"), (("a1",), "0.9")], UnknownEvent),
        ],
    )
    def test_same_error_on_the_same_string(self, drift_plant, pairs, error):
        K = FuzzyLanguage.from_pairs(pairs)
        got = outcome(language_controllable, drift_plant, K)
        assert got[0] is error
        assert got == outcome(replay_language_controllable, drift_plant, K)
        got = outcome(consistency_check, drift_plant, K)
        assert got[0] is UnknownEvent
        assert got == outcome(pairwise_consistency_check, drift_plant, K)


class TestCountGuards:
    def test_one_composition_per_support_string_and_event(self, monkeypatch):
        aut = parse_automaton((GOLDEN / "lang15_plant.json").read_text())
        K = parse_spec((GOLDEN / "lang15_consistent.json").read_text()).language
        assert len(K.degrees) >= 300
        calls = []
        compose = automaton.maxmin_compose
        monkeypatch.setattr(automaton, "maxmin_compose", lambda q, ev: calls.append(1) or compose(q, ev))
        assert language_controllable(aut, K).ok
        assert 0 < len(calls) <= len(K.degrees) * (1 + len(aut.events))

    def test_consistency_is_linear_in_one_group(self):
        class CountingDegrees(dict):
            lookups = 0

            def get(self, key, default=None):
                CountingDegrees.lookups += 1
                return super().get(key, default)

            def __getitem__(self, key):
                CountingDegrees.lookups += 1
                return super().__getitem__(key)

            def __contains__(self, key):
                CountingDegrees.lookups += 1
                return super().__contains__(key)

        aut = one_state_plant("ab")
        K = FuzzyLanguage(CountingDegrees({s: Fraction(1) for s in all_strings("ab", 8)}))
        assert len(K.degrees) == 511 and len(reach_of_language(aut, K)) == 1
        CountingDegrees.lookups = 0
        assert consistency_check(aut, K).ok
        # A pairwise scan looks up about 2 |Σ| (511 choose 2) = 521,220 degrees.
        assert CountingDegrees.lookups <= 2 * len(K.degrees) * (1 + len(aut.events))
