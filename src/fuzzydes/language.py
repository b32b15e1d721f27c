"""Fuzzy languages and the bridge between event-feedback supervisors and
state feedback controllers.

A fuzzy language assigns each event string a possibility, is 1 at the empty
string, and never grows along extensions; the empty language is the constant
zero.  Controllability of a language K with respect to the plant language L
and the floors E_uc is the containment K E_uc intersect L <= K, which by the
unique last-letter split reduces to the pointwise inequality

    min(K(s), uc(a), L(sa)) <= K(sa)   for all strings s and events a.

The checks run on int-coded states and degrees.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Optional

from ._record import Record
from .automaton import (
    EventString,
    MaxMinAutomaton,
    StateFeedbackController,
    _feasible,
    _run,
    _step,
    as_event_string,
)
from .errors import DomainError, PreconditionError, ValidationError
from .possibility import (
    CODE_UNIT,
    ONE,
    ZERO,
    Code,
    Fraction,
    State,
    as_possibility,
    decode_state,
    decode_value,
    encode_value,
    scale_product,
)

DegreeMap = dict[EventString, Fraction]


class FuzzyLanguage(Record):
    """Finite-support fuzzy language.  degrees holds the nonzero support only
    (unlisted strings have degree 0); an empty mapping is the empty language,
    otherwise the empty string must carry degree 1 and degrees may never grow
    along extensions."""

    degrees: Mapping[EventString, Fraction]

    def __post_init__(self):
        if not self.degrees:
            return
        if self.degrees.get(()) != ONE:
            raise ValidationError("a nonempty fuzzy language has degree 1 at the empty string")
        for s, d in self.degrees.items():
            if not ZERO < d <= ONE:
                raise ValidationError(f"support degree out of (0, 1]: {d} at {s}")
            if s and d > self.degrees.get(s[:-1], ZERO):
                raise ValidationError(
                    f"degree grows along an extension: {s[:-1]} -> {s}"
                )

    @staticmethod
    def empty() -> "FuzzyLanguage":
        return FuzzyLanguage({})

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[object, object]]) -> "FuzzyLanguage":
        degrees: DegreeMap = {}
        for s, d in pairs:
            value = as_possibility(d)
            if value != ZERO:
                degrees[as_event_string(s)] = value
        return FuzzyLanguage(degrees)

    @property
    def is_empty(self) -> bool:
        return not self.degrees

    @cached_property
    def codes(self) -> dict[EventString, int]:
        """The support's degrees in int-coded form."""
        return {s: encode_value(d) for s, d in self.degrees.items()}

    def degree(self, s) -> Fraction:
        return self.degrees.get(as_event_string(s), ZERO)

    def support(self) -> tuple[EventString, ...]:
        return tuple(sorted(self.degrees, key=lambda s: (len(s), s)))

    def depth(self) -> int:
        return max((len(s) for s in self.degrees), default=0)


class LanguageVerdict(Record):
    ok: bool
    counterexample: Optional[tuple[EventString, str]] = None


def _support_states(aut: MaxMinAutomaton, K: FuzzyLanguage) -> Iterator[tuple[EventString, Code]]:
    """Each support string with its coded open-loop state, in support order.
    The support is prefix-closed and lists shorter strings first, so a
    string's parent comes before it and its state is one step past the
    parent's."""
    states: dict[EventString, Code] = {}
    for s in K.support():
        states[s] = _step(aut, states[s[:-1]], s[-1]) if s else aut.coded_initial
        yield s, states[s]


def language_controllable(aut: MaxMinAutomaton, K: FuzzyLanguage) -> LanguageVerdict:
    """Check min(K(s), uc(a), L(sa)) <= K(sa) for every support string s and
    every event a, after requiring K <= L on the support.  A string t off the
    support has K(t) = 0, so the left side at t vanishes and no extension of
    it needs a probe: the check is exact with no horizon."""
    if K.is_empty:
        return LanguageVerdict(True)
    degrees = K.codes
    states: dict[EventString, Code] = {}
    for s, q in _support_states(aut, K):
        if s and degrees[s] > max(q):
            raise PreconditionError(
                f"language degree at {s} exceeds the plant language", counterexample=s
            )
        states[s] = q
    for s, q in states.items():
        for ev in aut.events:
            t = s + (ev.name,)
            extended = states[t] if t in states else _step(aut, q, ev.name)
            if min(degrees[s], ev.coded_uc, max(extended)) > degrees.get(t, 0):
                return LanguageVerdict(False, (s, ev.name))
    return LanguageVerdict(True)


class FuzzySupervisor(Record):
    """An event-feedback supervisor realized lazily: a rule mapping (observed
    string, event) to an enabling possibility at least the event's floor."""

    rule: Callable[[EventString, str], Fraction]

    def value(self, s, name: str) -> Fraction:
        return self.rule(as_event_string(s), str(name))


def supervisor_from_language(aut: MaxMinAutomaton, K: FuzzyLanguage) -> FuzzySupervisor:
    """Supervisor realizing a controllable language: enable a at s to degree
    K(sa), floored by the event's uncontrollability."""
    verdict = language_controllable(aut, K)
    if not verdict.ok:
        raise PreconditionError(
            "language is not controllable", counterexample=verdict.counterexample
        )
    return _language_supervisor(aut, K)


def _language_supervisor(aut: MaxMinAutomaton, K: FuzzyLanguage) -> FuzzySupervisor:
    """The supervisor of supervisor_from_language, for a language already
    checked to be controllable."""
    if K.is_empty:
        raise DomainError("the empty language has no realizing supervisor")
    floors = aut.uc_map()

    def rule(s: EventString, name: str) -> Fraction:
        return max(K.degree(s + (name,)), floors[name])

    return FuzzySupervisor(rule)


def closed_loop_language_of_supervisor(
    aut: MaxMinAutomaton, supervisor: FuzzySupervisor, max_len: int = 6
) -> FuzzyLanguage:
    """Evaluate the supervised-language recursion
    L(sa) = min(plant degree of sa, supervisor value, L(s)) for every string
    up to max_len; exact on that range, zero branches pruned."""
    degrees: DegreeMap = {(): ONE}
    frontier: list[tuple[EventString, Code, int]] = [((), aut.coded_initial, CODE_UNIT[1])]
    for _ in range(max_len):
        nxt: list[tuple[EventString, Code, int]] = []
        for s, q, d in frontier:
            for ev, q2 in _feasible(aut, q):
                d2 = min(max(q2), encode_value(supervisor.value(s, ev.name)), d)
                if not d2:
                    continue
                s2 = s + (ev.name,)
                degrees[s2] = decode_value(d2)
                nxt.append((s2, q2, d2))
        frontier = nxt
    return FuzzyLanguage(degrees)


def supervisor_from_controller(
    aut: MaxMinAutomaton, f: StateFeedbackController
) -> FuzzySupervisor:
    """Translate state feedback into event feedback: follow the controlled
    run of the observed string and ask the controller at the state it ends
    in; fully enable once the controlled run has vanished.

    The controlled language L_f is always controllable once f validates
    against the plant's floors (it raises otherwise).  Composition commutes
    with scaling, so the controlled state q_s after s is the open-loop one
    scaled by b(s), the least control value applied along s, and
    L_f(sa) = min(f(q_s, a), b(s), L(sa)) >= min(uc(a), L_f(s), L(sa)) since
    f >= uc and b(s) >= L_f(s): the inequality holds with no horizon."""
    f.validate(aut)
    coded = f.encoded()

    def rule(s: EventString, name: str) -> Fraction:
        states = _run(aut, s, coded)
        if len(states) <= len(s):
            return ONE
        return decode_value(coded.value(states[-1], name))

    return FuzzySupervisor(rule)


class ConsistencyVerdict(Record):
    ok: bool
    counterexample: Optional[tuple[EventString, EventString, str]] = None


def _scaled_state_groups(
    aut: MaxMinAutomaton, K: FuzzyLanguage
) -> dict[Code, list[EventString]]:
    """Group support strings by the coded state they pass through: the
    string's degree scaled onto the open-loop run.  Zero results are dropped
    (they no longer name a state)."""
    groups: dict[Code, list[EventString]] = {}
    for s, q in _support_states(aut, K):
        scaled = scale_product(K.codes[s], q)
        if any(scaled):
            groups.setdefault(scaled, []).append(s)
    return groups


def consistency_check(aut: MaxMinAutomaton, K: FuzzyLanguage) -> ConsistencyVerdict:
    """Two support strings passing through the same state must give every
    common possible one-event extension the same degree.  Per group and event
    the earliest clash pairs the first string with a nonzero extension and the
    first later one whose nonzero extension differs; the least of these over
    the events is what a pairwise scan in (first, second, event) order meets."""
    degrees = K.codes
    for group in _scaled_state_groups(aut, K).values():
        clashes = []
        for e, name in enumerate(aut.event_names):
            nonzero = [(i, d) for i, s in enumerate(group) if (d := degrees.get(s + (name,)))]
            clash = next((i for i, d in nonzero if d != nonzero[0][1]), None)
            if clash is not None:
                clashes.append((nonzero[0][0], clash, e))
        if clashes:
            first, second, e = min(clashes)
            return ConsistencyVerdict(False, (group[first], group[second], aut.event_names[e]))
    return ConsistencyVerdict(True)


def reach_of_language(aut: MaxMinAutomaton, K: FuzzyLanguage) -> list[State]:
    """States passed through by the language: each support string's degree
    scaled onto its open-loop run, deduplicated in first-seen order."""
    return list(map(decode_state, _scaled_state_groups(aut, K)))


def controller_from_language(
    aut: MaxMinAutomaton, K: FuzzyLanguage
) -> StateFeedbackController:
    """Build the state feedback controller realizing a consistent
    controllable language: at each passed state, enable an event to the best
    degree the language grants any string passing there, floored by the
    event's uncontrollability.  The closed loop then reaches exactly the
    language's passed states."""
    verdict = language_controllable(aut, K)
    if not verdict.ok:
        raise PreconditionError(
            "language is not controllable", counterexample=verdict.counterexample
        )
    consistency = consistency_check(aut, K)
    if not consistency.ok:
        raise PreconditionError(
            "language is not consistent", counterexample=consistency.counterexample
        )
    return _language_controller(aut, K)


def _language_controller(aut: MaxMinAutomaton, K: FuzzyLanguage) -> StateFeedbackController:
    """The controller of controller_from_language, for a language already
    checked to be controllable and consistent."""
    degrees = K.codes
    entries: dict[tuple[State, str], Fraction] = {}
    for q, strings in _scaled_state_groups(aut, K).items():
        state = decode_state(q)
        for ev in aut.events:
            best = max((degrees.get(s + (ev.name,), 0) for s in strings), default=0)
            entries[(state, ev.name)] = decode_value(max(best, ev.coded_uc))
    return StateFeedbackController(entries, ONE)
