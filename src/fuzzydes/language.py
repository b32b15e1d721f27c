"""Fuzzy languages and the bridge between event-feedback supervisors and
state feedback controllers.

A fuzzy language assigns each event string a possibility, is 1 at the empty
string, and never grows along extensions; the empty language is the constant
zero.  Controllability of a language K with respect to the plant language L
and the floors E_uc is the containment K E_uc intersect L <= K, which by the
unique last-letter split reduces to the pointwise inequality

    min(K(s), uc(a), L(sa)) <= K(sa)   for all strings s and events a.

The checks run on int-coded states and degrees, and all read one walk of
the support over the plant, which K keeps for the last plant asked.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional

from ._record import Record
from .automaton import (
    EventString,
    MaxMinAutomaton,
    StateFeedbackController,
    _coded,
    _feasible,
    _step,
    as_event_string,
)
from .errors import DomainError, PreconditionError, UnknownEvent, ValidationError
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
    def from_pairs(pairs: Iterable[tuple[object, object]]) -> "FuzzyLanguage":
        """The language of (string, degree) pairs.  The last pair for a
        string wins; a degree of 0 leaves the string out of the support."""
        degrees: DegreeMap = {}
        for s, d in pairs:
            value, string = as_possibility(d), as_event_string(s)
            if value != ZERO:
                degrees[string] = value
            else:
                degrees.pop(string, None)
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


class ConsistencyVerdict(Record):
    ok: bool
    counterexample: Optional[tuple[EventString, EventString, str]] = None


class _Walk:
    """K walked once over one plant: each support string's coded open-loop
    state, in support order, one step past its parent's (the support is
    prefix-closed, shorter strings first).  The walk stops at the first event
    the plant does not know; a check raises that error once it has checked
    the strings before it.  The groups and verdicts are kept once computed."""

    def __init__(self, aut: MaxMinAutomaton, K: FuzzyLanguage):
        self.aut, self.degrees = aut, K.codes
        self.states: dict[EventString, Code] = {}
        self.unknown: Optional[str] = None
        try:
            for s in K.support():
                self.states[s] = _step(aut, self.states[s[:-1]], s[-1]) if s else aut.coded_initial
        except UnknownEvent as error:
            self.unknown = str(error)

    @cached_property
    def controllable(self) -> LanguageVerdict:
        aut, degrees, states = self.aut, self.degrees, self.states
        for s, q in states.items():
            if s and degrees[s] > max(q):
                raise PreconditionError(f"language degree at {s} exceeds the plant language", counterexample=s)
        if self.unknown is not None:
            raise UnknownEvent(self.unknown)
        for s, q in states.items():
            for ev in aut.events:
                t = s + (ev.name,)
                extended = states[t] if t in states else _step(aut, q, ev.name)
                if min(degrees[s], ev.coded_uc, max(extended)) > degrees.get(t, 0):
                    return LanguageVerdict(False, (s, ev.name))
        return LanguageVerdict(True)

    @cached_property
    def groups(self) -> dict[Code, list[EventString]]:
        """Support strings grouped by the coded state they pass through: the
        string's degree scaled onto its open-loop state.  Zero results are
        dropped (they no longer name a state)."""
        if self.unknown is not None:
            raise UnknownEvent(self.unknown)
        groups: dict[Code, list[EventString]] = {}
        for s, q in self.states.items():
            scaled = scale_product(self.degrees[s], q)
            if any(scaled):
                groups.setdefault(scaled, []).append(s)
        return groups

    @cached_property
    def consistent(self) -> ConsistencyVerdict:
        degrees, names = self.degrees, self.aut.event_names
        for group in self.groups.values():
            clashes = []
            for e, name in enumerate(names):
                nonzero = [(i, d) for i, s in enumerate(group) if (d := degrees.get(s + (name,)))]
                clash = next((i for i, d in nonzero if d != nonzero[0][1]), None)
                if clash is not None:
                    clashes.append((nonzero[0][0], clash, e))
            if clashes:
                first, second, e = min(clashes)
                return ConsistencyVerdict(False, (group[first], group[second], names[e]))
        return ConsistencyVerdict(True)


def _walk(aut: MaxMinAutomaton, K: FuzzyLanguage) -> _Walk:
    """K's walk over aut, kept on K for the last plant asked."""
    walk = K.__dict__.get("_walk")
    if walk is None or walk.aut is not aut:
        walk = K.__dict__["_walk"] = _Walk(aut, K)
    return walk


def language_controllable(aut: MaxMinAutomaton, K: FuzzyLanguage) -> LanguageVerdict:
    """Check min(K(s), uc(a), L(sa)) <= K(sa) for every support string s and
    every event a, after requiring K <= L on the support.  A string t off the
    support has K(t) = 0, so the left side at t vanishes and no extension of
    it needs a probe: the check is exact with no horizon."""
    return _walk(aut, K).controllable


class FuzzySupervisor(Record):
    """An event-feedback supervisor realized lazily: a rule mapping (observed
    string, event) to an enabling possibility at least the event's floor."""

    rule: Callable[[EventString, str], Fraction]

    def value(self, s, name: str) -> Fraction:
        return self.rule(as_event_string(s), str(name))


def _require(verdict, what: str) -> None:
    if not verdict.ok:
        raise PreconditionError(f"language is not {what}", counterexample=verdict.counterexample)


def supervisor_from_language(aut: MaxMinAutomaton, K: FuzzyLanguage) -> FuzzySupervisor:
    """Supervisor realizing a controllable language: enable a at s to degree
    K(sa), floored by the event's uncontrollability.  A query raises
    UnknownEvent when a or an event of s is outside the plant's alphabet."""
    _require(language_controllable(aut, K), "controllable")
    if K.is_empty:
        raise DomainError("the empty language has no realizing supervisor")
    floors = aut.uc_map()

    def rule(s: EventString, name: str) -> Fraction:
        for event in (*s, name):
            aut.event(event)  # UnknownEvent outside the alphabet
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

    The supervisor is a finite realization over closed-loop states: it keeps
    the coded controlled state after each observed prefix, or None once the
    run has vanished, and fills a new prefix by one controlled step from the
    entry for the prefix one event shorter.  So a query replays no string,
    and the table holds one entry per distinct prefix asked about.  A query
    raises UnknownEvent when its event or an event of the observed string is
    outside the plant's alphabet, even past the point where the run
    vanished.

    The controlled language L_f is always controllable once f validates
    against the plant's floors (it raises otherwise).  Composition commutes
    with scaling, so the controlled state q_s after s is the open-loop one
    scaled by b(s), the least control value applied along s, and
    L_f(sa) = min(f(q_s, a), b(s), L(sa)) >= min(uc(a), L_f(s), L(sa)) since
    f >= uc and b(s) >= L_f(s): the inequality holds with no horizon."""
    f.validate(aut)
    coded = _coded(f)
    states: dict[EventString, Optional[Code]] = {(): aut.coded_initial}

    def state(s: EventString) -> Optional[Code]:
        missing = []
        while s not in states:
            missing.append(s)
            s = s[:-1]
        q = states[s]
        for prefix in reversed(missing):
            name = prefix[-1]
            if q is None:
                aut.event(name)  # UnknownEvent outside the alphabet, vanished or not
            else:
                q = scale_product(coded(q, name), _step(aut, q, name))
                q = q if any(q) else None
            states[prefix] = q
        return q

    def rule(s: EventString, name: str) -> Fraction:
        aut.event(name)
        q = state(s)
        return ONE if q is None else decode_value(coded(q, name))

    return FuzzySupervisor(rule)


def consistency_check(aut: MaxMinAutomaton, K: FuzzyLanguage) -> ConsistencyVerdict:
    """Two support strings passing through the same state must give every
    common possible one-event extension the same degree.  Per group and event
    the earliest clash pairs the first string with a nonzero extension and the
    first later one whose nonzero extension differs; the least of these over
    the events is what a pairwise scan in (first, second, event) order meets."""
    return _walk(aut, K).consistent


def reach_of_language(aut: MaxMinAutomaton, K: FuzzyLanguage) -> list[State]:
    """States passed through by the language: each support string's degree
    scaled onto its open-loop run, deduplicated in first-seen order."""
    return list(map(decode_state, _walk(aut, K).groups))


def controller_from_language(
    aut: MaxMinAutomaton, K: FuzzyLanguage
) -> StateFeedbackController:
    """Build the state feedback controller realizing a nonempty consistent
    controllable language: at each passed state, enable an event to the best
    degree the language grants any string passing there, floored by the
    event's uncontrollability.  The closed loop then reaches exactly the
    language's passed states."""
    _require(language_controllable(aut, K), "controllable")
    _require(consistency_check(aut, K), "consistent")
    if K.is_empty:
        raise DomainError("the empty language has no realizing controller")
    degrees = K.codes
    entries: dict[tuple[State, str], Fraction] = {}
    for q, strings in _walk(aut, K).groups.items():
        state = decode_state(q)
        for ev in aut.events:
            best = max((degrees.get(s + (ev.name,), 0) for s in strings), default=0)
            entries[(state, ev.name)] = decode_value(max(best, ev.coded_uc))
    return StateFeedbackController(entries, ONE)
