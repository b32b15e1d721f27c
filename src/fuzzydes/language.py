"""Fuzzy languages and the bridge between event-feedback supervisors and
state feedback controllers.

A fuzzy language assigns each event string a possibility, is 1 at the empty
string, and never grows along extensions; the empty language is the constant
zero.  Controllability of a language K with respect to the plant language L
and the floors E_uc is the containment K E_uc intersect L <= K, which by the
unique last-letter split reduces to the pointwise inequality

    min(K(s), uc(a), L(sa)) <= K(sa)   for all strings s and events a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .automaton import (
    EventString,
    MaxMinAutomaton,
    StateFeedbackController,
    as_event_string,
    closed_loop_step,
    language_degree,
    run,
    step,
)
from .errors import DomainError, PreconditionError, ValidationError
from .possibility import (
    ONE,
    ZERO,
    Fraction,
    State,
    as_possibility,
    scale_product,
    state_is_zero,
)

DegreeMap = dict[EventString, Fraction]


@dataclass(frozen=True)
class FuzzyLanguage:
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

    def degree(self, s) -> Fraction:
        return self.degrees.get(as_event_string(s), ZERO)

    def support(self) -> tuple[EventString, ...]:
        return tuple(sorted(self.degrees, key=lambda s: (len(s), s)))

    def depth(self) -> int:
        return max((len(s) for s in self.degrees), default=0)


@dataclass(frozen=True)
class LanguageVerdict:
    ok: bool
    counterexample: Optional[tuple[EventString, str]] = None


def _require_sublanguage(aut: MaxMinAutomaton, K: FuzzyLanguage) -> None:
    for s in K.support():
        if K.degree(s) > language_degree(aut, s):
            raise PreconditionError(
                f"language degree at {s} exceeds the plant language", counterexample=s
            )


def language_controllable(
    aut: MaxMinAutomaton, K: FuzzyLanguage, max_len: int = 6
) -> LanguageVerdict:
    """Check min(K(s), uc(a), L(sa)) <= K(sa) over the support and, to pin the
    truncation argument down explicitly, over every one-step extension of a
    support string as well (where the left side must vanish)."""
    if K.is_empty:
        return LanguageVerdict(True)
    if max_len < K.depth() + 1:
        raise ValidationError(
            f"max_len {max_len} is below the support depth plus one ({K.depth() + 1})"
        )
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
            extended = max(step(aut, open_state, ev.name))  # plant degree of sa
            lhs = min(K.degree(s), ev.uc_degree, extended)
            if lhs > K.degree(s + (ev.name,)):
                return LanguageVerdict(False, (s, ev.name))
    return LanguageVerdict(True)


@dataclass(frozen=True)
class FuzzySupervisor:
    """An event-feedback supervisor realized lazily: a rule mapping (observed
    string, event) to an enabling possibility at least the event's floor."""

    rule: Callable[[EventString, str], Fraction]

    def value(self, s, name: str) -> Fraction:
        return self.rule(as_event_string(s), str(name))


def supervisor_from_language(aut: MaxMinAutomaton, K: FuzzyLanguage) -> FuzzySupervisor:
    """Supervisor realizing a controllable language: enable a at s to degree
    K(sa), floored by the event's uncontrollability."""
    if K.is_empty:
        raise DomainError("the empty language has no realizing supervisor")
    verdict = language_controllable(aut, K, max(6, K.depth() + 1))
    if not verdict.ok:
        raise PreconditionError(
            "language is not controllable", counterexample=verdict.counterexample
        )
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
    frontier: list[tuple[EventString, State, Fraction]] = [((), aut.initial, ONE)]
    for _ in range(max_len):
        nxt: list[tuple[EventString, State, Fraction]] = []
        for s, q, d in frontier:
            for ev in aut.events:
                q2 = step(aut, q, ev.name)
                d2 = min(max(q2), supervisor.value(s, ev.name), d)
                if d2 == ZERO:
                    continue
                s2 = s + (ev.name,)
                degrees[s2] = d2
                nxt.append((s2, q2, d2))
        frontier = nxt
    return FuzzyLanguage(degrees)


def supervisor_from_controller(
    aut: MaxMinAutomaton, f: StateFeedbackController
) -> FuzzySupervisor:
    """Translate state feedback into event feedback: follow the controlled
    run of the observed string and ask the controller at the state it ends
    in; fully enable once the controlled run has vanished."""
    f.validate(aut)

    def rule(s: EventString, name: str) -> Fraction:
        q: Optional[State] = aut.initial
        for sym in s:
            q = closed_loop_step(aut, f, q, sym)
            if q is None:
                return ONE
        return f.value(q, name)

    return FuzzySupervisor(rule)


def controller_language_is_controllable(
    aut: MaxMinAutomaton, f: StateFeedbackController, max_len: int = 6
) -> bool:
    """Check that the controlled system's language satisfies the pointwise
    controllability inequality on every string up to max_len.

    The controlled language may have unbounded support, so the check runs to
    the horizon only; degrees used are exact there.
    """
    f.validate(aut)
    frontier: list[tuple[State, Optional[State], Fraction]] = [
        (aut.initial, aut.initial, ONE)
    ]
    for _ in range(max_len):
        nxt = []
        for open_q, closed_q, d in frontier:
            for ev in aut.events:
                open_2 = step(aut, open_q, ev.name)
                closed_2 = closed_loop_step(aut, f, closed_q, ev.name)
                d2 = ZERO if closed_2 is None else max(closed_2)
                lhs = min(d, ev.uc_degree, max(open_2))
                if lhs > d2:
                    return False
                if closed_2 is not None:
                    nxt.append((open_2, closed_2, d2))
        frontier = nxt
    return True


@dataclass(frozen=True)
class ConsistencyVerdict:
    ok: bool
    counterexample: Optional[tuple[EventString, EventString, str]] = None


def _scaled_state_groups(
    aut: MaxMinAutomaton, K: FuzzyLanguage
) -> dict[State, list[EventString]]:
    """Group support strings by the state they pass through: the string's
    degree scaled onto the open-loop run.  Zero results are dropped (they no
    longer name a state)."""
    groups: dict[State, list[EventString]] = {}
    for s in K.support():
        scaled = scale_product(K.degree(s), run(aut, s))
        if state_is_zero(scaled):
            continue
        groups.setdefault(scaled, []).append(s)
    return groups


def consistency_check(aut: MaxMinAutomaton, K: FuzzyLanguage) -> ConsistencyVerdict:
    """Two support strings passing through the same state must give every
    common possible one-event extension the same degree."""
    for group in _scaled_state_groups(aut, K).values():
        for i, s1 in enumerate(group):
            for s2 in group[i + 1 :]:
                for name in aut.event_names:
                    d1 = K.degree(s1 + (name,))
                    d2 = K.degree(s2 + (name,))
                    if d1 != ZERO and d2 != ZERO and d1 != d2:
                        return ConsistencyVerdict(False, (s1, s2, name))
    return ConsistencyVerdict(True)


def reach_of_language(aut: MaxMinAutomaton, K: FuzzyLanguage) -> list[State]:
    """States passed through by the language: each support string's degree
    scaled onto its open-loop run, deduplicated in first-seen order."""
    return list(_scaled_state_groups(aut, K))


def controller_from_language(
    aut: MaxMinAutomaton, K: FuzzyLanguage
) -> StateFeedbackController:
    """Build the state feedback controller realizing a consistent
    controllable language: at each passed state, enable an event to the best
    degree the language grants any string passing there, floored by the
    event's uncontrollability.  The closed loop then reaches exactly the
    language's passed states."""
    verdict = language_controllable(aut, K, max(6, K.depth() + 1))
    if not verdict.ok:
        raise PreconditionError(
            "language is not controllable", counterexample=verdict.counterexample
        )
    consistency = consistency_check(aut, K)
    if not consistency.ok:
        raise PreconditionError(
            "language is not consistent", counterexample=consistency.counterexample
        )
    groups = _scaled_state_groups(aut, K)
    entries: dict[tuple[State, str], Fraction] = {}
    for q, strings in groups.items():
        for ev in aut.events:
            best = max((K.degree(s + (ev.name,)) for s in strings), default=ZERO)
            entries[(q, ev.name)] = max(best, ev.uc_degree)
    return StateFeedbackController(entries, ONE)
