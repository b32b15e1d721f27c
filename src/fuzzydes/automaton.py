"""Max-min automata: open-loop dynamics, the accessible part, and
closed-loop dynamics under a state feedback controller.

A max-min automaton moves from fuzzy state q to q . a (max-min composition)
on event a.  A state feedback controller assigns each (state, event) pair an
enabling possibility at least the event's uncontrollability floor; the
closed-loop step scales the open-loop result by that possibility.  The
all-zero vector counts as "no transition": it is excluded from the state set,
so a step that scales to zero is simply absent.

The explorations run on int-coded states (the events' coded matrices and
the automaton's coded_initial) and decode their graphs once at the end.
_feasible expands a coded state into its feasible events and their
compositions; every exploration and state-set analysis reads it, and
_validated_codes checks and codes the state set of each such analysis.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence

from . import graph
from ._record import Record
from .errors import DimensionMismatch, UnknownEvent, ValidationError
from .possibility import (
    ONE,
    ZERO,
    Code,
    Fraction,
    FuzzyEvent,
    State,
    decode_state,
    encode_state,
    encode_value,
    format_state,
    make_state,
    maxmin_compose,
    scale_product,
    state_is_zero,
)

EventString = tuple[str, ...]

CodedController = Callable[[Code, str], int]  # (coded state, event) -> coded value


def as_event_string(s) -> EventString:
    """Normalize an event string; a plain str is read character by character."""
    return tuple(s)


class MaxMinAutomaton(Record):
    """A fuzzy discrete-event plant: crisp dimension n, state labels, a
    nonzero initial fuzzy state, and a finite alphabet of fuzzy events."""

    n: int
    state_labels: tuple[str, ...]
    initial: State
    events: tuple[FuzzyEvent, ...]

    def __post_init__(self):
        if self.n <= 0:
            raise ValidationError("dimension must be positive")
        if len(self.state_labels) != self.n:
            raise ValidationError(
                f"expected {self.n} state labels, got {len(self.state_labels)}"
            )
        if len(self.initial) != self.n:
            raise DimensionMismatch(
                f"initial state has {len(self.initial)} components, expected {self.n}"
            )
        if state_is_zero(self.initial):
            raise ValidationError("the all-zero vector is excluded from the state set")
        names = [ev.name for ev in self.events]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate event names in {names}")
        for ev in self.events:
            if ev.dimension != self.n:
                raise DimensionMismatch(
                    f"event {ev.name!r} is {ev.dimension}x{ev.dimension}, expected {self.n}x{self.n}"
                )

    @cached_property
    def _by_name(self) -> Mapping[str, FuzzyEvent]:
        return {ev.name: ev for ev in self.events}

    @cached_property
    def coded_initial(self) -> Code:
        return encode_state(self.initial)

    @property
    def event_names(self) -> tuple[str, ...]:
        return tuple(ev.name for ev in self.events)

    def event(self, name: str) -> FuzzyEvent:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownEvent(f"unknown event {name!r}") from None

    def uc_map(self) -> dict[str, Fraction]:
        return {ev.name: ev.uc_degree for ev in self.events}

    def value_grid(self) -> tuple[Fraction, ...]:
        """All possibility values appearing in the automaton, plus 0 and 1."""
        values = {ZERO, ONE}
        values.update(self.initial)
        for ev in self.events:
            values.add(ev.uc_degree)
            for row in ev.matrix:
                values.update(row)
        return tuple(sorted(values))


def make_automaton(state_labels, initial, events) -> MaxMinAutomaton:
    labels = tuple(str(x) for x in state_labels)
    return MaxMinAutomaton(len(labels), labels, make_state(initial), tuple(events))


def step(aut: MaxMinAutomaton, q: State, name: str) -> State:
    """One open-loop transition: q composed with the named event's matrix."""
    return decode_state(_step(aut, encode_state(q), name))


def _step(aut: MaxMinAutomaton, q: Code, name: str) -> Code:
    return maxmin_compose(q, aut.event(name))


def run(aut: MaxMinAutomaton, s) -> State:
    """Fold step over an event string starting from the initial state.

    The degree of a nonempty string s in the plant's generated fuzzy
    language is max(run(aut, s)), the largest component of the reached
    state; the empty string has degree 1."""
    return decode_state(_run(aut, as_event_string(s))[-1])


def _run(aut: MaxMinAutomaton, names: EventString, f: Optional[CodedController] = None) -> list[Code]:
    """The coded states of the run over names from the initial state; under
    the coded controller f it stops before the first step that vanishes."""
    states = [aut.coded_initial]
    for name in names:
        q = _step(aut, states[-1], name)
        if f is not None:
            q = scale_product(f(states[-1], name), q)
            if not any(q):
                break
        states.append(q)
    return states


class TransitionGraph(Record, hidden=("positions",)):
    """A finite, deterministic, labeled transition graph over fuzzy states,
    rooted at the initial state.  Produced by accessible_part (open loop) and
    closed_loop_graph (under a controller); the analyses build it over
    int-coded states.  positions holds each edge's (source, target)
    positions in vertices, as on a SuccessorGraph, found from the vertices
    when not given; it stays out of equality, hash and repr.  Every walk of
    the graph runs over positions, through _links."""

    root: State
    vertices: tuple[State, ...]
    edges: tuple[tuple[State, str, State], ...]
    positions: Optional[tuple[tuple[int, int], ...]] = None

    def __post_init__(self):
        if self.positions is None:
            ids = {q: i for i, q in enumerate(self.vertices)}
            try:
                self.__dict__["positions"] = tuple((ids[src], ids[dst]) for src, _, dst in self.edges)
            except KeyError:
                src, name, dst = next(e for e in self.edges if e[0] not in ids or e[2] not in ids)
                edge = f"{format_state(src)} --{name}--> {format_state(dst)}"
                raise ValidationError(f"edge {edge} has an endpoint that is not a vertex") from None

    @cached_property
    def _links(self) -> tuple[list[list[tuple[str, int]]], list[list[tuple[str, int]]]]:
        """Per position, the labeled out-links (event, target position) and
        in-links (event, source position), in edge order."""
        out, into = [[] for _ in self.vertices], [[] for _ in self.vertices]
        for (v, t), (_, name, _) in zip(self.positions, self.edges):
            out[v].append((name, t))
            into[t].append((name, v))
        return out, into


def _decode_graph(coded: TransitionGraph) -> TransitionGraph:
    """The public form of a coded graph of _explore, whose root is its
    first vertex: each vertex decoded once, edges rebuilt from their
    positions."""
    states = tuple(map(decode_state, coded.vertices))
    edges = tuple(
        (states[v], name, states[t]) for (v, t), (_, name, _) in zip(coded.positions, coded.edges)
    )
    return TransitionGraph(states[0], states, edges, coded.positions)


def _validated_codes(aut: MaxMinAutomaton, states: Sequence[State]) -> tuple[Code, ...]:
    """The codes of states, in order, once each is checked to have the
    plant's dimension, to be nonzero and to appear once."""
    codes: dict[Code, None] = {}
    for q in states:
        if len(q) != aut.n:
            raise DimensionMismatch(
                f"state {format_state(q)} has {len(q)} components, expected {aut.n}"
            )
        code = encode_state(q)
        if not any(code):
            raise ValidationError("the all-zero vector is excluded from the state set")
        if code in codes:
            raise ValidationError(f"duplicate state {format_state(q)} in the set")
        codes[code] = None
    return tuple(codes)


def _feasible(aut: MaxMinAutomaton, q: Code, events=None) -> list[tuple[FuzzyEvent, Code]]:
    """(event, q . event) for every event of events (the alphabet by
    default) that is feasible at the coded state q, a nonzero composition,
    in alphabet order.  Every analysis expands a state through here."""
    return [
        (ev, p)
        for ev in (aut.events if events is None else events)
        if any(p := maxmin_compose(q, ev))
    ]


def _explore(aut: MaxMinAutomaton, f: Optional[CodedController] = None) -> TransitionGraph:
    """Breadth-first closure of the coded initial state under open-loop
    steps or, for a coded controller f, under controlled steps; a step that
    f scales to zero is absent."""
    edges: list[tuple[Code, str, Code]] = []

    def moves(q: Code):
        for ev, p in _feasible(aut, q):
            if f is not None:
                p = scale_product(f(q, ev.name), p)
                if not any(p):
                    continue
            edges.append((q, ev.name, p))
            yield ev.name, p

    vertices = tuple(graph.bfs(aut.coded_initial, moves).dist)
    return TransitionGraph(aut.coded_initial, vertices, tuple(edges))


def accessible_part(aut: MaxMinAutomaton) -> TransitionGraph:
    """Breadth-first closure of the initial state under open-loop steps.

    Terminates because every component of every reachable state is drawn from
    the finite grid of values appearing in the automaton.
    """
    return _decode_graph(_explore(aut))


class StateFeedbackController(Record):
    """A state feedback controller: a finite map from (state, event name) to
    an enabling possibility, with a default for unmapped pairs.

    Validation against an automaton checks each entry's state dimension, and
    every stored value and the default against the events' floors.
    """

    entries: Mapping[tuple[State, str], Fraction]
    default: Fraction

    def __init__(self, entries: Optional[Mapping] = None, default: Fraction = ONE):
        super().__init__({} if entries is None else entries, default)

    def value(self, q: State, name: str) -> Fraction:
        return self.entries.get((q, name), self.default)

    def validate(self, aut: MaxMinAutomaton) -> None:
        floors = aut.uc_map()
        for (q, name), v in self.entries.items():
            if len(q) != aut.n:
                raise DimensionMismatch(
                    f"controller state {format_state(q)} has {len(q)} components, expected {aut.n}"
                )
            floor = floors.get(name)
            if floor is None:
                raise UnknownEvent(f"controller maps unknown event {name!r}")
            if v < floor:
                raise ValidationError(
                    f"controller value {v} for event {name!r} at {format_state(q)} "
                    f"is below the uncontrollability floor {floor}"
                )
        # The default covers the whole (infinite) remainder of the domain,
        # so it must clear every event's floor.
        highest = max(floors.values(), default=ZERO)
        if self.default < highest:
            raise ValidationError(
                f"controller default {self.default} is below the highest "
                f"uncontrollability floor {highest}"
            )


def _coded(f: StateFeedbackController) -> CodedController:
    """f over int codes, as the lookup (coded state, event) -> coded value:
    what the closed-loop runs and explorations, the supervisor translation
    and the stabilizing redirection call."""
    entries = {(encode_state(q), name): encode_value(v) for (q, name), v in f.entries.items()}
    default = encode_value(f.default)
    return lambda q, name: entries.get((q, name), default)


def closed_loop_graph(aut: MaxMinAutomaton, f: StateFeedbackController) -> TransitionGraph:
    """Breadth-first closure of the initial state under controlled steps."""
    f.validate(aut)
    return _decode_graph(_explore(aut, _coded(f)))


class Trajectory(Record):
    """An alternating run q0, a1, q1, ..., ak, qk; closed-loop runs may stop
    early when a step is disabled."""

    states: tuple[State, ...]
    events: EventString
    halted: bool = False

    def __post_init__(self):
        if len(self.states) != len(self.events) + 1:
            raise ValidationError("trajectory needs one more state than events")


def open_loop_trajectory(aut: MaxMinAutomaton, s) -> Trajectory:
    names = as_event_string(s)
    return Trajectory(tuple(map(decode_state, _run(aut, names))), names)


def closed_loop_trajectory(
    aut: MaxMinAutomaton, f: StateFeedbackController, s
) -> Trajectory:
    """The controlled run over s, halted before the first step that f
    scales to zero.  A nonempty s has degree 0 in the controlled language
    when the run halts, and otherwise the largest component of its last
    state.  f is validated against aut first, as closed_loop_graph does."""
    f.validate(aut)
    names = as_event_string(s)
    states = _run(aut, names, _coded(f))
    taken = names[: len(states) - 1]
    return Trajectory(tuple(map(decode_state, states)), taken, halted=len(taken) < len(names))
