"""Can a controller confine the plant to exactly a given finite state set?

A candidate set P induces a successor graph: an edge (q, a, p) records that
some admissible scaling of the composition q . a lands on p in P.  P is
controllable exactly when a subgraph exists that is functional per event
(C1), covers every partially uncontrollable feasible event (C2), and reaches
every vertex from the initial state.  From such a subgraph a controller with
closed-loop reachable set exactly P is synthesized by a three-case rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .automaton import MaxMinAutomaton, StateFeedbackController
from .errors import DimensionMismatch, DomainError, ValidationError
from .graph import bfs, closure
from .possibility import (
    ONE,
    ZERO,
    Fraction,
    FuzzyEvent,
    ScaleSolution,
    State,
    format_state,
    maxmin_compose,
    solve_scale,
    state_is_zero,
)


@dataclass(frozen=True)
class SuccessorEdge:
    """One admissible move within P: scaling the composition of source with
    the event by any alpha in alpha_range (already cut down to the event's
    floor) lands exactly on target."""

    source: State
    event: str
    target: State
    alpha_range: ScaleSolution


@dataclass(frozen=True)
class SuccessorGraph:
    vertices: tuple[State, ...]
    edges: tuple[SuccessorEdge, ...]
    root: State


@dataclass(frozen=True)
class ControllableSubgraph:
    """A per-(vertex, event) choice of successor edges satisfying C1/C2 with
    every vertex reachable from the root through chosen edges."""

    choice: Mapping[tuple[State, str], State]

    def edges(self) -> tuple[tuple[State, str, State], ...]:
        return tuple((q, name, t) for (q, name), t in self.choice.items())


@dataclass(frozen=True)
class Obstruction:
    """Why a set failed the controllability check."""

    kind: str  # "missing-initial" | "uncoverable-event" | "unreachable"
    vertex: Optional[State] = None
    event: Optional[str] = None
    vertices: tuple[State, ...] = ()

    def describe(self) -> str:
        if self.kind == "missing-initial":
            return "the initial state is not a member of the candidate set"
        if self.kind == "uncoverable-event":
            return (
                f"event {self.event!r} is feasible and partially uncontrollable at "
                f"{format_state(self.vertex)} but has no admissible target in the set"
            )
        missing = ", ".join(format_state(q) for q in self.vertices)
        return f"no admissible selection reaches: {missing}"


@dataclass(frozen=True)
class ControllabilityVerdict:
    controllable: bool
    subgraph: Optional[ControllableSubgraph] = None
    obstruction: Optional[Obstruction] = None


def validated_state_set(aut: MaxMinAutomaton, P: Sequence[State]) -> tuple[State, ...]:
    states = tuple(P)
    seen = set()
    for q in states:
        if len(q) != aut.n:
            raise DimensionMismatch(
                f"state {format_state(q)} has {len(q)} components, expected {aut.n}"
            )
        if state_is_zero(q):
            raise ValidationError("the all-zero vector is excluded from the state set")
        if q in seen:
            raise ValidationError(f"duplicate state {format_state(q)} in the set")
        seen.add(q)
    return states


def forced_events(aut: MaxMinAutomaton, q: State) -> Iterator[tuple[FuzzyEvent, State]]:
    """(event, q . event) for every event that is feasible at q and partially
    uncontrollable (condition C2): no controller can disable it there."""
    for ev in aut.events:
        if ev.uc_degree > ZERO:
            composed = maxmin_compose(q, ev)
            if not state_is_zero(composed):
                yield ev, composed


class ScalingIndex:
    """The members of a state set, grouped by their maximum, for finding the
    members that scale a vector lands on.

    A nonzero p is a scaling of c exactly when p == min(max(p), c)
    componentwise, so one dictionary probe per distinct maximum finds every
    candidate target; solve_scale then runs on those hits alone.
    """

    def __init__(self, states: Sequence[State]):
        self.states = tuple(states)
        groups: dict[Fraction, dict[State, int]] = {}
        for i, p in enumerate(self.states):
            groups.setdefault(max(p), {})[p] = i
        self._groups = tuple(groups.items())

    def targets(self, composed: State, floor: Fraction) -> list[tuple[int, ScaleSolution]]:
        """(position, alpha range) of every member that scaling composed by
        some alpha >= floor lands on, in position order."""
        hits = sorted(
            i
            for m, members in self._groups
            if (i := members.get(tuple(min(m, v) for v in composed))) is not None
        )
        out = []
        for i in hits:
            admissible = solve_scale(composed, self.states[i]).restrict(floor)
            if not admissible.is_empty:
                out.append((i, admissible))
        return out


def _successor_edges(aut: MaxMinAutomaton, index: ScalingIndex, q: State) -> list[SuccessorEdge]:
    return [
        SuccessorEdge(q, ev.name, index.states[i], admissible)
        for ev in aut.events
        for i, admissible in index.targets(maxmin_compose(q, ev), ev.uc_degree)
    ]


def successor_set(
    aut: MaxMinAutomaton, P: Sequence[State], q: State
) -> tuple[SuccessorEdge, ...]:
    """All admissible (event, target) moves from q within P, ordered by event
    then by the target's position in P."""
    states = validated_state_set(aut, P)
    if q not in states:
        raise DomainError(f"state {format_state(q)} is not a member of the set")
    return tuple(_successor_edges(aut, ScalingIndex(states), q))


def build_successor_graph(aut: MaxMinAutomaton, P: Sequence[State]) -> SuccessorGraph:
    states = validated_state_set(aut, P)
    index = ScalingIndex(states)
    edges = tuple(e for q in states for e in _successor_edges(aut, index, q))
    return SuccessorGraph(states, edges, aut.initial)


def chosen_graph(sg: SuccessorGraph, subgraph: ControllableSubgraph) -> SuccessorGraph:
    """Restrict a successor graph to a subgraph's chosen edges (alpha ranges
    kept for labeling)."""
    edges = tuple(
        e for e in sg.edges if subgraph.choice.get((e.source, e.event)) == e.target
    )
    return SuccessorGraph(sg.vertices, edges, sg.root)


def check_controllable(aut: MaxMinAutomaton, P: Sequence[State]) -> ControllabilityVerdict:
    """Decide controllability of P by backtracking over per-(vertex, event)
    target choices.

    Omitting an edge for a fully controllable event can never help
    reachability, so the search only considers full selections; pruning drops
    any partial assignment whose optimistic completion (all remaining
    candidates present) already strands a vertex.
    """
    states = validated_state_set(aut, P)
    if not states:
        return ControllabilityVerdict(True, ControllableSubgraph({}))
    if aut.initial not in states:
        return ControllabilityVerdict(False, None, Obstruction("missing-initial"))

    # The search runs over vertex ids, the positions in P.
    ids = {q: i for i, q in enumerate(states)}
    root = ids[aut.initial]
    candidates: dict[tuple[int, str], list[int]] = {}
    for edge in build_successor_graph(aut, states).edges:
        candidates.setdefault((ids[edge.source], edge.event), []).append(ids[edge.target])

    for v, q in enumerate(states):
        for ev, _ in forced_events(aut, q):
            if (v, ev.name) not in candidates:
                return ControllabilityVerdict(
                    False, None, Obstruction("uncoverable-event", vertex=q, event=ev.name)
                )

    full_map: dict[int, list[tuple[str, int]]] = {}
    for (v, name), targets in candidates.items():
        full_map.setdefault(v, []).extend((name, t) for t in targets)
    # Slot order: vertices in BFS discovery order over the full candidate
    # graph (a state it misses is unreachable under every selection), events
    # in alphabet order.  Only slots with candidates exist; C2-mandatory
    # slots were verified non-empty above.
    reached = bfs(root, lambda v: full_map.get(v, ())).dist
    if len(reached) != len(states):
        missing = tuple(q for v, q in enumerate(states) if v not in reached)
        return ControllabilityVerdict(
            False, None, Obstruction("unreachable", vertices=missing)
        )
    slots: list[tuple[int, list[int]]] = []
    slot_events: list[str] = []
    for v in reached:
        for ev in aut.events:
            targets = candidates.get((v, ev.name))
            if targets:
                slots.append((v, targets))
                slot_events.append(ev.name)

    picks, best_reached = _search(root, len(states), slots)
    if picks is not None:
        choice = {
            (states[v], name): states[targets[k]]
            for (v, targets), name, k in zip(slots, slot_events, picks)
        }
        return ControllabilityVerdict(True, ControllableSubgraph(choice))
    missing = tuple(q for v, q in enumerate(states) if v not in best_reached)
    return ControllabilityVerdict(False, None, Obstruction("unreachable", vertices=missing))


def _search(
    root: int, size: int, slots: list[tuple[int, list[int]]]
) -> tuple[Optional[list[int]], set[int]]:
    """The backtracking search of check_controllable over vertex ids
    0..size-1, depth first over the slots' target choices in slot and target
    order, with an explicit stack (picks) so depth costs no Python frames.

    A node at depth i has chosen targets for slots[:i] and is pruned when
    its optimistic completion strands a vertex.  Returns the first full
    choice (picks[k] indexes the target of slots[k]) reaching every vertex,
    or None, and the largest set reached by a full choice, seeded with a
    greedy full assignment so an exhausted search still reports a concrete
    stranded set.
    """
    slots_of: list[list[int]] = [[] for _ in range(size)]
    for k, (v, _) in enumerate(slots):
        slots_of[v].append(k)
    picks: list[int] = []  # picks[k]: index of the target chosen for slots[k]

    def optimistic(v: int) -> list[int]:
        # Chosen slots give their pick, the slots still open every target.
        out = []
        for k in slots_of[v]:
            targets = slots[k][1]
            if k < len(picks):
                out.append(targets[picks[k]])
            else:
                out.extend(targets)
        return out

    best_reached = closure([root], lambda v: [slots[k][1][0] for k in slots_of[v]])
    while True:
        reach = closure([root], optimistic)
        if len(picks) == len(slots):
            if len(reach) > len(best_reached):
                best_reached = reach
            if len(reach) == size:
                return picks, best_reached
        elif len(reach) == size:
            picks.append(0)
            continue
        # Backtrack to the deepest slot with an untried target.
        while picks:
            if picks[-1] + 1 < len(slots[len(picks) - 1][1]):
                picks[-1] += 1
                break
            picks.pop()
        else:
            return None, best_reached


def validate_subgraph(
    aut: MaxMinAutomaton, P: Sequence[State], subgraph: ControllableSubgraph
) -> None:
    """Check a per-(vertex, event) choice against C1/C2/reachability; C1 is
    structural (a mapping holds one target per slot)."""
    states = validated_state_set(aut, P)
    state_set = set(states)
    edge_map: dict[State, list[State]] = {}
    for (q, name), t in subgraph.choice.items():
        if q not in state_set or t not in state_set:
            raise ValidationError(
                f"chosen edge {format_state(q)} --{name}--> {format_state(t)} "
                "leaves the candidate set"
            )
        ev = aut.event(name)
        if solve_scale(maxmin_compose(q, ev), t).restrict(ev.uc_degree).is_empty:
            raise ValidationError(
                f"no admissible scaling realizes {format_state(q)} --{name}--> "
                f"{format_state(t)}"
            )
        edge_map.setdefault(q, []).append(t)
    for q in states:
        for ev, _ in forced_events(aut, q):
            if (q, ev.name) not in subgraph.choice:
                raise ValidationError(
                    f"event {ev.name!r} is feasible and partially uncontrollable at "
                    f"{format_state(q)} but has no chosen edge"
                )
    if states:
        if aut.initial not in state_set:
            raise ValidationError("the initial state is not a member of the candidate set")
        reach = closure([aut.initial], lambda q: edge_map.get(q, ()))
        if reach != state_set:
            missing = ", ".join(format_state(q) for q in states if q not in reach)
            raise ValidationError(f"chosen edges do not reach: {missing}")


def synthesize_controller(
    aut: MaxMinAutomaton, P: Sequence[State], subgraph: ControllableSubgraph
) -> StateFeedbackController:
    """Realize a controllable set: enable chosen edges at their least
    admissible scaling, hard-disable unchosen feasible events (their floor is
    zero by C2), and leave everything off the set fully enabled.

    The resulting closed loop reaches exactly P.
    """
    states = validated_state_set(aut, P)
    if not states:
        raise DomainError("the empty set has no realizing controller; the initial state is always reached")
    validate_subgraph(aut, states, subgraph)
    entries: dict[tuple[State, str], Fraction] = {}
    for q in states:
        for ev in aut.events:
            composed = maxmin_compose(q, ev)
            if state_is_zero(composed):
                continue
            target = subgraph.choice.get((q, ev.name))
            if target is None:
                entries[(q, ev.name)] = ZERO
            else:
                alpha = solve_scale(composed, target).restrict(ev.uc_degree).least()
                entries[(q, ev.name)] = alpha
    return StateFeedbackController(entries, ONE)
