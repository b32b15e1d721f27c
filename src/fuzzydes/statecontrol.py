"""Can a controller confine the plant to exactly a given finite state set?

A candidate set P induces a successor graph: an edge (q, a, p) records that
some admissible scaling of the composition q . a lands on p in P.  P is
controllable exactly when a subgraph exists that is functional per event
(C1), covers every partially uncontrollable feasible event (C2), and reaches
every vertex from the initial state.  From such a subgraph a controller with
closed-loop reachable set exactly P is synthesized by a three-case rule.

Every check runs on the int codes of the states, by position in P; public
results reuse the caller's own state objects.  _moves asks which members an
admissible scaling of q . a lands on: for each feasible event at a member,
or only for the partially uncontrollable ones, it gives the target
positions with their alpha ranges, found through a ScalingIndex of the
coded set.  The successor graph and the candidate table and C2 test of
check_controllable read it, and so do stability's invariance checks and
its witness search.  The stabilization verifier in stability reads
ScalingIndex.targets directly instead, because its redirection needs each
composition q . a as well, which _moves does not return.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from . import graph
from ._record import Record
from .automaton import MaxMinAutomaton, StateFeedbackController, _feasible, _validated_codes
from .errors import DomainError, ValidationError
from .possibility import (
    CODE_UNIT,
    ONE,
    Code,
    FuzzyEvent,
    ScaleSolution,
    State,
    decode_state,
    decode_value,
    encode_state,
    format_state,
    solve_scale,
)


class SuccessorEdge(Record):
    """One admissible move within P: scaling the composition of source with
    the event by any alpha in alpha_range (already cut down to the event's
    floor) lands exactly on target."""

    source: State
    event: str
    target: State
    alpha_range: ScaleSolution


class SuccessorGraph(Record, hidden=("positions",)):
    """The admissible moves within a state set.  positions holds each edge's
    (source, target) positions in vertices; it stays out of equality, hash
    and repr."""

    vertices: tuple[State, ...]
    edges: tuple[SuccessorEdge, ...]
    root: State
    positions: tuple[tuple[int, int], ...]


class ControllableSubgraph(Record):
    """A per-(vertex, event) choice of successor edges satisfying C1/C2 with
    every vertex reachable from the root through chosen edges."""

    choice: Mapping[tuple[State, str], State]

    def edges(self) -> tuple[tuple[State, str, State], ...]:
        return tuple((q, name, t) for (q, name), t in self.choice.items())


class Obstruction(Record):
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


class ControllabilityVerdict(Record):
    controllable: bool
    subgraph: Optional[ControllableSubgraph] = None
    obstruction: Optional[Obstruction] = None


class ScalingIndex:
    """The members of a coded state set, grouped by their maximum and sorted
    by it, for finding the members that scaling a coded vector c lands on,
    with their alpha ranges in closed form.

    A member p with maximum m is hit exactly when p == min(m, c)
    componentwise, which needs m <= max(c); its alpha range is
    [max(m, floor), m] when m < max(c) (empty when floor > m) and
    [max(m, floor), 1] when m == max(c).  Proof: min(alpha, c) has
    maximum min(alpha, max(c)), so a hit forces min(alpha, max(c)) == m
    and then min(alpha, c) == min(m, c).  When m < max(c) this pins
    alpha == m; when m == max(c) any alpha >= m gives min(alpha, c) == c.
    So one dictionary probe per maximum up to max(c) finds every target,
    and no hit calls solve_scale.
    """

    def __init__(self, states: Sequence[Code]):
        self.states = tuple(states)
        groups: dict[int, dict[Code, int]] = {}
        for i, p in enumerate(self.states):
            groups.setdefault(max(p), {})[p] = i
        self._groups = sorted(groups.items())

    def targets(self, composed: Code, floor: int) -> list[tuple[int, ScaleSolution]]:
        """(position, alpha range) of every member that scaling composed by
        some alpha >= floor lands on, in position order."""
        top = max(composed)
        out = []
        for m, members in self._groups:
            if m > top:
                break
            if m == top:
                if (i := members.get(composed)) is not None:
                    out.append((i, ScaleSolution(max(m, floor), CODE_UNIT[1])))
            elif floor <= m and (i := members.get(tuple([min(m, v) for v in composed]))) is not None:
                out.append((i, ScaleSolution(m, m)))
        out.sort()  # positions are distinct, so no two ranges are compared
        return out


def _moves(
    aut: MaxMinAutomaton, index: ScalingIndex, q: Code, forced: bool = False
) -> Iterator[tuple[FuzzyEvent, list[tuple[int, ScaleSolution]]]]:
    """Every feasible event at the coded state q, in alphabet order, with
    its admissible moves within the index: (target position, coded alpha
    range cut down to the event's floor), in position order.  With forced,
    only the partially uncontrollable events (condition C2), which no
    controller can disable at q.  Each event's targets are found as it is
    reached, so a caller that stops early solves no more."""
    events = [ev for ev in aut.events if ev.coded_uc] if forced else None
    for ev, composed in _feasible(aut, q, events):
        yield ev, index.targets(composed, ev.coded_uc)


def build_successor_graph(aut: MaxMinAutomaton, P: Sequence[State]) -> SuccessorGraph:
    """Every admissible (event, target) move within P, grouped by source in
    P's order; the moves out of one source are ordered by event, then by
    the target's position in P."""
    states = tuple(P)
    index = ScalingIndex(_validated_codes(aut, states))
    edges, positions = [], []
    for v, q in enumerate(index.states):
        for ev, moves in _moves(aut, index, q):
            for t, alphas in moves:
                decoded = ScaleSolution(decode_value(alphas.lower), decode_value(alphas.upper))
                edges.append(SuccessorEdge(states[v], ev.name, states[t], decoded))
                positions.append((v, t))
    return SuccessorGraph(states, tuple(edges), aut.initial, tuple(positions))


def chosen_graph(sg: SuccessorGraph, subgraph: ControllableSubgraph) -> SuccessorGraph:
    """Restrict a successor graph to a subgraph's chosen edges (alpha ranges
    kept for labeling)."""
    kept = [
        (e, vt) for e, vt in zip(sg.edges, sg.positions)
        if subgraph.choice.get((e.source, e.event)) == e.target
    ]
    return SuccessorGraph(
        sg.vertices, tuple(e for e, _ in kept), sg.root, tuple(vt for _, vt in kept)
    )


def check_controllable(aut: MaxMinAutomaton, P: Sequence[State]) -> ControllabilityVerdict:
    """Decide controllability of P by backtracking over per-(vertex, event)
    target choices.

    Omitting an edge for a fully controllable event can never help
    reachability, so the search only considers full selections; pruning drops
    any partial assignment whose optimistic completion (all remaining
    candidates present) already strands a vertex.
    """
    states = tuple(P)
    codes = _validated_codes(aut, states)
    # The search runs over vertex ids, the positions in P.
    ids = {q: i for i, q in enumerate(codes)}
    root = ids.get(aut.coded_initial)
    if root is None:
        return ControllabilityVerdict(False, None, Obstruction("missing-initial"))
    index = ScalingIndex(codes)
    # One pass, members in P order and events in alphabet order: the
    # candidate targets of every feasible event, stopping at the first
    # forced event that has none (C2).
    candidates: list[list[tuple[str, list[int]]]] = []
    for v, q in enumerate(codes):
        row = []
        for ev, moves in _moves(aut, index, q):
            if moves:
                row.append((ev.name, [t for t, _ in moves]))
            elif ev.coded_uc:
                return ControllabilityVerdict(
                    False, None, Obstruction("uncoverable-event", vertex=states[v], event=ev.name)
                )
        candidates.append(row)
    # Slot order: vertices in BFS discovery order over the full candidate
    # graph (a state it misses is unreachable under every selection), events
    # in alphabet order.  Only slots with candidates exist; C2-mandatory
    # slots were verified non-empty above.
    reached = graph.bfs(root, lambda v: ((name, t) for name, targets in candidates[v] for t in targets)).dist
    if len(reached) != len(states):
        missing = tuple(q for v, q in enumerate(states) if v not in reached)
        return ControllabilityVerdict(
            False, None, Obstruction("unreachable", vertices=missing)
        )
    slots = [(v, targets) for v in reached for _, targets in candidates[v]]
    slot_events = [name for v in reached for name, _ in candidates[v]]

    picks, best_reached = _search(root, len(states), slots)
    if picks is not None:
        choice = {
            (states[v], name): states[targets[k]]
            for (v, targets), name, k in zip(slots, slot_events, picks)
        }
        return ControllabilityVerdict(True, ControllableSubgraph(choice))
    missing = tuple(q for v, q in enumerate(states) if v not in best_reached)
    return ControllabilityVerdict(False, None, Obstruction("unreachable", vertices=missing))


def _walk(root, slots_of, slots, picks) -> dict[int, int]:
    """The closure of root in the optimistic graph of picks, where slot k
    offers its pick slots[k][1][picks[k]] when chosen (k < len(picks)) and
    every target while open: each reached vertex mapped to the slot whose
    edge discovered it (-1 for root)."""
    via = {root: -1}
    stack = [root]
    while stack:
        for k in slots_of[stack.pop()]:
            targets = slots[k][1]
            for t in (targets[picks[k]],) if k < len(picks) else targets:
                if t not in via:
                    via[t] = k
                    stack.append(t)
    return via


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

    Two facts spare most walks of the optimistic graph without changing a
    node, a prune or a leaf's reach set.  First, indeg counts each vertex's
    in-edges in that graph (the root holds one extra).  A vertex with none
    left is stranded: a walk could not reach it.  So an inner node with a
    stranded vertex is pruned exactly as its walk would prune it, and a
    leaf with s stranded vertices reaches at most size - s, so it is
    skipped when that cannot beat best_reached.  Second, via keeps the
    closure of the current node while it reaches every vertex, with the
    slot whose edge discovered each vertex.  Narrowing slot k to its first
    target removes only slot k's other edges; when via discovered no
    vertex through one of them, its spanning tree survives, and the child
    reaches every vertex too.  Only a backtrack or a cut tree forces a
    walk.  Neither keeps anything per depth, so memory stays
    O(size + len(slots)).
    """
    slots_of: list[list[int]] = [[] for _ in range(size)]
    indeg = [0] * size
    indeg[root] = 1
    for k, (v, targets) in enumerate(slots):
        slots_of[v].append(k)
        for t in targets:
            indeg[t] += 1
    picks: list[int] = []  # picks[k]: index of the target chosen for slots[k]
    best_reached = set(_walk(root, slots_of, slots, [0] * len(slots)))
    via = None
    while True:
        leaf = len(picks) == len(slots)
        if via is None:
            stranded = indeg.count(0)
            if not stranded or leaf and size - stranded > len(best_reached):
                reach = _walk(root, slots_of, slots, picks)
                if len(reach) == size:
                    via = reach
                elif leaf and len(reach) > len(best_reached):
                    best_reached = set(reach)
        if via is not None:
            if leaf:
                return picks, set(via)
            k = len(picks)
            targets = slots[k][1]
            picks.append(0)
            if any(t != targets[0] and via[t] == k for t in targets[1:]):
                via = None
            for t in targets[1:]:
                indeg[t] -= 1
            continue
        # Backtrack to the deepest slot with an untried target.
        while picks:
            targets = slots[len(picks) - 1][1]
            j = picks[-1]
            if j + 1 < len(targets):
                picks[-1] += 1
                indeg[targets[j]] -= 1
                indeg[targets[j + 1]] += 1
                break
            picks.pop()
            for t in targets[:j]:
                indeg[t] += 1
        else:
            return None, best_reached


def _checked_choice(
    aut: MaxMinAutomaton, codes: tuple[Code, ...], subgraph: ControllableSubgraph
) -> dict[Code, dict[str, int]]:
    """Check a choice over the nonempty coded set against C1 (structural),
    C2 and reachability, expanding each member once; returns each member's
    feasible events, in alphabet order, with the least admissible coded
    scaling of the chosen edge, or 0 for an unchosen event (a chosen edge's
    is positive, as its target is nonzero)."""
    members = set(codes)
    feasible = {q: {ev.name: (ev, p) for ev, p in _feasible(aut, q)} for q in codes}
    alphas = {q: dict.fromkeys(events, 0) for q, events in feasible.items()}
    edge_map: dict[Code, list[Code]] = {}
    for (q, name), t in subgraph.choice.items():
        source, target = encode_state(q), encode_state(t)
        if source not in members or target not in members:
            raise ValidationError(
                f"chosen edge {format_state(q)} --{name}--> {format_state(t)} "
                "leaves the candidate set"
            )
        # An infeasible event composes to zero, which scales onto no member.
        ev, composed = feasible[source].get(name) or (aut.event(name), (0,) * aut.n)
        alpha = solve_scale(composed, target).restrict(ev.coded_uc).least()
        if alpha is None:
            raise ValidationError(
                f"no admissible scaling realizes {format_state(q)} --{name}--> "
                f"{format_state(t)}"
            )
        alphas[source][name] = alpha
        edge_map.setdefault(source, []).append(target)
    for q in codes:
        for name, (ev, _) in feasible[q].items():
            if ev.coded_uc and not alphas[q][name]:
                raise ValidationError(
                    f"event {name!r} is feasible and partially uncontrollable at "
                    f"{format_state(decode_state(q))} but has no chosen edge"
                )
    if aut.coded_initial not in members:
        raise ValidationError("the initial state is not a member of the candidate set")
    reach = graph.closure([aut.coded_initial], lambda q: edge_map.get(q, ()))
    if reach != members:
        missing = ", ".join(format_state(decode_state(q)) for q in codes if q not in reach)
        raise ValidationError(f"chosen edges do not reach: {missing}")
    return alphas


def synthesize_controller(
    aut: MaxMinAutomaton, P: Sequence[State], subgraph: ControllableSubgraph
) -> StateFeedbackController:
    """Realize a controllable set: enable chosen edges at their least
    admissible scaling, hard-disable unchosen feasible events (their floor is
    zero by C2), and leave everything off the set fully enabled.  The closed
    loop is then exactly the chosen edges over all of P: each chosen edge
    lands on its target, no other step at a member survives, and the chosen
    edges reach every member from the initial state.  Raises DomainError
    for the empty set and ValidationError for a malformed P or choice.
    """
    states = tuple(P)
    codes = _validated_codes(aut, states)
    if not codes:
        raise DomainError("the empty set has no realizing controller; the initial state is always reached")
    alphas = _checked_choice(aut, codes, subgraph)
    # An unchosen feasible event gets 0: hard-disabled.
    entries = {
        (q, name): decode_value(alpha)
        for q, code in zip(states, codes)
        for name, alpha in alphas[code].items()
    }
    return StateFeedbackController(entries, ONE)
