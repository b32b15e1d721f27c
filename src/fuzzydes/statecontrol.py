"""Can a controller confine the plant to exactly a given finite state set?

A candidate set P induces a successor graph: an edge (q, a, p) records that
some admissible scaling of the composition q . a lands on p in P.  P is
controllable exactly when a subgraph exists that is functional per event
(C1), covers every partially uncontrollable feasible event (C2), and reaches
every vertex from the initial state.  From such a subgraph a controller with
closed-loop reachable set exactly P is synthesized by a three-case rule.

Every check runs on the int codes of the states, by position in P; public
results reuse the caller's own state objects.  The moves within a set are
owned by _moves: its _expand gives them once per set, and its
_checked_choice and _realize check a choice and realize it.  This module
owns the decision, the backtracking search for a choice (_decide), and
reads the moves for the successor graph, the decision and synthesis;
stability reads the same moves from _moves and calls _decide only for a
supplied witness without a subgraph.
"""

from __future__ import annotations

from typing import Optional, Sequence

from . import graph
from ._moves import ControllableSubgraph, Expansion, _checked_choice, _expand, _realize
from ._record import Record
from .automaton import MaxMinAutomaton, StateFeedbackController, _validated_codes
from .errors import DomainError
from .possibility import Code, ScaleSolution, State, decode_value, format_state


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


def build_successor_graph(aut: MaxMinAutomaton, P: Sequence[State]) -> SuccessorGraph:
    """Every admissible (event, target) move within P, grouped by source in
    P's order; the moves out of one source are ordered by event, then by
    the target's position in P."""
    states = tuple(P)
    edges, positions = [], []
    for v, row in enumerate(_expand(aut, _validated_codes(aut, states))):
        for ev, _, moves in row:
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
    target choices; a yes carries the first full choice in slot order.

    Omitting an edge for a fully controllable event can never help
    reachability, so the search only considers full selections.  It drops
    any partial one whose optimistic completion (all open candidates
    present) strands a vertex or cannot give each vertex but the initial
    state an entering edge from a slot of its own.  An exhausted search reports
    the vertices its all-first-target choice strands.
    """
    states = tuple(P)
    codes = _validated_codes(aut, states)
    return _decide(aut, states, codes, _expand(aut, codes))


def _decide(
    aut: MaxMinAutomaton, states: tuple[State, ...], codes: tuple[Code, ...], expansion: Expansion
) -> ControllabilityVerdict:
    """check_controllable on the validated set: states and their codes,
    and the codes' expansion."""
    # The search runs over vertex ids, the positions in P.
    root = {q: i for i, q in enumerate(codes)}.get(aut.coded_initial)
    if root is None:
        return ControllabilityVerdict(False, None, Obstruction("missing-initial"))
    # Members in P order and events in alphabet order: the candidate
    # targets of every feasible event, stopping at the first forced event
    # that has none (C2).
    candidates: list[list[tuple[str, list[int]]]] = []
    for v, events in enumerate(expansion):
        row = []
        for ev, _, moves in events:
            if moves:
                row.append((ev.name, [t for t, _ in moves]))
            elif ev.coded_uc:
                return ControllabilityVerdict(
                    False, None, Obstruction("uncoverable-event", vertex=states[v], event=ev.name)
                )
        candidates.append(row)
    # Slot order: vertices in BFS discovery order over the full candidate
    # graph (a state it misses is unreachable under every selection, so no
    # search runs), events in alphabet order.  Only slots with candidates
    # exist; C2-mandatory slots were verified non-empty above.
    reached = graph.bfs(root, lambda v: ((name, t) for name, targets in candidates[v] for t in targets)).dist
    slots = [(v, targets) for v in reached for _, targets in candidates[v]]
    slot_events = [name for v in reached for name, _ in candidates[v]]
    picks = _search(root, len(states), slots) if len(reached) == len(states) else None
    if picks is not None:
        choice = {
            (states[v], name): states[targets[k]]
            for (v, targets), name, k in zip(slots, slot_events, picks)
        }
        return ControllabilityVerdict(True, ControllableSubgraph(choice))
    if len(reached) == len(states):
        # An exhausted search reports what the all-first-target choice strands.
        reached = graph.closure([root], lambda v: [targets[0] for _, targets in candidates[v]])
    missing = tuple(q for v, q in enumerate(states) if v not in reached)
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


def _search(root: int, size: int, slots: list[tuple[int, list[int]]]) -> Optional[list[int]]:
    """The backtracking search of check_controllable over vertex ids
    0..size-1: depth first over the slots' target choices in slot and target
    order, on an explicit stack (picks), to the first full choice reaching
    every vertex (picks[k] indexes the target of slots[k]), or None.

    A node at depth i has chosen targets for slots[:i]; in its optimistic
    graph a chosen slot offers its pick and an open slot every target.  It
    is pruned unless two necessary conditions hold.  First, a full choice
    reaching every vertex holds a spanning tree, whose edges come from
    distinct slots, so owner and match keep a matching of each vertex but
    the root to a slot of another vertex that offers it (Hall, J. London
    Math. Soc. 10, 1935).  A pick that takes a vertex from its slot repairs
    it along a shortest alternating path (Hopcroft & Karp, SIAM J. Comput.
    2(4), 1973), and a backtrack only widens slots.  Second, the optimistic
    graph reaches every vertex.  via keeps that closure, with the slot whose
    edge discovered each vertex.  Narrowing slot k to its first target
    removes only slot k's other edges; when via discovered no vertex
    through one of them, its spanning tree survives, and the child reaches
    every vertex too.  Only a backtrack or a cut tree forces a walk.
    """
    slots_of: list[list[int]] = [[] for _ in range(size)]
    offers: list[list[int]] = [[] for _ in range(size)]  # t -> other vertices' slots offering t
    for k, (v, targets) in enumerate(slots):
        slots_of[v].append(k)
        for t in targets:
            if t != v:
                offers[t].append(k)
    owner = [-1] * size  # owner[t]: the slot matched to vertex t
    match = [-1] * len(slots)  # match[k]: the vertex matched to slot k
    picks: list[int] = []  # picks[k]: index of the target chosen for slots[k]

    def augment(u: int) -> bool:
        """Match u along a shortest alternating path; False, changing nothing, if none."""
        reached_from = {}  # slot -> the vertex whose search reached it
        queue = [u]
        for x in queue:
            for s in offers[x]:
                if s in reached_from or s < len(picks) and slots[s][1][picks[s]] != x:
                    continue
                reached_from[s] = x
                if match[s] < 0:
                    while s >= 0:
                        x = reached_from[s]
                        match[s], owner[x], s = x, s, owner[x]
                    return True
                queue.append(match[s])
        return False

    alive = all(augment(t) for t in range(size) if t != root)
    via = None
    while True:
        if alive and via is None:
            reach = _walk(root, slots_of, slots, picks)
            if len(reach) == size:
                via = reach
        if via is not None:
            k = len(picks)
            if k == len(slots):
                return picks
            picks.append(0)
            if any(via[t] == k for t in slots[k][1][1:]):
                via = None
        else:
            # Backtrack to the deepest slot with an untried target.
            while picks and picks[-1] + 1 == len(slots[len(picks) - 1][1]):
                picks.pop()
            if not picks:
                return None
            picks[-1] += 1
        # Slot k now offers only its new pick: move its vertex, or prune.
        k = len(picks) - 1
        u, alive = match[k], True
        if u >= 0 and u != slots[k][1][picks[k]]:
            match[k] = owner[u] = -1
            if not augment(u):
                match[k], owner[u], alive, via = u, k, False, None


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
    return _realize(states, _checked_choice(aut, codes, _expand(aut, codes), subgraph))
