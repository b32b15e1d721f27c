"""Attractors and stabilization.

A state set is an attractor of a transition graph when it is closed under
the dynamics, every other vertex connects into it, and no cycle survives
outside it.  The smallest attractor is exactly the forward closure of the
cycle vertices together with the dead vertices, so stability of a legal set
reduces to a subset test.  Stabilizability asks for a controller whose
closed loop has an attractor inside the legal set; witnesses pair a
controllable invariant subset of the legal states with a controllable set
that funnels into it, and are found by a controllable-attractor fixpoint
over a finite grid of scaled states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

from .automaton import (
    MaxMinAutomaton,
    StateFeedbackController,
    TransitionGraph,
    accessible_part,
    closed_loop_graph,
    closed_loop_step,
)
from .errors import InfeasibleControl, PreconditionError, ValidationError, WitnessRejected
from .graph import bfs, closure, cycle_vertices
from .possibility import (
    ZERO,
    State,
    format_state,
    maxmin_compose,
    scale_product,
    state_is_zero,
)
from .statecontrol import (
    ControllableSubgraph,
    ScalingIndex,
    check_controllable,
    forced_events,
    synthesize_controller,
    validated_state_set,
)


def find_cycles(g: TransitionGraph) -> set[State]:
    """Vertices lying on some directed cycle (including self-loops)."""
    return cycle_vertices(g.vertices, lambda q: (dst for _, dst in g.out_edges[q]))


@dataclass(frozen=True)
class AttractorReport:
    """The three attractor conditions, their conjunction, and any queried
    states that are not vertices of the graph (reported, not errors)."""

    closed: bool
    connected: bool
    acyclic_outside: bool
    verdict: bool
    absent: tuple[State, ...] = ()


def check_attractor(g: TransitionGraph, N: Iterable[State]) -> AttractorReport:
    """Is N an attractor of the graph?  Closed: every transition out of N
    stays in N.  Connected: every vertex outside N has a path into N.
    Acyclic outside: the induced subgraph off N has no cycle."""
    n_set = set(N)
    absent = tuple(q for q in n_set if q not in g.vertex_set)
    closed = all(dst in n_set for q in g.vertices if q in n_set for _, dst in g.out_edges[q])
    connected, acyclic = _funnels_into(g, n_set)
    return AttractorReport(closed, connected, acyclic, closed and connected and acyclic, absent)


def _funnels_into(g: TransitionGraph, n_set: set[State]) -> tuple[bool, bool]:
    """(connected, acyclic outside) of the attractor conditions for n_set:
    every vertex off n_set has a path into it, and the subgraph induced off
    n_set has no cycle."""
    into_n = closure(
        (q for q in g.vertices if q in n_set), lambda q: (src for src, _ in g.in_edges[q])
    )
    outside = [q for q in g.vertices if q not in n_set]
    connected = all(q in into_n for q in outside)
    acyclic = not cycle_vertices(
        outside, lambda q: (dst for _, dst in g.out_edges[q] if dst not in n_set)
    )
    return connected, acyclic


def infimal_attractor(g: TransitionGraph) -> set[State]:
    """The smallest attractor: everything reachable from a cycle vertex,
    together with the dead vertices (no outgoing transition)."""
    cycles = find_cycles(g)
    dead = {q for q in g.vertices if not g.out_edges[q]}
    return closure(cycles, lambda q: (dst for _, dst in g.out_edges[q])) | dead


def is_stable(g: TransitionGraph, N: Iterable[State]) -> bool:
    """Stable iff the legal set contains the smallest attractor."""
    return infimal_attractor(g) <= set(N)


@dataclass(frozen=True)
class InvariantVerdict:
    ok: bool
    violation: Optional[tuple[State, str]] = None


def check_controllable_invariant(
    aut: MaxMinAutomaton, N: Sequence[State]
) -> InvariantVerdict:
    """N is controllable invariant when every feasible, partially
    uncontrollable event at a member admits a scaling back into N."""
    states = validated_state_set(aut, N)
    index = ScalingIndex(states)
    for q in states:
        for ev, composed in forced_events(aut, q):
            if not index.targets(composed, ev.uc_degree):
                return InvariantVerdict(False, (q, ev.name))
    return InvariantVerdict(True)


def largest_controllable_invariant(
    aut: MaxMinAutomaton, N: Sequence[State]
) -> tuple[State, ...]:
    """Greatest fixpoint: drop states whose invariance condition fails
    against the survivors until none do.  Unique because controllable
    invariant sets are closed under union.

    A worklist over one scaling index: every forced event at a member keeps
    a count of its targets still in the set, and removing a state lowers the
    counts of the forced events that could land on it, so only those
    members are looked at again.  Survivors keep their order in N.
    """
    states = validated_state_set(aut, N)
    index = ScalingIndex(states)
    alive = [True] * len(states)
    owner: list[int] = []  # owner[k]: the member whose forced event is slot k
    live: list[int] = []  # live[k]: targets of slot k still in the set
    landing: list[list[int]] = [[] for _ in states]  # t -> slots with target t
    doomed: list[int] = []
    for v, q in enumerate(states):
        for ev, composed in forced_events(aut, q):
            targets = index.targets(composed, ev.uc_degree)
            if not targets:
                doomed.append(v)
            for t, _ in targets:
                landing[t].append(len(owner))
            owner.append(v)
            live.append(len(targets))
    while doomed:
        v = doomed.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for k in landing[v]:
            live[k] -= 1
            if not live[k]:
                doomed.append(owner[k])
    return tuple(q for q, keep in zip(states, alive) if keep)


@dataclass(frozen=True)
class StabilizabilityWitness:
    """A candidate stabilization certificate: an invariant target set inside
    the legal states, a controllable funnel set, and (once synthesized) a
    controller whose closed loop has the target as an attractor.  A witness
    may carry the funnel's chosen edges as subgraph; verification then
    checks that subgraph instead of searching the funnel for one."""

    n_prime: tuple[State, ...]
    p_set: tuple[State, ...]
    controller: Optional[StateFeedbackController] = None
    subgraph: Optional[ControllableSubgraph] = None


def _funnel_controller(
    aut: MaxMinAutomaton, w: StabilizabilityWitness
) -> Optional[StateFeedbackController]:
    """The controller realizing the funnel set through the witness's own
    subgraph, or through the one check_controllable finds when it carries
    none; None when that subgraph is invalid or the funnel not controllable."""
    if not w.p_set:
        return None
    if w.subgraph is not None:
        try:
            # synthesize_controller checks the subgraph with validate_subgraph.
            return synthesize_controller(aut, w.p_set, w.subgraph)
        except ValidationError:
            return None
    verdict = check_controllable(aut, w.p_set)
    if not verdict.controllable:
        return None
    return synthesize_controller(aut, w.p_set, verdict.subgraph)


def _verified_funnel(
    aut: MaxMinAutomaton, N: Sequence[State], w: StabilizabilityWitness
) -> Optional[StateFeedbackController]:
    """The funnel controller of a witness that verifies, else None."""
    legal = set(validated_state_set(aut, N))
    if not set(w.n_prime) <= legal:
        raise PreconditionError(
            "target set is not contained in the legal set",
            counterexample=tuple(q for q in w.n_prime if q not in legal),
        )
    if not check_controllable_invariant(aut, w.n_prime).ok:
        return None
    f_prime = _funnel_controller(aut, w)
    if f_prime is None:
        return None
    connected, acyclic = _funnels_into(closed_loop_graph(aut, f_prime), set(w.n_prime))
    return f_prime if connected and acyclic else None


def verify_stabilizability_witness(
    aut: MaxMinAutomaton, N: Sequence[State], w: StabilizabilityWitness
) -> bool:
    """Check a witness (controller not required): the target set is
    controllable invariant, the funnel set is controllable (through the
    witness's subgraph when it has one), and under the synthesized funnel
    controller the funnel connects into the target with no cycle outside
    it."""
    return _verified_funnel(aut, N, w) is not None


def synthesize_stabilizing_controller(
    aut: MaxMinAutomaton, N: Sequence[State], w: StabilizabilityWitness
) -> StateFeedbackController:
    """Redirect the funnel controller at the target set: transitions that
    would leave the target for the rest of the funnel are disabled when fully
    controllable, or re-scaled to the least admissible value landing back in
    the target otherwise; everything else keeps the funnel controller.
    Raises WitnessRejected when the witness fails verification."""
    f_prime = _verified_funnel(aut, N, w)
    if f_prime is None:
        raise WitnessRejected("witness failed verification")
    p_minus_n = set(w.p_set) - set(w.n_prime)
    n_index = ScalingIndex(w.n_prime)
    entries = dict(f_prime.entries)
    for q in w.n_prime:
        for ev in aut.events:
            target = closed_loop_step(aut, f_prime, q, ev.name)
            if target is None or target not in p_minus_n:
                continue
            if ev.uc_degree == ZERO:
                entries[(q, ev.name)] = ZERO
                continue
            admissible = [
                alphas.least()
                for _, alphas in n_index.targets(maxmin_compose(q, ev), ev.uc_degree)
            ]
            if not admissible:
                raise InfeasibleControl(
                    f"no admissible redirection for event {ev.name!r} at "
                    f"{format_state(q)}"
                )
            entries[(q, ev.name)] = min(admissible)
    return StateFeedbackController(entries, f_prime.default)


def candidate_universe(
    aut: MaxMinAutomaton, N: Sequence[State]
) -> tuple[State, ...]:
    """All scalings of open-loop reachable states by grid values (automaton
    values plus components of the legal states), nonzero, deduplicated."""
    grid = set(aut.value_grid())
    for q in N:
        grid.update(q)
    out: list[State] = []
    seen: set[State] = set()
    for q in accessible_part(aut).vertices:
        for alpha in sorted(grid):
            scaled = scale_product(alpha, q)
            if state_is_zero(scaled) or scaled in seen:
                continue
            seen.add(scaled)
            out.append(scaled)
    return tuple(out)


def grid_universe(
    aut: MaxMinAutomaton, N: Sequence[State], invariant: Sequence[State]
) -> tuple[State, ...]:
    """The universe U that search_stabilizing_witness ranks:
    candidate_universe(aut, N) followed by the members of invariant (the
    largest controllable invariant subset of N) that it lacks."""
    universe = candidate_universe(aut, N)
    in_universe = set(universe)
    return universe + tuple(q for q in invariant if q not in in_universe)


def search_stabilizing_witness(
    aut: MaxMinAutomaton, N: Sequence[State]
) -> Optional[StabilizabilityWitness]:
    """Decide stabilizability over the grid universe U = grid_universe(aut,
    N, N*), N* the largest controllable invariant subset of N, with a
    controllable attractor (Özveren, Willsky & Antsaklis, J. ACM 38(3), 1991).

    N* has rank 0; another state of U gets rank r + 1 once every forced event
    at it, or with none forced some event, has an admissible target of rank
    at most r.  A counter worklist over one scaling index of U hands out the
    ranks in order until the initial state has one.  The witness follows
    the rank-decreasing choice: a forced event takes its lowest-rank target
    (lowest position in U on ties), a state with no forced event enables
    only the first event with a lower-rank target (none at rank 0), and the
    rest are disabled.  Its funnel set is the closure of the initial state
    under that choice in discovery order, its target set the funnel's
    members of N*, and the choice travels as its subgraph.

    None means no witness has its funnel inside U (the chosen edges of a
    funnel that verifies would rank all of it); whether a scaling off the
    grid can ever be needed is unproven.
    """
    invariant = largest_controllable_invariant(aut, N)
    if not invariant:
        return None
    states = grid_universe(aut, N, invariant)
    ids = {q: v for v, q in enumerate(states)}
    root = ids.get(aut.initial)
    if root is None:
        return None
    index = ScalingIndex(states)
    slots = [_strategy_slots(aut, index, q) for q in states]
    rank: list[Optional[int]] = [None] * len(states)
    for q in invariant:
        rank[ids[q]] = 0
    # watchers[t]: (v, k) for every slot k of v holding target t; pending[v]
    # the slots of v still lacking a ranked target.
    watchers: list[list[tuple[int, int]]] = [[] for _ in states]
    for v, (_, event_slots) in enumerate(slots):
        for k, (_, targets) in enumerate(event_slots):
            for t in targets:
                watchers[t].append((v, k))
    pending = [set(range(len(event_slots))) for _, event_slots in slots]
    queue = deque(ids[q] for q in invariant)
    while queue and rank[root] is None:
        t = queue.popleft()
        for v, k in watchers[t]:
            if rank[v] is not None or k not in pending[v]:
                continue
            pending[v].discard(k)
            if not slots[v][0] or not pending[v]:
                rank[v] = rank[t] + 1
                queue.append(v)
    if rank[root] is None:
        return None

    def chosen(v: int) -> list[tuple[str, int]]:
        forced, event_slots = slots[v]
        best = []  # (event, (rank, position) of its lowest-rank target)
        for name, targets in event_slots:
            ranked = [(rank[t], t) for t in targets if rank[t] is not None]
            if ranked:
                best.append((name, min(ranked)))
        if forced:
            return [(name, t) for name, (_, t) in best]
        return [(name, t) for name, (r, t) in best if r < rank[v]][:1]

    picks: dict[int, list[tuple[str, int]]] = {}
    funnel = bfs(root, lambda v: picks.setdefault(v, chosen(v))).dist
    witness = StabilizabilityWitness(
        tuple(q for q in invariant if ids[q] in funnel),
        tuple(states[v] for v in funnel),
        subgraph=ControllableSubgraph(
            {(states[v], name): states[t] for v in funnel for name, t in picks[v]}
        ),
    )
    return replace(witness, controller=synthesize_stabilizing_controller(aut, N, witness))


def _strategy_slots(
    aut: MaxMinAutomaton, index: ScalingIndex, q: State
) -> tuple[bool, list[tuple[str, list[int]]]]:
    """Whether some event is forced at q, and the target positions in the
    index of the events a strategy fills there: the forced ones, or every
    event when none is forced."""
    forced = list(forced_events(aut, q))
    pairs = forced or [(ev, maxmin_compose(q, ev)) for ev in aut.events]
    return bool(forced), [
        (ev.name, [t for t, _ in index.targets(c, ev.uc_degree)]) for ev, c in pairs
    ]
