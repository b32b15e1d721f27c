"""Attractors and stabilization.

A state set is an attractor of a transition graph when it is closed under
the dynamics, every other vertex connects into it, and no cycle survives
outside it.  The smallest attractor is exactly the forward closure of the
cycle vertices together with the dead vertices, so stability of a legal set
reduces to a subset test.  Stabilizability asks for a controller whose
closed loop has an attractor inside the legal set; witnesses pair a
controllable invariant subset of the legal states with a controllable set
that funnels into it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .automaton import (
    MaxMinAutomaton,
    StateFeedbackController,
    TransitionGraph,
    accessible_part,
    closed_loop_graph,
    closed_loop_step,
)
from .errors import InfeasibleControl, PreconditionError
from .graph import closure, cycle_vertices
from .possibility import (
    ZERO,
    State,
    format_state,
    maxmin_compose,
    scale_product,
    state_is_zero,
)
from .statecontrol import (
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
        name = _escaping_event(aut, q, index)
        if name is not None:
            return InvariantVerdict(False, (q, name))
    return InvariantVerdict(True)


def largest_controllable_invariant(
    aut: MaxMinAutomaton, N: Sequence[State]
) -> tuple[State, ...]:
    """Greatest fixpoint: drop states whose invariance condition fails
    against the survivors until none do.  Unique because controllable
    invariant sets are closed under union."""
    survivors = list(validated_state_set(aut, N))
    while True:
        index = ScalingIndex(survivors)
        escaping = next(
            (q for q in survivors if _escaping_event(aut, q, index) is not None), None
        )
        if escaping is None:
            return tuple(survivors)
        survivors.remove(escaping)


def _escaping_event(aut: MaxMinAutomaton, q: State, index: ScalingIndex) -> Optional[str]:
    """The first forced event at q (feasible, partially uncontrollable) that
    no admissible scaling keeps inside the indexed set, or None when q is
    invariant."""
    for ev, composed in forced_events(aut, q):
        if not index.targets(composed, ev.uc_degree):
            return ev.name
    return None


@dataclass(frozen=True)
class StabilizabilityWitness:
    """A candidate stabilization certificate: an invariant target set inside
    the legal states, a controllable funnel set, and (once synthesized) a
    controller whose closed loop has the target as an attractor."""

    n_prime: tuple[State, ...]
    p_set: tuple[State, ...]
    controller: Optional[StateFeedbackController] = None


def _funnel_controller(
    aut: MaxMinAutomaton, p_set: Sequence[State]
) -> Optional[StateFeedbackController]:
    if not p_set:
        return None
    verdict = check_controllable(aut, p_set)
    if not verdict.controllable:
        return None
    return synthesize_controller(aut, p_set, verdict.subgraph)


def verify_stabilizability_witness(
    aut: MaxMinAutomaton, N: Sequence[State], w: StabilizabilityWitness
) -> bool:
    """Check a witness (controller not required): the target set is
    controllable invariant, the funnel set is controllable, and under the
    synthesized funnel controller the funnel connects into the target with
    no cycle outside it."""
    legal = set(validated_state_set(aut, N))
    if not set(w.n_prime) <= legal:
        raise PreconditionError(
            "target set is not contained in the legal set",
            counterexample=tuple(q for q in w.n_prime if q not in legal),
        )
    if not check_controllable_invariant(aut, w.n_prime).ok:
        return False
    f_prime = _funnel_controller(aut, w.p_set)
    if f_prime is None:
        return False
    connected, acyclic = _funnels_into(closed_loop_graph(aut, f_prime), set(w.n_prime))
    return connected and acyclic


def synthesize_stabilizing_controller(
    aut: MaxMinAutomaton, N: Sequence[State], w: StabilizabilityWitness
) -> StateFeedbackController:
    """Redirect the funnel controller at the target set: transitions that
    would leave the target for the rest of the funnel are disabled when fully
    controllable, or re-scaled to the least admissible value landing back in
    the target otherwise; everything else keeps the funnel controller."""
    if not verify_stabilizability_witness(aut, N, w):
        raise PreconditionError("witness failed verification")
    f_prime = _funnel_controller(aut, w.p_set)
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


def search_stabilizing_witness(
    aut: MaxMinAutomaton, N: Sequence[State], budget: int = 5000
) -> Optional[StabilizabilityWitness]:
    """Bounded witness search.

    Target candidates are subsets of the largest controllable invariant
    subset of the legal set (every feasible target lies inside it); funnel
    candidates come from the grid universe of scaled reachable states.  A
    quick attempt with the full invariant and the open-loop reachable set is
    made first, then subsets are enumerated exhaustively until the budget
    runs out.  Absent means inconclusive beyond the grid, not a proof of
    unstabilizability.
    """
    largest = largest_controllable_invariant(aut, N)
    if not largest:
        return None
    universe = candidate_universe(aut, N)
    reachable = accessible_part(aut).vertices

    rest_universe = tuple(q for q in universe if q != aut.initial)

    def candidates():
        quick_p = list(reachable) + [q for q in largest if q not in set(reachable)]
        yield largest, tuple(quick_p)
        for n_size in range(len(largest), 0, -1):
            for n_prime in combinations(largest, n_size):
                for p_size in range(len(rest_universe) + 1):
                    for extra in combinations(rest_universe, p_size):
                        yield n_prime, (aut.initial,) + extra

    tried: set[tuple[frozenset, frozenset]] = set()
    remaining = budget
    for n_prime, p_set in candidates():
        key = (frozenset(n_prime), frozenset(p_set))
        if key in tried:
            continue
        tried.add(key)
        if remaining <= 0:
            return None
        remaining -= 1
        witness = StabilizabilityWitness(tuple(n_prime), tuple(p_set))
        if verify_stabilizability_witness(aut, N, witness):
            controller = synthesize_stabilizing_controller(aut, N, witness)
            return replace(witness, controller=controller)
    return None
