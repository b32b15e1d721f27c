"""Attractors and stabilization.

A state set is an attractor of a transition graph when it is closed under
the dynamics, every other vertex connects into it, and no cycle survives
outside it.  The smallest attractor is exactly the forward closure of the
cycle vertices together with the dead vertices, so stability of a legal set
N reduces to the subset test infimal_attractor(g) <= set(N).
Stabilizability asks for a controller whose closed loop has an attractor
inside the legal set; witnesses pair a controllable invariant subset of the
legal states with a controllable set that funnels into it, and are found by
a controllable-attractor fixpoint over the grid scalings of the open-loop
reachable states.

The moves within a state set come from _moves, which owns them: the
invariance checks, the witness verifier and the witness search read its
_expand, and the verifier checks and realizes a funnel choice through its
_checked_choice and _realize.  statecontrol owns the decision; the
verifier calls its _decide only for a supplied witness without a subgraph,
so a search runs no statecontrol code.

Every fixpoint here is one call of graph.attractor, the counter worklist:
the invariant subset and its attractor over int-coded states, and the
peelings that find the smallest attractor (from the sources) and test
"acyclic outside N" (from the sinks, N taken first).  Transition graphs
are walked by vertex position, through their link lists.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from . import _moves, statecontrol
from ._record import Record
from .automaton import (
    MaxMinAutomaton,
    StateFeedbackController,
    TransitionGraph,
    _coded,
    _explore,
    _validated_codes,
)
from .errors import PreconditionError, ValidationError, WitnessRejected
from .graph import attractor, bfs, closure
from .possibility import (
    Code,
    State,
    decode_state,
    decode_value,
    encode_state,
    encode_value,
    scale_product,
)


class AttractorReport(Record):
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
    closed, connected, acyclic = _conditions(g, n_set)
    vertices = set(g.vertices)
    absent = tuple(q for q in n_set if q not in vertices)
    return AttractorReport(closed, connected, acyclic, closed and connected and acyclic, absent)


def _conditions(g: TransitionGraph, n_set: set[State]) -> tuple[bool, bool, bool]:
    """(closed, connected, acyclic outside) of the attractor conditions for
    the vertices in n_set, walked by position."""
    out, into = g._links
    inside = [q in n_set for q in g.vertices]
    taken = [v for v, x in enumerate(inside) if x]
    closed = all(inside[t] for v in taken for _, t in out[v])
    connected = len(closure(taken, lambda t: (v for _, v in into[t]))) == len(inside)
    return closed, connected, not any(_peel(out, taken))


def _peel(links: Sequence[Sequence[tuple[str, int]]], taken: Sequence[int]) -> list[bool]:
    """Per position, whether peeling never takes it: the taken positions and
    those without links go first, and a position goes once every position
    its links lead to has gone."""
    slots = [[[w for _, w in ends]] for ends in links]
    seeds = [*taken, *(v for v, ends in enumerate(links) if not ends)]
    return [r is None for r in attractor(slots, len, [1] * len(slots), seeds)]


def infimal_attractor(g: TransitionGraph) -> set[State]:
    """The smallest attractor: everything reachable from a cycle vertex,
    together with the dead vertices (no outgoing transition).  Peeling the
    graph from its sources, a vertex once all its predecessors are taken,
    leaves exactly the vertices some cycle reaches."""
    out, into = g._links
    return {q for q, left, ends in zip(g.vertices, _peel(into, ()), out) if left or not ends}


def largest_controllable_invariant(
    aut: MaxMinAutomaton, N: Sequence[State]
) -> tuple[State, ...]:
    """N is controllable invariant when every feasible, partially
    uncontrollable event at a member admits a scaling back into N, so
    exactly when this returns tuple(N).

    Greatest fixpoint: drop states whose invariance condition fails
    against the survivors until none do.  Unique because controllable
    invariant sets are closed under union.

    The dropped states are an attractor over one expansion of N
    (_moves._expand): a member leaves once one of its forced events,
    those with a floor, has lost every target.  Survivors keep their order
    in N.
    """
    states = tuple(N)
    slots = [
        [[t for t, _ in moves] for ev, _, moves in row if ev.coded_uc]
        for row in _moves._expand(aut, _validated_codes(aut, states))
    ]
    seeds = [v for v, targets in enumerate(slots) if not all(targets)]
    gone = attractor(slots, len, [1] * len(slots), seeds)
    return tuple(q for q, r in zip(states, gone) if r is None)


class StabilizabilityWitness(Record):
    """A candidate stabilization certificate: an invariant target set inside
    the legal states, a controllable funnel set, and (once synthesized) a
    controller whose closed loop has the target as an attractor.  A witness
    may carry the funnel's chosen edges as subgraph; verification then
    checks that subgraph instead of searching the funnel for one."""

    n_prime: tuple[State, ...]
    p_set: tuple[State, ...]
    controller: Optional[StateFeedbackController] = None
    subgraph: Optional[_moves.ControllableSubgraph] = None


def _stabilizing(
    aut: MaxMinAutomaton, N: Sequence[State], w: StabilizabilityWitness
) -> Optional[StateFeedbackController]:
    """The redirected funnel controller of a witness that verifies, else
    None.  N, N', P and a supplied controller are validated once each, and
    N' is checked to lie in N, before _redirected runs on their codes."""
    legal = set(_validated_codes(aut, tuple(N)))
    n_prime = _validated_codes(aut, w.n_prime)
    p_set = _validated_codes(aut, w.p_set)
    if w.controller is not None:
        w.controller.validate(aut)
    if not legal.issuperset(n_prime):
        raise PreconditionError(
            "target set is not contained in the legal set",
            counterexample=tuple(q for q, code in zip(w.n_prime, n_prime) if code not in legal),
        )
    return _redirected(aut, w, n_prime, p_set)


def _redirected(
    aut: MaxMinAutomaton, w: StabilizabilityWitness, n_prime: tuple[Code, ...], p_set: tuple[Code, ...]
) -> Optional[StateFeedbackController]:
    """_stabilizing on the codes of a well-formed witness's N' and P:
    realized through the witness's subgraph or the one the decision
    (statecontrol._decide) finds.  N' is expanded once, for invariance and
    redirection, and P once, for the decision and the choice check."""
    moves = _moves._expand(aut, n_prime)
    if any(ev.coded_uc and not targets for row in moves for ev, _, targets in row) or not p_set:
        return None  # N' is not controllable invariant, or there is no funnel
    funnel = _moves._expand(aut, p_set)
    subgraph = w.subgraph or statecontrol._decide(aut, w.p_set, p_set, funnel).subgraph
    if subgraph is None:  # the funnel set is not controllable
        return None
    try:  # the subgraph against C1, C2 and reachability
        alphas = _moves._checked_choice(aut, p_set, funnel, subgraph)
    except ValidationError:
        return None
    f_prime = _moves._realize(w.p_set, alphas)
    chosen = TransitionGraph(aut.initial, w.p_set, subgraph.edges())
    if not all(_conditions(chosen, set(w.n_prime))[1:]):  # connected, acyclic outside
        return None
    coded = _coded(f_prime)
    p_minus_n = set(p_set).difference(n_prime)
    entries = dict(f_prime.entries)
    for q, code, row in zip(w.n_prime, n_prime, moves):
        for ev, p, targets in row:
            if scale_product(coded(code, ev.name), p) in p_minus_n:  # disabled unless forced
                least = min((a.least() for _, a in targets), default=0) if ev.coded_uc else 0
                entries[(q, ev.name)] = decode_value(least)
    return StateFeedbackController(entries, f_prime.default)


def verify_stabilizability_witness(
    aut: MaxMinAutomaton, N: Sequence[State], w: StabilizabilityWitness
) -> bool:
    """Check a witness (controller not required): the target set is
    controllable invariant, the funnel set is controllable (through the
    witness's subgraph when it has one), and the chosen edges, which are the
    synthesized funnel controller's closed loop over the whole funnel set,
    connect it into the target with no cycle outside it.  Raises
    ValidationError when N, the target or the funnel set is malformed, and
    StateFeedbackController.validate's error for a malformed w.controller."""
    return _stabilizing(aut, N, w) is not None


def synthesize_stabilizing_controller(
    aut: MaxMinAutomaton, N: Sequence[State], w: StabilizabilityWitness
) -> StateFeedbackController:
    """Redirect the funnel controller at the target set: transitions that
    would leave the target for the rest of the funnel are disabled when fully
    controllable, or re-scaled to the least admissible value landing back in
    the target otherwise; everything else keeps the funnel controller.
    Raises ValidationError when N, the target or the funnel set is malformed,
    StateFeedbackController.validate's error for a malformed w.controller,
    and WitnessRejected when the witness fails verification."""
    controller = _stabilizing(aut, N, w)
    if controller is None:
        raise WitnessRejected("witness failed verification")
    return controller


def candidate_universe(
    aut: MaxMinAutomaton, N: Sequence[State]
) -> tuple[State, ...]:
    """All scalings of open-loop reachable states by grid values (automaton
    values plus components of the legal states), nonzero, deduplicated.
    Raises ValidationError when N is malformed."""
    return tuple(map(decode_state, _universe(aut, _validated_codes(aut, tuple(N)))))


def _universe(aut: MaxMinAutomaton, legal: Iterable[Code]) -> tuple[Code, ...]:
    """candidate_universe over codes."""
    grid = set(map(encode_value, aut.value_grid()))
    for q in legal:
        grid.update(q)
    grid = sorted(grid)
    out: dict[Code, None] = {}
    for q in _explore(aut).vertices:
        for alpha in grid:
            scaled = scale_product(alpha, q)
            if any(scaled):
                out.setdefault(scaled)
    return tuple(out)


def search_stabilizing_witness(
    aut: MaxMinAutomaton, N: Sequence[State]
) -> Optional[StabilizabilityWitness]:
    """Decide stabilizability with a controllable attractor (Özveren, Willsky
    & Antsaklis, J. ACM 38(3), 1991) of N*, the largest controllable invariant
    subset of N, over the grid universe U = candidate_universe(aut, N).

    The members of N* in U have rank 0; another state of U gets rank r + 1
    once every forced event at it, or with none forced some event, has an
    admissible target of rank at most r, until the initial state has a rank.
    The witness follows the rank-decreasing choice: a forced event takes its
    lowest-rank target (lowest position in U on ties), a state with no
    forced event enables only the first event with a lower-rank target (none
    at rank 0), and the rest are disabled.  Its funnel set is the closure of
    the initial state under that choice in discovery order, its target set
    the funnel's members of N*, and the choice travels as its subgraph.

    Members of N* outside U are never targets from U, so U loses nothing.
    Take q = min(alpha, v) in U, v accessible and alpha in the grid G; then
    q.a = min(alpha, v.a), as composition commutes with scaling.  A legal p
    that some scaling of q.a lands on is p = min(max(p), q.a) = min(min(max(p),
    alpha), v.a) with max(p) in G, which holds every legal component, so p is
    in U.  The initial state is in U as its own scaling by 1.

    None means no witness has its funnel inside U (the chosen edges of a
    funnel that verifies would rank all of it); whether a scaling off the
    grid can ever be needed is unproven.
    """
    invariant = largest_controllable_invariant(aut, N)
    if not invariant:
        return None
    kept = list(map(encode_state, invariant))
    states = _universe(aut, map(encode_state, N))
    ids = {q: v for v, q in enumerate(states)}
    root = ids[aut.coded_initial]
    expansion = _moves._expand(aut, states)
    forced = [[move for move in row if move[0].coded_uc] for row in expansion]
    # A strategy fills the forced events at a state, or every event when none is.
    events = [f or row for f, row in zip(forced, expansion)]
    slots = [[[t for t, _ in moves] for _, _, moves in row] for row in events]
    wanted = [len(targets) if f else 1 for f, targets in zip(forced, slots)]
    rank = attractor(slots, lambda targets: 1, wanted, [ids[q] for q in kept if q in ids], root)
    if rank[root] is None:
        return None

    def chosen(v: int) -> list[tuple[str, int]]:
        best = []  # (event, (rank, position) of its lowest-rank target)
        for (ev, _, _), targets in zip(events[v], slots[v]):
            ranked = [(rank[t], t) for t in targets if rank[t] is not None]
            if ranked:
                best.append((ev.name, min(ranked)))
        if forced[v]:
            return [(name, t) for name, (_, t) in best]
        return [(name, t) for name, (r, t) in best if r < rank[v]][:1]

    picks: dict[int, list[tuple[str, int]]] = {}
    funnel = {v: decode_state(states[v]) for v in bfs(root, lambda v: picks.setdefault(v, chosen(v))).dist}
    target = [(q, code) for q, code in zip(invariant, kept) if ids.get(code) in funnel]
    witness = StabilizabilityWitness(
        tuple(q for q, _ in target),
        tuple(funnel.values()),
        subgraph=_moves.ControllableSubgraph(
            {(funnel[v], name): funnel[t] for v in funnel for name, t in picks[v]}
        ),
    )
    # N' holds members of N*, itself validated and inside N, and P distinct
    # nonzero scalings from U: well formed, so the verifier's core takes
    # their codes as they are.
    n_prime, p_set = tuple(code for _, code in target), tuple(states[v] for v in funnel)
    controller = _redirected(aut, witness, n_prime, p_set)
    if controller is None:
        raise WitnessRejected("witness failed verification")
    return StabilizabilityWitness(witness.n_prime, witness.p_set, controller, witness.subgraph)
