"""Which fuzzy states can feedback control reach?

Scaling a reachable open-loop state q by any alpha between its scaling floor
and 1 yields a state some controller can reach; the union of these scaled
families over the accessible vertices is exactly the controlled-reachability
family.  The floor of q is the least uncontrollability degree among events
occurring on some root path to q (1 when no event is forced below 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .automaton import (
    EventString,
    MaxMinAutomaton,
    StateFeedbackController,
    TransitionGraph,
    accessible_part,
)
from .errors import DimensionMismatch, DomainError
from .graph import Search, bfs, closure
from .possibility import (
    ONE,
    Fraction,
    State,
    solve_scale,
    state_is_zero,
)


def _floors(graph: TransitionGraph, uc: Mapping[str, Fraction]) -> dict[State, Fraction]:
    """The floor of every vertex some edge leads into, in one pass; a vertex
    no edge leads into has floor 1.

    Every vertex is root-reachable by construction, so an event qualifies for
    q exactly when one of its edges has a target from which q is reachable.
    Visiting edges in ascending degree, the first edge whose target's forward
    closure reaches q gives q its floor; a vertex reached earlier already has
    its descendants, so each closure stops there.
    """
    floors: dict[State, Fraction] = {}

    def unreached(q: State):
        return (dst for _, dst in graph.out_edges[q] if dst not in floors)

    for _, name, dst in sorted(graph.edges, key=lambda edge: uc[edge[1]]):
        if dst not in floors:
            for q in closure([dst], unreached):
                floors[q] = uc[name]
    return floors


def scaling_floor(graph: TransitionGraph, uc: Mapping[str, Fraction], q: State) -> Fraction:
    """Least uncontrollability degree over events labeling an edge on some
    root-to-q walk; 1 when there is none (the empty minimum convention)."""
    if q not in graph.vertex_set:
        raise DomainError(f"state is not an accessible vertex")
    return _floors(graph, uc).get(q, ONE)


@dataclass(frozen=True)
class ReachFamily:
    """Symbolic form of the controlled-reachability family: one (base state,
    floor) entry per accessible vertex, representing {alpha . base :
    floor <= alpha <= 1}."""

    aut: MaxMinAutomaton
    graph: TransitionGraph
    entries: tuple[tuple[State, Fraction], ...]

    def floor_of(self, base: State) -> Fraction:
        for b, floor in self.entries:
            if b == base:
                return floor
        raise DomainError("state is not an accessible vertex")


def reach_family(aut: MaxMinAutomaton) -> ReachFamily:
    """Compute the family for every accessible vertex, in discovery order."""
    graph = accessible_part(aut)
    floors = _floors(graph, aut.uc_map())
    entries = tuple((q, floors.get(q, ONE)) for q in graph.vertices)
    return ReachFamily(aut, graph, entries)


@dataclass(frozen=True)
class ReachWitness:
    """Evidence that a state is controller-reachable: the accessible base it
    scales from, the scaling alpha, a path string, and a single-override
    controller whose closed-loop run over the path ends at the target."""

    base: State
    alpha: Fraction
    path_string: EventString
    controller: StateFeedbackController


def family_contains(fam: ReachFamily, target: State) -> Optional[ReachWitness]:
    """Membership query with witness extraction.

    Entries are scanned in accessible-BFS order.  The target is a member via
    entry (base, floor) when some alpha in [floor, 1] scales base onto it.
    When target == base the trivial alpha = 1 witness (all-enabling
    controller, shortest path) is returned; otherwise the unique forced alpha
    is installed as a single controller override on an event whose
    uncontrollability achieves the floor, placed on a shortest root path to
    base through that event.
    """
    if len(target) != fam.aut.n:
        raise DimensionMismatch(
            f"target has {len(target)} components, expected {fam.aut.n}"
        )
    if state_is_zero(target):
        raise DomainError("the all-zero vector is excluded from the state set")
    for base, floor in fam.entries:
        if target == base:
            # alpha = 1 is admissible under every floor: no override at all.
            path = _forward(fam.graph, fam.graph.root).path(base)
            return ReachWitness(base, ONE, path, StateFeedbackController())
        alpha = solve_scale(base, target).restrict(floor).least()
        if alpha is None:
            continue
        witness = _override_witness(fam, base, alpha)
        if witness is not None:
            return witness
    return None


def _override_witness(fam: ReachFamily, base: State, alpha: Fraction) -> Optional[ReachWitness]:
    """Build the single-override controller reaching alpha . base.

    Chooses an event achieving the floor of base among events on root paths,
    preferring the shortest through-path and then alphabet order, and
    overrides the controller at the through-edge's source.  Min over controls
    along the replayed path is alpha no matter how often the override fires,
    so the closed-loop run lands exactly on the scaled state.
    """
    graph, aut = fam.graph, fam.aut
    uc = aut.uc_map()
    floor = fam.floor_of(base)
    from_root = _forward(graph, graph.root)
    dist_root = from_root.dist
    dist_back = bfs(base, lambda q: ((name, src) for src, name in graph.in_edges[q])).dist
    best = None  # (total length, event index, source, event name)
    for index, name in enumerate(aut.event_names):
        if uc[name] != floor:
            continue
        for src, label, dst in graph.edges:
            if label != name:
                continue
            d1, d2 = dist_root.get(src), dist_back.get(dst)
            if d1 is None or d2 is None:
                continue
            key = (d1 + 1 + d2, index)
            if best is None or key < best[0]:
                best = (key, src, name)
    if best is None:
        return None
    _, src, name = best
    prefix = from_root.path(src)
    suffix = _forward(graph, graph.successor(src, name)).path(base)
    controller = StateFeedbackController({(src, name): alpha})
    return ReachWitness(base, alpha, prefix + (name,) + suffix, controller)


def _forward(graph: TransitionGraph, source: State) -> Search:
    return bfs(source, graph.out_edges.__getitem__)
