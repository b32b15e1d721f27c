"""Which fuzzy states can feedback control reach?

Scaling a reachable open-loop state q by any alpha between its scaling floor
and 1 yields a state some controller can reach; the union of these scaled
families over the accessible vertices is exactly the controlled-reachability
family.  The floor of q is the least uncontrollability degree among events
occurring on some root path to q (1 when no event is forced below 1).
"""

from __future__ import annotations

from typing import Mapping, Optional

from ._record import Record
from .automaton import (
    EventString,
    MaxMinAutomaton,
    StateFeedbackController,
    TransitionGraph,
    _decode_graph,
    _explore,
)
from .errors import DimensionMismatch, DomainError
from .graph import Search, bfs, closure
from .possibility import (
    CODE_UNIT,
    ONE,
    Code,
    Fraction,
    State,
    decode_value,
    encode_state,
    solve_scale,
    state_is_zero,
)


def _floors(graph: TransitionGraph, uc: Mapping[str, int]) -> list[int]:
    """The coded floor of every vertex, by position, in one pass, from the
    plant's coded degrees uc; the code of 1 where no edge leads in.

    Every vertex is root-reachable by construction, so an event qualifies for
    q exactly when one of its edges has a target from which q is reachable.
    Visiting edges in ascending degree, the first edge whose target's forward
    closure reaches q gives q its floor; a vertex reached earlier already has
    its descendants, so each closure stops there.
    """
    out, _ = graph._links
    floors: list[Optional[int]] = [None] * len(graph.vertices)

    def unreached(v: int):
        return (t for _, t in out[v] if floors[t] is None)

    by_degree = sorted(zip(graph.edges, graph.positions), key=lambda edge: uc[edge[0][1]])
    for (_, name, _), (_, t) in by_degree:
        if floors[t] is None:
            for v in closure([t], unreached):
                floors[v] = uc[name]
    return [CODE_UNIT[1] if floor is None else floor for floor in floors]


class ReachFamily(Record, hidden=("codes",)):
    """Symbolic form of the controlled-reachability family: one (base state,
    floor) entry per accessible vertex, representing {alpha . base :
    floor <= alpha <= 1}.  codes holds the coded entries, in graph's vertex
    order, that family_contains runs on; it stays out of equality, hash and
    repr."""

    aut: MaxMinAutomaton
    graph: TransitionGraph
    entries: tuple[tuple[State, Fraction], ...]
    codes: tuple[tuple[Code, int], ...]


def reach_family(aut: MaxMinAutomaton) -> ReachFamily:
    """Compute the family for every accessible vertex, in discovery order."""
    coded = _explore(aut)
    graph = _decode_graph(coded)
    floors = _floors(graph, {ev.name: ev.coded_uc for ev in aut.events})
    entries = tuple((q, decode_value(floor)) for q, floor in zip(graph.vertices, floors))
    return ReachFamily(aut, graph, entries, tuple(zip(coded.vertices, floors)))


class ReachWitness(Record):
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
    graph = fam.graph
    target = encode_state(target)
    for v, (base, floor) in enumerate(fam.codes):
        if target == base:
            # alpha = 1 is admissible under every floor: no override at all.
            path = _forward(graph, 0).path(v)
            return ReachWitness(graph.vertices[v], ONE, path, StateFeedbackController())
        alpha = solve_scale(base, target).restrict(floor).least()
        if alpha is not None:
            return _override_witness(fam.aut, graph, v, floor, alpha)
    return None


def _override_witness(
    aut: MaxMinAutomaton, graph: TransitionGraph, base: int, floor: int, alpha: int
) -> ReachWitness:
    """Build the single-override controller reaching alpha . base, the
    vertex at position base of the family's graph (floor and alpha coded).

    Chooses an event achieving the floor of base among events on root paths,
    preferring the shortest through-path and then alphabet order, and
    overrides the controller at the through-edge's source.  Min over controls
    along the replayed path is alpha no matter how often the override fires,
    so the closed-loop run lands exactly on the scaled state.

    Such an edge exists: alpha < 1 (alpha = 1 lands on base itself, which
    family_contains answers first), so the floor is below 1, and _floors
    took it from an edge (src, a, dst) with uc(a) = floor and base
    reachable from dst; src, as every vertex, is reachable from the root.
    """
    index = {ev.name: i for i, ev in enumerate(aut.events) if ev.coded_uc == floor}
    _, into = graph._links
    from_root = _forward(graph, 0)
    dist_root = from_root.dist
    dist_back = bfs(base, into.__getitem__).dist
    best = None  # ((total length, event index), source, event name, target)
    for (_, name, _), (src, dst) in zip(graph.edges, graph.positions):
        if name not in index or dst not in dist_back:
            continue
        # Strictly smaller: on a tie the first such edge in graph order stays.
        key = (dist_root[src] + 1 + dist_back[dst], index[name])
        if best is None or key < best[0]:
            best = (key, src, name, dst)
    _, src, name, dst = best
    prefix = from_root.path(src)
    suffix = _forward(graph, dst).path(base)
    alpha = decode_value(alpha)
    controller = StateFeedbackController({(graph.vertices[src], name): alpha})
    return ReachWitness(graph.vertices[base], alpha, prefix + (name,) + suffix, controller)


def _forward(graph: TransitionGraph, source: int) -> Search:
    return bfs(source, graph._links[0].__getitem__)
