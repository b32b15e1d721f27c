"""The three graph walks shared by every analysis.

closure collects the vertices reachable from a set, bfs records a
breadth-first search tree, and attractor ranks the vertices that a counter
worklist draws into a seed set.  The attractor serves the stabilization
fixpoints and, run over predecessor or successor lists, peels a graph from
its sources or sinks: Kahn's topological sort (CACM 5(11), 1962), whose
leftover vertices are exactly those a cycle reaches (or that reach one).

closure and bfs take their graph as a neighbour callable, so the same code
serves transition graphs forward and backward and the candidate graphs of
the controllability search.  All walks are iterative, so no graph is deep
enough to overflow the Python stack.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Optional, Sequence

from ._record import Record

Vertex = Hashable
Neighbours = Callable[[Vertex], Iterable[Vertex]]
LabeledNeighbours = Callable[[Vertex], Iterable[tuple[object, Vertex]]]


def closure(starts: Iterable[Vertex], neighbours: Neighbours) -> set:
    """Every vertex reachable from starts along neighbours, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for w in neighbours(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


class Search(Record):
    """A breadth-first search tree: the distance of every reached vertex
    from the source, keyed in discovery order, and the (parent, label) edge
    each vertex but the source was first discovered through."""

    dist: dict
    parent: dict

    def path(self, target: Vertex) -> Optional[tuple]:
        """Labels along the tree path from the source to target (a
        shortest path), or None when target was not reached."""
        if target not in self.dist:
            return None
        labels = []
        while target in self.parent:
            target, label = self.parent[target]
            labels.append(label)
        return tuple(reversed(labels))


def bfs(source: Vertex, neighbours: LabeledNeighbours) -> Search:
    """Breadth-first search from source; neighbours yields (label, vertex)
    pairs and its order decides discovery order and parent edges."""
    dist = {source: 0}
    parent: dict = {}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for label, w in neighbours(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                parent[w] = (v, label)
                queue.append(w)
    return Search(dist, parent)


def attractor(
    slots: Sequence[Sequence[Sequence[int]]],
    need: Callable[[Sequence[int]], int],
    wanted: Sequence[int],
    seeds: Iterable[int],
    stop: Optional[int] = None,
) -> list[Optional[int]]:
    """The rank of each vertex v (None if it never joins) in the attractor
    of the seeds, which join at rank 0.  slots[v] lists the target lists of
    v's slots; a slot is met once need(targets) of them have joined, and v
    joins once wanted[v] of its slots are met, one rank above the vertex
    that made it join.  Vertices join breadth first until stop has joined."""
    rank: list[Optional[int]] = [None] * len(slots)
    watchers: list[list[tuple[int, int]]] = [[] for _ in slots]  # t -> (v, k) holding t
    missing = [[need(targets) for targets in state_slots] for state_slots in slots]
    for v, state_slots in enumerate(slots):
        for k, targets in enumerate(state_slots):
            for t in targets:
                watchers[t].append((v, k))
    short = list(wanted)  # short[v]: met slots v still lacks
    queue = deque(dict.fromkeys(seeds))
    for v in queue:
        rank[v] = 0
    while queue and (stop is None or rank[stop] is None):
        t = queue.popleft()
        for v, k in watchers[t]:
            if rank[v] is not None or not missing[v][k]:
                continue
            missing[v][k] -= 1
            if not missing[v][k]:
                short[v] -= 1
                if not short[v]:
                    rank[v] = rank[t] + 1
                    queue.append(v)
    return rank
