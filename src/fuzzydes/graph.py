"""Graph walks shared by every analysis.

Each walk takes its graph as a neighbour callable, so the same code serves
transition graphs forward and backward and the candidate graphs of the
controllability search.  All walks are iterative, so no graph is deep
enough to overflow the Python stack.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional

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


@dataclass(frozen=True)
class Search:
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


def cycle_vertices(vertices: Iterable[Vertex], neighbours: Neighbours) -> set:
    """Vertices lying on a directed cycle (self-loops included) of the graph
    induced on vertices; neighbours must stay inside vertices.

    Uses Tarjan's strongly connected components (SIAM J. Comput. 1(2),
    1972) with an explicit work stack: a vertex is on a cycle exactly when
    its component has two or more vertices or it has a self-loop.
    """
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    on_cycle: set = set()
    for root in vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(neighbours(root)))]
        while work:
            v, children = work[-1]
            pushed = False
            for w in children:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(neighbours(w))))
                    pushed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    component.append(w)
                    if w == v:
                        break
                if len(component) > 1 or v in neighbours(v):
                    on_cycle.update(component)
    return on_cycle
