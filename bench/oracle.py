"""Independent answer checker for the benchmark.

Every possibility is a plain int scaled by 10**9, so the lattice operations
are int min/max and every comparison is exact.  Nothing here imports
fuzzydes: expected answers are computed from the definitions, and answers
that have several valid forms (a chosen subgraph, a controller, a
stabilizing witness) are checked by the property they must have.

A plant is a dict with keys n, labels, initial (state), events (a list of
(name, matrix, uc) with matrix a tuple of int rows); a state is a tuple of
ints.
"""

from __future__ import annotations

from collections import deque

SCALE = 10**9
ONE = SCALE


def parse_value(text) -> int:
    """Decimal string (at most nine fractional digits) to scaled int."""
    if isinstance(text, int) and not isinstance(text, bool):
        if not 0 <= text <= 1:
            raise ValueError(f"possibility out of range: {text!r}")
        return text * SCALE
    if not isinstance(text, str):
        raise ValueError(f"not a decimal string: {text!r}")
    whole, _, frac = text.strip().partition(".")
    if not whole.isdigit() or (frac and not frac.isdigit()) or len(frac) > 9:
        raise ValueError(f"not a decimal string: {text!r}")
    value = int(whole) * SCALE + int(frac.ljust(9, "0") or "0")
    if value > ONE:
        raise ValueError(f"possibility out of range: {text!r}")
    return value


def fmt(value: int) -> str:
    """Shortest exact decimal string of a scaled int."""
    whole, frac = divmod(value, SCALE)
    if frac == 0:
        return str(whole)
    return f"{whole}." + f"{frac:09d}".rstrip("0")


def parse_state(values) -> tuple:
    return tuple(parse_value(v) for v in values)


def fmt_state(q) -> list:
    return [fmt(v) for v in q]


def from_exact(value) -> int:
    """Scaled int of any exact rational given as numerator/denominator pair
    (a Fraction, or an int)."""
    num = getattr(value, "numerator", value)
    den = getattr(value, "denominator", 1)
    scaled, rem = divmod(num * SCALE, den)
    if rem:
        raise ValueError(f"{value!r} is not a multiple of 1e-9")
    return scaled


# -- plant documents -------------------------------------------------------


def plant_doc(plant) -> dict:
    return {
        "n": plant["n"],
        "state_labels": list(plant["labels"]),
        "initial": fmt_state(plant["initial"]),
        "events": [
            {
                "name": name,
                "uncontrollable_degree": fmt(uc),
                "matrix": [fmt_state(row) for row in matrix],
            }
            for name, matrix, uc in plant["events"]
        ],
    }


def plant_from_doc(doc) -> dict:
    return {
        "n": doc["n"],
        "labels": tuple(doc["state_labels"]),
        "initial": parse_state(doc["initial"]),
        "events": [
            (ev["name"], tuple(parse_state(r) for r in ev["matrix"]),
             parse_value(ev.get("uncontrollable_degree", "0")))
            for ev in doc["events"]
        ],
    }


# -- lattice algebra -------------------------------------------------------


def compose(q, matrix) -> tuple:
    """Max-min composition: component j is max_i min(q[i], matrix[i][j])."""
    n = len(q)
    return tuple(max(min(q[i], matrix[i][j]) for i in range(n)) for j in range(n))


def scale(alpha: int, q) -> tuple:
    return tuple(min(alpha, v) for v in q)


def is_zero(q) -> bool:
    return not any(q)


def scalings(c, p):
    """The alphas with scale(alpha, c) == p, as (low, high) or None.

    p == c holds for every alpha >= max(c).  Otherwise alpha is pinned to
    max(p): every component c_i above alpha is cut to alpha.
    """
    if p == c:
        return (max(c), ONE)
    alpha = max(p)
    if scale(alpha, c) == p:
        return (alpha, alpha)
    return None


def least_admissible(c, p, uc: int):
    """Least alpha >= uc with scale(alpha, c) == p, or None."""
    found = scalings(c, p)
    if found is None or found[1] < uc:
        return None
    return max(found[0], uc)


def event_table(plant) -> dict:
    return {name: (matrix, uc) for name, matrix, uc in plant["events"]}


# -- graphs ----------------------------------------------------------------


def closed_loop(plant, control=None):
    """BFS closure of the initial state; control(q, name) is the enabling
    value (1 everywhere when None).  Returns (vertices in discovery order,
    edges as (src, name, dst))."""
    root = plant["initial"]
    vertices, seen, edges = [root], {root}, []
    queue = deque([root])
    while queue:
        q = queue.popleft()
        for name, matrix, _ in plant["events"]:
            p = compose(q, matrix)
            if control is not None:
                p = scale(control(q, name), p)
            if is_zero(p):
                continue
            edges.append((q, name, p))
            if p not in seen:
                seen.add(p)
                vertices.append(p)
                queue.append(p)
    return vertices, edges


def controller_table(doc, plant):
    """A controller document (default + entries) as a control function;
    raises ValueError when a value is below its event's floor."""
    floors = {name: uc for name, _, uc in plant["events"]}
    default = parse_value(doc["default"])
    if floors and default < max(floors.values()):
        raise ValueError("controller default below an uncontrollability floor")
    table = {}
    for entry in doc["entries"]:
        value = parse_value(entry["value"])
        if value < floors[entry["event"]]:
            raise ValueError(f"controller value below the floor of {entry['event']}")
        table[(parse_state(entry["state"]), entry["event"])] = value
    return lambda q, name: table.get((q, name), default)


def backward_closure(edges, targets) -> set:
    preds = {}
    for src, _, dst in edges:
        preds.setdefault(dst, []).append(src)
    seen = set(targets)
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for src in preds.get(q, ()):
            if src not in seen:
                seen.add(src)
                queue.append(src)
    return seen


def forward_closure(edges, starts) -> set:
    succ = {}
    for src, _, dst in edges:
        succ.setdefault(src, []).append(dst)
    seen = set(starts)
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        for dst in succ.get(q, ()):
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return seen


def has_cycle(vertices, edges) -> bool:
    """Kahn's algorithm on the subgraph induced by vertices."""
    inside = set(vertices)
    indeg = {v: 0 for v in inside}
    succ = {}
    for src, _, dst in edges:
        if src in inside and dst in inside:
            indeg[dst] += 1
            succ.setdefault(src, []).append(dst)
    queue = deque(v for v, d in indeg.items() if d == 0)
    removed = 0
    while queue:
        v = queue.popleft()
        removed += 1
        for w in succ.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return removed != len(inside)


def attractor_conditions(vertices, edges, n_set) -> tuple[bool, bool, bool]:
    """(closed, connected, acyclic outside) of n_set in the graph."""
    n_set = set(n_set)
    closed = all(dst in n_set for src, _, dst in edges if src in n_set)
    into = backward_closure(edges, [q for q in vertices if q in n_set])
    connected = all(q in into for q in vertices)
    outside = [q for q in vertices if q not in n_set]
    return closed, connected, not has_cycle(outside, edges)


def infimal_attractor(vertices, edges) -> set:
    """Vertices on a cycle or reachable from one, plus the dead vertices.
    Peeling vertices of in-degree zero (Kahn) leaves exactly the first
    kind."""
    succ = {v: [] for v in vertices}
    indeg = {v: 0 for v in vertices}
    for src, _, dst in edges:
        succ[src].append(dst)
        indeg[dst] += 1
    queue = deque(v for v in vertices if indeg[v] == 0)
    peeled = set()
    while queue:
        v = queue.popleft()
        peeled.add(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return {v for v in vertices if v not in peeled or not succ[v]}


# -- reachability ----------------------------------------------------------


def floors(plant, vertices, edges) -> dict:
    """Scaling floor of each vertex: least uc over events labeling an edge
    whose target reaches the vertex; 1 when none."""
    uc = {name: u for name, _, u in plant["events"]}
    into = {}
    for _, name, dst in edges:
        into[dst] = min(into.get(dst, ONE), uc[name])
    preds = {}
    for src, _, dst in edges:
        preds.setdefault(dst, []).append(src)
    out = {}
    for q in vertices:
        seen = {q}
        queue = deque([q])
        best = into.get(q, ONE)
        while queue:
            v = queue.popleft()
            for src in preds.get(v, ()):
                if src not in seen:
                    seen.add(src)
                    best = min(best, into.get(src, ONE))
                    queue.append(src)
        out[q] = best
    return out


def is_member(entries, target) -> bool:
    """Some alpha in [floor, 1] scales some base onto target."""
    for base, floor in entries:
        found = scalings(base, target)
        if found is not None and found[1] >= floor:
            return True
    return False


def replay(plant, control, path):
    """Closed-loop fold of an event string; None once a step vanishes."""
    events = event_table(plant)
    q = plant["initial"]
    for name in path:
        q = scale(control(q, name), compose(q, events[name][0]))
        if is_zero(q):
            return None
    return q


# -- state-set controllability ---------------------------------------------


def successor_pairs(plant, P) -> list:
    """For each q in P: admissible (event, target) moves within P, by event
    then by target position in P."""
    position = {p: i for i, p in enumerate(P)}
    maxima = sorted({max(p) for p in P})
    out = []
    for q in P:
        pairs = []
        for name, matrix, uc in plant["events"]:
            c = compose(q, matrix)
            found = []
            if c in position:
                found.append(c)
            for alpha in maxima:
                if uc <= alpha < max(c):
                    p = scale(alpha, c)
                    if p in position:
                        found.append(p)
            found.sort(key=position.__getitem__)
            pairs.extend((name, p) for p in found)
        out.append((q, pairs))
    return out


def check_subgraph(plant, P, edges) -> str | None:
    """None when (src, event, dst) edges are functional per slot, admissible,
    cover every feasible partially uncontrollable event, and reach all of P
    from the initial state; otherwise the first violation."""
    members = set(P)
    events = event_table(plant)
    slots = set()
    for src, name, dst in edges:
        if src not in members or dst not in members:
            return "edge leaves the set"
        if (src, name) in slots:
            return "two edges for one slot"
        slots.add((src, name))
        matrix, uc = events[name]
        if least_admissible(compose(src, matrix), dst, uc) is None:
            return "inadmissible edge"
    for q in P:
        for name, matrix, uc in plant["events"]:
            if uc > 0 and not is_zero(compose(q, matrix)) and (q, name) not in slots:
                return "uncovered partially uncontrollable event"
    if plant["initial"] not in members:
        return "initial state missing"
    if forward_closure(edges, [plant["initial"]]) != members:
        return "chosen edges do not reach the whole set"
    return None


def check_stabilizing(plant, legal, target_set, control) -> str | None:
    """None when the target set lies in the legal set and is an attractor of
    the closed loop under control."""
    if not set(target_set) <= set(legal):
        return "target set leaves the legal set"
    vertices, edges = closed_loop(plant, control)
    closed, connected, acyclic = attractor_conditions(vertices, edges, target_set)
    if not (closed and connected and acyclic):
        return f"not an attractor (closed={closed}, connected={connected}, acyclic={acyclic})"
    return None


# -- languages -------------------------------------------------------------


def run_string(plant, s):
    events = event_table(plant)
    q = plant["initial"]
    for name in s:
        q = compose(q, events[name][0])
    return q


def closed_loop_language(plant, control, depth) -> dict:
    """Degrees of the controlled language on every string up to depth,
    zero branches dropped."""
    degrees = {(): ONE}
    frontier = [((), plant["initial"])]
    for _ in range(depth):
        nxt = []
        for s, q in frontier:
            for name, matrix, _ in plant["events"]:
                p = scale(control(q, name), compose(q, matrix))
                if is_zero(p):
                    continue
                degrees[s + (name,)] = max(p)
                nxt.append((s + (name,), p))
        frontier = nxt
    return degrees


def support_order(K) -> list:
    return sorted(K, key=lambda s: (len(s), s))


def language_violations(plant, K) -> list:
    """(s, event) pairs breaking min(K(s), uc, L(sa)) <= K(sa) over the
    support and its one-step extensions."""
    bad = []
    names = [name for name, _, _ in plant["events"]]
    probes = support_order(K)
    probes += [s + (a,) for s in support_order(K) for a in names if s + (a,) not in K]
    for s in probes:
        q = run_string(plant, s)
        for name, matrix, uc in plant["events"]:
            lhs = min(K.get(s, 0), uc, max(compose(q, matrix)))
            if lhs > K.get(s + (name,), 0):
                bad.append((s, name))
    return bad


def passed_states(plant, K) -> list:
    out, seen = [], set()
    for s in support_order(K):
        q = scale(K[s], run_string(plant, s))
        if not is_zero(q) and q not in seen:
            seen.add(q)
            out.append(q)
    return out


def inconsistent(plant, K, s1, s2, name) -> bool:
    """True when the two support strings pass one state and disagree,
    both nonzero, on the event."""
    if s1 not in K or s2 not in K:
        return False
    q1 = scale(K[s1], run_string(plant, s1))
    q2 = scale(K[s2], run_string(plant, s2))
    d1, d2 = K.get(s1 + (name,), 0), K.get(s2 + (name,), 0)
    return q1 == q2 and not is_zero(q1) and d1 and d2 and d1 != d2


def is_consistent(plant, K) -> bool:
    groups = {}
    for s in support_order(K):
        q = scale(K[s], run_string(plant, s))
        if not is_zero(q):
            groups.setdefault(q, []).append(s)
    names = [name for name, _, _ in plant["events"]]
    for strings in groups.values():
        for a in names:
            seen = {K.get(s + (a,), 0) for s in strings} - {0}
            if len(seen) > 1:
                return False
    return True
