"""Seeded random instances shared by the property suites."""

from fractions import Fraction
from itertools import product

from fuzzydes import (
    StateFeedbackController,
    accessible_part,
    make_automaton,
    make_event,
)

GRID11 = tuple(Fraction(k, 10) for k in range(11))
COARSE = (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1))


def random_automaton(rng, max_n=3, max_events=3, grid=GRID11, max_uc=None):
    n = rng.randint(1, max_n)
    n_events = rng.randint(1, max_events)
    while True:
        initial = tuple(rng.choice(grid) for _ in range(n))
        if any(initial):
            break
    uc_pool = grid if max_uc is None else [v for v in grid if v <= max_uc]
    events = []
    for i in range(n_events):
        matrix = [[rng.choice(grid) for _ in range(n)] for _ in range(n)]
        events.append(make_event(f"e{i}", matrix, rng.choice(uc_pool)))
    return make_automaton([f"s{i}" for i in range(n)], initial, events)


def random_controller(rng, aut, grid=GRID11, max_states=12, override_rate=0.6):
    """Random overrides on accessible vertices (and a few of their scalings),
    each respecting the event's floor."""
    states = list(accessible_part(aut).vertices)[:max_states]
    extra = []
    for q in states[:3]:
        alpha = rng.choice(grid)
        scaled = tuple(min(alpha, v) for v in q)
        if any(scaled) and scaled not in states:
            extra.append(scaled)
    entries = {}
    for q in states + extra:
        for ev in aut.events:
            if rng.random() > override_rate:
                continue
            choices = [v for v in grid if v >= ev.uc_degree]
            entries[(q, ev.name)] = rng.choice(choices)
    return StateFeedbackController(entries, Fraction(1))


def adjacency(g):
    """The out- and in-edges of a transition graph read straight from
    g.edges, keyed by state and in edge order: out[q] lists (event, target)
    and into[q] lists (source, event).  Test oracles walk these, not the
    library's own adjacency."""
    out = {q: [] for q in g.vertices}
    into = {q: [] for q in g.vertices}
    for src, name, dst in g.edges:
        out[src].append((name, dst))
        into[dst].append((src, name))
    return out, into


def all_strings(names, max_len):
    yield ()
    for length in range(1, max_len + 1):
        yield from product(names, repeat=length)


def controlled_fold(aut, f, s):
    """Closed-loop fold straight from the definitions, keeping the all-zero
    vector in place of an absent transition; returns the final vector and the
    applied control values."""
    from fuzzydes import scale_product, step

    q = aut.initial
    alphas = []
    for name in s:
        alpha = f.value(q, name)
        alphas.append(alpha)
        q = scale_product(alpha, step(aut, q, name))
    return q, alphas
