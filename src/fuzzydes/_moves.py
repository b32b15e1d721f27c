"""The admissible moves within a state set: the layer that both state-based
questions read, controllability (statecontrol) and stabilization
(stability).

_expand answers, once per set, which members an admissible scaling of
q . a lands on: for each member and each feasible event it gives the
composition and the target positions with their alpha ranges, found
through one ScalingIndex of the coded set.  _checked_choice checks a
per-(vertex, event) choice of those moves against C1, C2 and
reachability, and _realize turns a checked choice into its controller.
This module owns the moves; statecontrol owns the decision, the
backtracking search for a choice (_decide), which stability calls only
for a supplied witness that carries no subgraph.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from . import graph
from ._record import Record
from .automaton import MaxMinAutomaton, StateFeedbackController, _feasible
from .errors import ValidationError
from .possibility import (
    CODE_UNIT,
    ONE,
    Code,
    FuzzyEvent,
    ScaleSolution,
    State,
    decode_state,
    decode_value,
    encode_state,
    format_state,
)


class ControllableSubgraph(Record):
    """A per-(vertex, event) choice of successor edges satisfying C1/C2 with
    every vertex reachable from the root through chosen edges."""

    choice: Mapping[tuple[State, str], State]

    def edges(self) -> tuple[tuple[State, str, State], ...]:
        return tuple((q, name, t) for (q, name), t in self.choice.items())


class ScalingIndex:
    """The members of a coded state set, grouped by their maximum and sorted
    by it, for finding the members that scaling a coded vector c lands on,
    with their alpha ranges in closed form.

    A member p with maximum m is hit exactly when p == min(m, c)
    componentwise, which needs m <= max(c); its alpha range is
    [max(m, floor), m] when m < max(c) (empty when floor > m) and
    [max(m, floor), 1] when m == max(c).  Proof: min(alpha, c) has
    maximum min(alpha, max(c)), so a hit forces min(alpha, max(c)) == m
    and then min(alpha, c) == min(m, c).  When m < max(c) this pins
    alpha == m; when m == max(c) any alpha >= m gives min(alpha, c) == c.
    So one dictionary probe per maximum up to max(c) finds every target,
    and no hit calls solve_scale.
    """

    def __init__(self, states: Sequence[Code]):
        self.states = tuple(states)
        groups: dict[int, dict[Code, int]] = {}
        for i, p in enumerate(self.states):
            groups.setdefault(max(p), {})[p] = i
        self._groups = sorted(groups.items())

    def targets(self, composed: Code, floor: int) -> list[tuple[int, ScaleSolution]]:
        """(position, alpha range) of every member that scaling composed by
        some alpha >= floor lands on, in position order."""
        top = max(composed)
        out = []
        for m, members in self._groups:
            if m > top:
                break
            if m == top:
                if (i := members.get(composed)) is not None:
                    out.append((i, ScaleSolution(max(m, floor), CODE_UNIT[1])))
            elif floor <= m and (i := members.get(tuple([min(m, v) for v in composed]))) is not None:
                out.append((i, ScaleSolution(m, m)))
        out.sort()  # positions are distinct, so no two ranges are compared
        return out


Expansion = list[list[tuple[FuzzyEvent, Code, list[tuple[int, ScaleSolution]]]]]


def _expand(aut: MaxMinAutomaton, codes: Sequence[Code]) -> Expansion:
    """Per member of the coded set, by position: every feasible event, in
    alphabet order, with its composition q . a and its admissible moves
    within the set, (target position, coded alpha range cut down to the
    event's floor) in position order."""
    index = ScalingIndex(codes)
    return [
        [(ev, composed, index.targets(composed, ev.coded_uc)) for ev, composed in _feasible(aut, q)]
        for q in index.states
    ]


def _checked_choice(
    aut: MaxMinAutomaton, codes: tuple[Code, ...], expansion: Expansion, subgraph: ControllableSubgraph
) -> list[dict[str, int]]:
    """Check a choice over the nonempty coded set against C1 (structural),
    C2 and reachability, reading the codes' expansion; returns per member,
    by position, its feasible events in alphabet order with the least
    admissible coded scaling of the chosen edge, or 0 for an unchosen event
    (a chosen edge's is positive, as its target is nonzero)."""
    ids = {q: v for v, q in enumerate(codes)}
    moves = [{ev.name: dict(targets) for ev, _, targets in row} for row in expansion]
    alphas = [dict.fromkeys(row, 0) for row in moves]
    edges: list[list[int]] = [[] for _ in codes]
    for (q, name), t in subgraph.choice.items():
        v, w = ids.get(encode_state(q)), ids.get(encode_state(t))
        if v is None or w is None:
            raise ValidationError(
                f"chosen edge {format_state(q)} --{name}--> {format_state(t)} "
                "leaves the candidate set"
            )
        admissible = moves[v].get(name, {}).get(w)
        if admissible is None:
            aut.event(name)  # an event off the alphabet raises UnknownEvent
            raise ValidationError(
                f"no admissible scaling realizes {format_state(q)} --{name}--> "
                f"{format_state(t)}"
            )
        alphas[v][name] = admissible.least()
        edges[v].append(w)
    for v, row in enumerate(expansion):
        for ev, _, _ in row:
            if ev.coded_uc and not alphas[v][ev.name]:
                raise ValidationError(
                    f"event {ev.name!r} is feasible and partially uncontrollable at "
                    f"{format_state(decode_state(codes[v]))} but has no chosen edge"
                )
    root = ids.get(aut.coded_initial)
    if root is None:
        raise ValidationError("the initial state is not a member of the candidate set")
    reach = graph.closure([root], edges.__getitem__)
    if len(reach) != len(codes):
        missing = ", ".join(format_state(decode_state(q)) for v, q in enumerate(codes) if v not in reach)
        raise ValidationError(f"chosen edges do not reach: {missing}")
    return alphas


def _realize(states: tuple[State, ...], alphas: list[dict[str, int]]) -> StateFeedbackController:
    """The controller of a checked choice over states: each chosen edge
    at its least admissible scaling, each unchosen feasible event at 0
    (hard-disabled), everything else fully enabled."""
    entries = {(q, name): decode_value(a) for q, row in zip(states, alphas) for name, a in row.items()}
    return StateFeedbackController(entries, ONE)
