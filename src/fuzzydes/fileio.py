"""Document formats and DOT export.

Automata and specifications travel as JSON with every possibility carried as
a decimal string of at most nine fractional digits, so files parse exactly
and round-trip canonically.  Parse failures raise ValidationError with a
field-addressed message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Union

from .automaton import (
    MaxMinAutomaton,
    StateFeedbackController,
    TransitionGraph,
    make_automaton,
)
from .errors import ValidationError
from .language import FuzzyLanguage
from .possibility import (
    ONE,
    Fraction,
    FuzzyEvent,
    State,
    as_possibility,
    format_possibility,
    format_state,
    make_state,
)
from .statecontrol import SuccessorGraph


def _fail(path: str, message: str) -> ValidationError:
    return ValidationError(f"{path}: {message}")


def _coerce(path: str, value) -> Fraction:
    try:
        return as_possibility(value)
    except ValidationError as exc:
        raise _fail(path, str(exc)) from None


def _state(path: str, value, n: Optional[int] = None) -> State:
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a non-empty list of decimal strings")
    if n is not None and len(value) != n:
        raise _fail(path, f"expected {n} components, got {len(value)}")
    return tuple(_coerce(f"{path}[{i}]", v) for i, v in enumerate(value))


def _json_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValidationError("top level: expected an object")
    return doc


def parse_automaton(text: str) -> MaxMinAutomaton:
    """Parse an automaton document and enforce every construction invariant."""
    doc = _json_object(text)
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise _fail("n", "expected a positive integer")
    labels = doc.get("state_labels")
    if not isinstance(labels, list) or len(labels) != n or not all(isinstance(x, str) for x in labels):
        raise _fail("state_labels", f"expected a list of {n} strings")
    initial = _state("initial", doc.get("initial"), n)
    raw_events = doc.get("events")
    if not isinstance(raw_events, list):
        raise _fail("events", "expected a list")
    events: list[FuzzyEvent] = []
    for i, entry in enumerate(raw_events):
        path = f"events[{i}]"
        if not isinstance(entry, dict):
            raise _fail(path, "expected an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise _fail(f"{path}.name", "expected a non-empty string")
        uc = _coerce(f"{path}.uncontrollable_degree", entry.get("uncontrollable_degree", 0))
        matrix = entry.get("matrix")
        if not isinstance(matrix, list) or len(matrix) != n:
            raise _fail(f"{path}.matrix", f"expected {n} rows")
        rows = tuple(
            _state(f"{path}.matrix[{r}]", row, n) for r, row in enumerate(matrix)
        )
        events.append(FuzzyEvent(name, rows, uc))
    try:
        return make_automaton(labels, initial, events)
    except ValidationError:
        raise
    except Exception as exc:  # DimensionMismatch etc. carry their own message
        raise ValidationError(str(exc)) from None


def state_doc(state: State) -> list[str]:
    """A state as its document form: a list of decimal strings."""
    return [format_possibility(v) for v in state]


def serialize_automaton(aut: MaxMinAutomaton) -> str:
    doc = {
        "n": aut.n,
        "state_labels": list(aut.state_labels),
        "initial": state_doc(aut.initial),
        "events": [
            {
                "name": ev.name,
                "uncontrollable_degree": format_possibility(ev.uc_degree),
                "matrix": [state_doc(row) for row in ev.matrix],
            }
            for ev in aut.events
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


@dataclass(frozen=True)
class StateSetSpec:
    states: tuple[State, ...]


@dataclass(frozen=True)
class LanguageSpec:
    language: FuzzyLanguage


@dataclass(frozen=True)
class ControllerSpec:
    controller: StateFeedbackController


@dataclass(frozen=True)
class WitnessSpec:
    legal: tuple[State, ...]
    n_prime: Optional[tuple[State, ...]]
    p_set: Optional[tuple[State, ...]]


SpecPayload = Union[StateSetSpec, LanguageSpec, ControllerSpec, WitnessSpec]


def _event_string(path: str, value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(value.split())
    if isinstance(value, list) and all(isinstance(x, str) for x in value):
        return tuple(value)
    raise _fail(path, "expected an event-name list or space-separated string")


def parse_spec(text: str) -> SpecPayload:
    """Parse a specification document; the kind field selects the payload."""
    doc = _json_object(text)
    kind = doc.get("kind")
    if kind == "state_set":
        states = doc.get("states")
        if not isinstance(states, list):
            raise _fail("states", "expected a list of state vectors")
        return StateSetSpec(
            tuple(_state(f"states[{i}]", s) for i, s in enumerate(states))
        )
    if kind == "language":
        pairs = doc.get("pairs")
        if not isinstance(pairs, list):
            raise _fail("pairs", "expected a list of {string, degree} objects")
        entries = []
        for i, pair in enumerate(pairs):
            if not isinstance(pair, dict) or "string" not in pair or "degree" not in pair:
                raise _fail(f"pairs[{i}]", "expected an object with string and degree")
            s = _event_string(f"pairs[{i}].string", pair["string"])
            entries.append((s, _coerce(f"pairs[{i}].degree", pair["degree"])))
        return LanguageSpec(FuzzyLanguage.from_pairs(entries))
    if kind == "fsfc":
        default = _coerce("default", doc.get("default", "1"))
        raw_entries = doc.get("entries", [])
        if not isinstance(raw_entries, list):
            raise _fail("entries", "expected a list of {state, event, value} objects")
        entries: dict[tuple[State, str], Fraction] = {}
        for i, entry in enumerate(raw_entries):
            path = f"entries[{i}]"
            if not isinstance(entry, dict):
                raise _fail(path, "expected an object")
            state = _state(f"{path}.state", entry.get("state"))
            event = entry.get("event")
            if not isinstance(event, str):
                raise _fail(f"{path}.event", "expected an event name")
            entries[(state, event)] = _coerce(f"{path}.value", entry.get("value"))
        return ControllerSpec(StateFeedbackController(entries, default))
    if kind == "witness":
        def states_field(field: str, required: bool):
            raw = doc.get(field)
            if raw is None:
                if required:
                    raise _fail(field, "required field is missing")
                return None
            if not isinstance(raw, list):
                raise _fail(field, "expected a list of state vectors")
            return tuple(_state(f"{field}[{i}]", s) for i, s in enumerate(raw))

        return WitnessSpec(
            states_field("n", required=True),
            states_field("n_prime", required=False),
            states_field("p", required=False),
        )
    raise _fail("kind", f"unknown kind {kind!r}")


def parse_inline_state(text: str) -> State:
    """Parse the inline spec shorthand state:[v1,v2,...]."""
    body = text[len("state:"):].strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValidationError(f"inline state must look like state:[0,0.1,0.9], got {text!r}")
    parts = [p.strip() for p in body[1:-1].split(",") if p.strip()]
    if not parts:
        raise ValidationError("inline state is empty")
    return make_state(parts)


def controller_doc(f: StateFeedbackController) -> dict:
    """The default and the entries of a controller, entries sorted by state
    and then event."""
    entries = sorted(f.entries.items(), key=lambda item: (item[0][0], item[0][1]))
    return {
        "default": format_possibility(f.default),
        "entries": [
            {"state": state_doc(state), "event": name, "value": format_possibility(value)}
            for (state, name), value in entries
        ],
    }


def serialize_controller(f: StateFeedbackController) -> str:
    return json.dumps({"kind": "fsfc", **controller_doc(f)}, indent=2) + "\n"


def _quote(label: str) -> str:
    return '"' + label.replace('"', '\\"') + '"'


def _range_label(solution) -> str:
    lower = format_possibility(solution.lower)
    return f"{lower}..1" if solution.upper == ONE else lower


def export_dot(graph: TransitionGraph | SuccessorGraph) -> str:
    """Deterministic DOT text: vertices labeled with bracketed decimal
    vectors, edges labeled with event names (plus admissible alpha ranges on
    successor graphs)."""
    lines = ["digraph fuzzydes {", "  rankdir=LR;"]
    if isinstance(graph, TransitionGraph):
        vertices = graph.vertices
        root = graph.root
        edge_rows = [(src, name, dst, None) for src, name, dst in graph.edges]
    else:
        vertices = graph.vertices
        root = graph.root
        edge_rows = [(e.source, e.event, e.target, e.alpha_range) for e in graph.edges]
    ids = {q: f"q{i}" for i, q in enumerate(vertices)}
    for q in vertices:
        shape = "doublecircle" if q == root else "circle"
        lines.append(f"  {ids[q]} [label={_quote(format_state(q))},shape={shape}];")
    for src, name, dst, alpha in edge_rows:
        label = name if alpha is None else f"{name} {_range_label(alpha)}"
        lines.append(f"  {ids[src]} -> {ids[dst]} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_language(language: FuzzyLanguage) -> str:
    doc = {
        "kind": "language",
        "pairs": [
            {"string": list(s), "degree": format_possibility(language.degree(s))}
            for s in language.support()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"
