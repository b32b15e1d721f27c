"""Document formats and DOT export.

Automata and specifications travel as JSON with every possibility carried as
a decimal string of at most nine fractional digits, so files parse exactly
and round-trip canonically.  Parse failures raise ValidationError with a
field-addressed message.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Optional, Union

from . import language
from ._record import Record
from .automaton import (
    MaxMinAutomaton,
    StateFeedbackController,
    TransitionGraph,
    make_automaton,
)
from .errors import ValidationError
from .possibility import (
    ONE,
    Fraction,
    FuzzyEvent,
    State,
    as_possibility,
    encode_state,
    format_possibility,
    format_state,
    make_state,
)

if TYPE_CHECKING:  # annotation only; a command that needs neither module loads neither
    from .language import FuzzyLanguage
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
    try:
        return tuple(map(as_possibility, value))
    except ValidationError:  # name the first component that fails
        return tuple(_coerce(f"{path}[{i}]", v) for i, v in enumerate(value))


def _json_object(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int literal past the int-string limit
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
    return make_automaton(labels, initial, events)


def _json_text(value, newline: str = "\n") -> str:
    """The bytes of json.dumps(value, indent=2) for a document built of dicts
    with str keys, lists, tuples, strings, ints, bools and None.

    With indent set, json.dumps runs the pure-Python encoder; here each
    string is encoded by json's C encode_basestring_ascii and each container
    is one join.  newline is the line break and indent the value starts on."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(item, inner)
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def state_doc(state: State) -> list[str]:
    """A state as its document form: a list of decimal strings."""
    return [format_possibility(v) for v in state]


class StateSetSpec(Record):
    states: tuple[State, ...]


class LanguageSpec(Record):
    language: FuzzyLanguage


class ControllerSpec(Record):
    controller: StateFeedbackController


class WitnessSpec(Record):
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
        degrees = {}
        for i, pair in enumerate(pairs):
            if not isinstance(pair, dict) or "string" not in pair or "degree" not in pair:
                raise _fail(f"pairs[{i}]", "expected an object with string and degree")
            s = _event_string(f"pairs[{i}].string", pair["string"])
            if s in degrees:
                raise _fail(f"pairs[{i}].string", f"string {' '.join(s)!r} is listed twice")
            degrees[s] = _coerce(f"pairs[{i}].degree", pair["degree"])
        return LanguageSpec(language.FuzzyLanguage.from_pairs(degrees.items()))
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
            if (state, event) in entries:
                raise _fail(path, f"state {format_state(state)} with event {event!r} is listed twice")
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

        legal = states_field("n", required=True)
        n_prime = states_field("n_prime", required=doc.get("p") is not None)  # both or neither
        return WitnessSpec(legal, n_prime, states_field("p", required=n_prime is not None))
    raise _fail("kind", f"unknown kind {kind!r}")


def parse_inline_state(text: str) -> State:
    """Parse the inline spec shorthand state:[v1,v2,...]."""
    body = text[len("state:"):].strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValidationError(f"inline state must look like state:[0,0.1,0.9], got {text!r}")
    parts = [p.strip() for p in body[1:-1].split(",")]
    if parts == [""]:
        raise ValidationError("inline state is empty")
    return make_state(parts)


def controller_doc(f: StateFeedbackController) -> dict:
    """The default and the entries of a controller, entries sorted by state
    and then event (codes order states as their values do)."""
    entries = sorted(f.entries.items(), key=lambda item: (encode_state(item[0][0]), item[0][1]))
    return {
        "default": format_possibility(f.default),
        "entries": [
            {"state": state_doc(state), "event": name, "value": format_possibility(value)}
            for (state, name), value in entries
        ],
    }


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _range_label(solution) -> str:
    lower = format_possibility(solution.lower)
    return f"{lower}..1" if solution.upper == ONE else lower


def export_dot(graph: TransitionGraph | SuccessorGraph) -> str:
    """Deterministic DOT text: vertices labeled with bracketed decimal
    vectors, edges labeled with event names (plus admissible alpha ranges on
    successor graphs)."""
    lines = ["digraph fuzzydes {", "  rankdir=LR;"]
    root = graph.root
    for i, q in enumerate(graph.vertices):
        shape = "doublecircle" if q == root else "circle"
        lines.append(f"  q{i} [label={_quote(format_state(q))},shape={shape}];")
    for e, (v, t) in zip(graph.edges, graph.positions):
        label = e[1] if type(e) is tuple else f"{e.event} {_range_label(e.alpha_range)}"
        lines.append(f"  q{v} -> q{t} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
