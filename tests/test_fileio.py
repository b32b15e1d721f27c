import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fuzzydes import (
    ValidationError,
    accessible_part,
    build_successor_graph,
    chosen_graph,
    export_dot,
    make_automaton,
    make_event,
    make_state,
    parse_automaton,
    parse_spec,
)
from fuzzydes.fileio import (
    ControllerSpec,
    LanguageSpec,
    StateSetSpec,
    WitnessSpec,
    _json_text,
    parse_inline_state,
)
from conftest import DATA
from reference import serialize_automaton, serialize_controller, serialize_language
from test_statecontrol import reference_subgraph

S = lambda text: make_state(text.split())


# Documents of the shapes the writer takes: dicts with str keys, lists and
# tuples holding strings, ints, bools and None.
json_documents = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=25,
)


class TestJsonWriter:
    @given(json_documents)
    @example({"": [], "b": {}, "c": ["\u00e9\"\\", "\x00\x1f\n\t\u2028\ud800", -0, 10**30]})
    @example([[{"k": [None, True, False]}], ()])
    @example("plain")
    def test_same_bytes_as_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{1, 2}, {"k": [set()]}])
    def test_a_value_json_cannot_write_raises_the_same_type_error(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as raised:
            _json_text(value)
        assert str(raised.value) == str(expected.value) == "Object of type set is not JSON serializable"


class TestAutomatonDocuments:
    @pytest.mark.parametrize(
        "name",
        ["treatment_plant.json", "single_event_plant.json", "drift_plant.json", "cascade_plant.json"],
    )
    def test_round_trip_is_identical(self, name):
        first = parse_automaton((DATA / name).read_text())
        text = serialize_automaton(first)
        again = parse_automaton(text)
        assert again == first
        assert serialize_automaton(again) == text

    def test_round_trip_canonicalizes_trailing_zeros(self):
        doc = json.loads((DATA / "treatment_plant.json").read_text())
        doc["initial"] = ["0.90", "0.10", "0.0"]
        first = parse_automaton(json.dumps(doc))
        second = parse_automaton(serialize_automaton(first))
        assert first == second

    def test_zero_initial_rejected(self):
        doc = json.loads((DATA / "treatment_plant.json").read_text())
        doc["initial"] = ["0", "0", "0"]
        with pytest.raises(ValidationError) as exc:
            parse_automaton(json.dumps(doc))
        assert str(exc.value) == "the all-zero vector is excluded from the state set"

    def test_ten_digit_decimal_rejected_with_address(self):
        doc = json.loads((DATA / "treatment_plant.json").read_text())
        doc["events"][1]["matrix"][0][1] = "0.1000000000"
        with pytest.raises(ValidationError) as exc:
            parse_automaton(json.dumps(doc))
        assert "events[1].matrix[0][1]" in str(exc.value)

    def test_duplicate_event_name_rejected(self):
        doc = json.loads((DATA / "treatment_plant.json").read_text())
        doc["events"][1]["name"] = "a"
        with pytest.raises(ValidationError) as exc:
            parse_automaton(json.dumps(doc))
        assert str(exc.value) == "duplicate event names in ['a', 'a', 'c', 'd']"

    def test_ragged_matrix_rejected(self):
        doc = json.loads((DATA / "treatment_plant.json").read_text())
        doc["events"][0]["matrix"][2] = ["0", "1"]
        with pytest.raises(ValidationError) as exc:
            parse_automaton(json.dumps(doc))
        assert "matrix[2]" in str(exc.value)

    def test_not_json_rejected(self):
        with pytest.raises(ValidationError):
            parse_automaton("{not json")


class TestSpecDocuments:
    def test_state_set(self, admissible_set):
        spec = parse_spec((DATA / "admissible_set.json").read_text())
        assert isinstance(spec, StateSetSpec)
        assert spec.states == admissible_set

    def test_language(self, drift_language):
        spec = parse_spec((DATA / "drift_language.json").read_text())
        assert isinstance(spec, LanguageSpec)
        assert spec.language == drift_language

    def test_language_accepts_space_separated_strings(self):
        text = json.dumps(
            {
                "kind": "language",
                "pairs": [
                    {"string": "", "degree": "1"},
                    {"string": "a2 a1", "degree": "0.2"},
                    {"string": ["a2"], "degree": "0.3"},
                ],
            }
        )
        spec = parse_spec(text)
        assert spec.language.degree(("a2", "a1")) == spec.language.degree("a2 a1".split())

    def test_controller(self, reference_controller):
        spec = parse_spec((DATA / "reference_controller.json").read_text())
        assert isinstance(spec, ControllerSpec)
        assert spec.controller == reference_controller

    def test_witness(self):
        text = json.dumps(
            {
                "kind": "witness",
                "n": [["0.4", "0.1", "0"]],
                "n_prime": [["0.4", "0.1", "0"]],
                "p": [["0.9", "0.1", "0"], ["0.4", "0.1", "0"]],
            }
        )
        spec = parse_spec(text)
        assert isinstance(spec, WitnessSpec)
        assert spec.legal == (S("0.4 0.1 0"),)
        assert spec.p_set == (S("0.9 0.1 0"), S("0.4 0.1 0"))

    @pytest.mark.parametrize("given, missing", [("n_prime", "p"), ("p", "n_prime")])
    def test_witness_with_one_half_rejected(self, given, missing):
        text = json.dumps({"kind": "witness", "n": [["0.4", "0.1", "0"]], given: [["0.9", "0.1", "0"]]})
        with pytest.raises(ValidationError) as exc:
            parse_spec(text)
        assert str(exc.value) == f"{missing}: required field is missing"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            parse_spec(json.dumps({"kind": "mystery"}))

    def test_inline_state(self):
        assert parse_inline_state("state:[0,0.1,0.9]") == S("0 0.1 0.9")
        assert parse_inline_state("state:[ 0 , 0.1,0.9 ]") == S("0 0.1 0.9")
        with pytest.raises(ValidationError):
            parse_inline_state("state:0,0.1")

    @pytest.mark.parametrize("text, message", [
        ("state:[]", "inline state is empty"),
        ("state:[ ]", "inline state is empty"),
        ("state:[0.9,,0.1,0]", "malformed decimal: ''"),
        ("state:[,0.9]", "malformed decimal: ''"),
        ("state:[0.9, ]", "malformed decimal: ''"),
    ])
    def test_inline_state_with_an_empty_component_rejected(self, text, message):
        with pytest.raises(ValidationError) as exc:
            parse_inline_state(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "language", "pairs": [{"string": "a", "degree": "0.5"},
                                        {"string": "a", "degree": "0.1"}]},
         "pairs[1].string: string 'a' is listed twice"),
        ({"kind": "language", "pairs": [{"string": "a b", "degree": "0.5"},
                                        {"string": "a", "degree": "0.5"},
                                        {"string": ["a", "b"], "degree": "0"}]},
         "pairs[2].string: string 'a b' is listed twice"),
        ({"kind": "fsfc", "entries": [{"state": ["0.5", "1"], "event": "a", "value": "0.5"},
                                      {"state": ["0.50", "1.0"], "event": "a", "value": "0.1"}]},
         "entries[1]: state [0.5,1] with event 'a' is listed twice"),
    ])
    def test_a_repeated_entry_rejected(self, doc, message):
        with pytest.raises(ValidationError) as exc:
            parse_spec(json.dumps(doc))
        assert str(exc.value) == message

    def test_one_state_with_two_events_is_no_repeat(self):
        doc = {"kind": "fsfc", "entries": [{"state": ["0.5", "1"], "event": name, "value": "0.5"}
                                           for name in ("a", "b")]}
        assert len(parse_spec(json.dumps(doc)).controller.entries) == 2

    def test_controller_serialization_round_trips(self, reference_controller):
        text = serialize_controller(reference_controller)
        assert parse_spec(text).controller == reference_controller

    def test_language_serialization_round_trips(self, drift_language):
        text = serialize_language(drift_language)
        assert parse_spec(text).language == drift_language


class TestDotExport:
    def test_accessible_graph_has_nine_nodes_and_first_edge(self, treatment_plant):
        dot = export_dot(accessible_part(treatment_plant))
        assert dot.count("circle") == 9
        assert 'q0 [label="[0.9,0.1,0]",shape=doublecircle]' in dot
        # The a-transition out of the initial state.
        assert 'q0 -> q1 [label="a"]' in dot

    def test_empty_successor_graph_is_header_only(self, treatment_plant):
        dot = export_dot(build_successor_graph(treatment_plant, ()))
        assert dot == "digraph fuzzydes {\n  rankdir=LR;\n}\n"

    def test_successor_graph_labels_carry_scale_ranges(
        self, treatment_plant, admissible_set
    ):
        dot = export_dot(build_successor_graph(treatment_plant, admissible_set))
        assert 'label="a 0.1"' in dot  # forced-point scaling
        assert 'label="d 0.9..1"' in dot or 'label="d 1..1"' in dot

    def test_chosen_subgraph_edges_match_reference_selection(
        self, treatment_plant, admissible_set
    ):
        graph = build_successor_graph(treatment_plant, admissible_set)
        restricted = chosen_graph(graph, reference_subgraph())
        dot = export_dot(restricted)
        assert dot.count(" -> ") == len(restricted.edges) == 28

    def test_deterministic_text(self, treatment_plant, admissible_set):
        one = export_dot(build_successor_graph(treatment_plant, admissible_set))
        two = export_dot(build_successor_graph(treatment_plant, admissible_set))
        assert one == two

    def test_labels_escape_backslashes_and_quotes(self):
        aut = make_automaton(["s0"], ["1"], [make_event("go\\", [[1]]), make_event('say "hi"', [[1]])])
        header = 'digraph fuzzydes {\n  rankdir=LR;\n  q0 [label="[1]",shape=doublecircle];\n'
        assert export_dot(accessible_part(aut)) == header + (
            '  q0 -> q0 [label="go\\\\"];\n'
            '  q0 -> q0 [label="say \\"hi\\""];\n'
            "}\n"
        )
        assert export_dot(build_successor_graph(aut, (aut.initial,))) == header + (
            '  q0 -> q0 [label="go\\\\ 1..1"];\n'
            '  q0 -> q0 [label="say \\"hi\\" 1..1"];\n'
            "}\n"
        )
