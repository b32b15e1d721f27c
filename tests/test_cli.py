import contextlib
import hashlib
import importlib
import io
import json
import pathlib
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import fuzzydes.automaton as automaton
import fuzzydes.cli
import fuzzydes.possibility as possibility
import fuzzydes.statecontrol as statecontrol
from fuzzydes import closed_loop_graph, make_state, parse_spec, run_command
from conftest import DATA

S = lambda text: make_state(text.split())

PLANT = str(DATA / "treatment_plant.json")
DRIFT = str(DATA / "drift_plant.json")
CASCADE = str(DATA / "cascade_plant.json")
ADMISSIBLE = str(DATA / "admissible_set.json")
LANGUAGE = str(DATA / "drift_language.json")
CONTROLLER = str(DATA / "reference_controller.json")
GOLDEN = DATA.parent / "golden"
DIGESTS = json.loads((GOLDEN / "cli_golden_digests.json").read_text())
LANGUAGE_COMMANDS = ["check-language", "derive-supervisor", "bridge"]
# Every subcommand's arguments on a one-state plant with no events; EPSILON
# stands for the language {(): 1}.
EVENT_FREE_ARGS = {
    "reach": [],
    "member": ["--spec", "state:[1]"],
    "succ": ["--spec", "state:[1]"],
    "check-controllable": ["--spec", "state:[1]"],
    "synthesize": ["--spec", "state:[1]"],
    "check-language": ["--spec", "EPSILON"],
    "derive-supervisor": ["--spec", "EPSILON"],
    "bridge": ["--spec", "EPSILON"],
    "stability": ["--spec", "state:[1]"],
    "stabilize": ["--spec", "state:[1]"],
    "simulate": [],
    "export-dot": ["--spec", "state:[1]", "--what", "subgraph"],
}


def invoke(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_command_table_names_every_handler_and_only_those():
    """Each command's handler is _cmd_<command> ("-" read as "_") in the
    family module the table names, and no handler module holds another."""
    named = {
        (module.__name__, "_cmd_" + command.replace("-", "_"))
        for command, (module, _) in fuzzydes.cli._COMMANDS.items()
    }
    defined = {
        (module.__name__, name)
        for path in pathlib.Path(fuzzydes.cli.__file__).parent.glob("_cli_*.py")
        for module in [importlib.import_module(f"fuzzydes.{path.stem}")]
        for name in vars(module) if name.startswith("_cmd_")
    }
    assert defined == named


class TestReach:
    def test_json_report_lists_nine_bases_with_floors(self, capsys):
        code, out, _ = invoke(capsys, "reach", "--automaton", PLANT, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        floors = [entry["floor"] for entry in payload["entries"]]
        assert len(floors) == 9
        assert sorted(floors) == sorted(["1", "0.1"] + ["0"] * 7)

    def test_text_report(self, capsys):
        code, out, _ = invoke(capsys, "reach", "--automaton", PLANT)
        assert code == 0 and "floor" in out


class TestMember:
    def test_non_member_exits_one(self, capsys):
        code, out, _ = invoke(
            capsys, "member", "--automaton", PLANT, "--spec", "state:[0,0.1,0.9]"
        )
        assert code == 1
        assert "not reachable" in out

    def test_member_with_witness(self, capsys):
        code, out, _ = invoke(
            capsys,
            "member",
            "--automaton",
            PLANT,
            "--spec",
            "state:[0.1,0.1,0.1]",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["alpha"] == "0.1"


class TestSucc:
    def test_lists_pairs_per_state(self, capsys):
        code, out, _ = invoke(
            capsys, "succ", "--automaton", PLANT, "--spec", ADMISSIBLE, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["successors"]) == 8
        sink = payload["successors"][-1]
        assert sink["state"] == ["0.1", "0.1", "0.1"]
        assert len(sink["pairs"]) == 4


class TestControllableCommands:
    def test_check_controllable_affirms(self, capsys):
        code, out, _ = invoke(
            capsys, "check-controllable", "--automaton", PLANT, "--spec", ADMISSIBLE
        )
        assert code == 0
        assert "controllable" in out and "-->" in out

    def test_check_controllable_rejects_without_initial(self, capsys, tmp_path):
        spec = tmp_path / "p.json"
        spec.write_text(
            json.dumps({"kind": "state_set", "states": [["0.1", "0.1", "0.1"]]})
        )
        code, out, _ = invoke(
            capsys, "check-controllable", "--automaton", PLANT, "--spec", str(spec)
        )
        assert code == 1
        assert "initial" in out

    @pytest.mark.parametrize("command", [
        ["check-controllable"], ["synthesize"], ["export-dot", "--what", "subgraph"],
    ])
    def test_the_empty_set_misses_the_initial_state(self, command, capsys, tmp_path):
        # No controller reaches exactly the empty set, so every command
        # gives the same negative verdict.
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"kind": "state_set", "states": []}))
        code, out, err = invoke(capsys, *command, "--automaton", PLANT, "--spec", str(spec),
                                "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "controllable": False,
            "obstruction": "the initial state is not a member of the candidate set",
        }

    def test_synthesize_emits_loadable_controller(self, capsys, treatment_plant, admissible_set):
        code, out, _ = invoke(
            capsys,
            "synthesize",
            "--automaton",
            PLANT,
            "--spec",
            ADMISSIBLE,
            "--format",
            "json",
        )
        assert code == 0
        controller = parse_spec(out).controller
        assert set(closed_loop_graph(treatment_plant, controller).vertices) == set(admissible_set)


class TestLanguageCommands:
    def test_check_language_affirms(self, capsys):
        code, out, _ = invoke(
            capsys, "check-language", "--automaton", DRIFT, "--spec", LANGUAGE
        )
        assert code == 0 and "controllable" in out

    def test_check_language_rejects_with_counterexample(self, capsys, tmp_path):
        spec = tmp_path / "k.json"
        spec.write_text(
            json.dumps(
                {
                    "kind": "language",
                    "pairs": [
                        {"string": [], "degree": "1"},
                        {"string": ["d"], "degree": "0.5"},
                    ],
                }
            )
        )
        code, out, _ = invoke(
            capsys,
            "check-language",
            "--automaton",
            PLANT,
            "--spec",
            str(spec),
            "--format",
            "json",
        )
        assert code == 1
        assert json.loads(out)["counterexample"]

    def test_derive_supervisor_table(self, capsys):
        code, out, _ = invoke(
            capsys,
            "derive-supervisor",
            "--automaton",
            DRIFT,
            "--spec",
            LANGUAGE,
            "--format",
            "json",
        )
        assert code == 0
        table = json.loads(out)["table"]
        lookup = {
            (tuple(row["string"]), row["event"]): row["value"] for row in table
        }
        assert lookup[((), "a1")] == "0.2"
        assert lookup[(("a2",), "a1")] == "0.2"

    def test_bridge_reports_inconsistency(self, capsys):
        code, out, _ = invoke(
            capsys, "bridge", "--automaton", DRIFT, "--spec", LANGUAGE, "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["language_controllable"] is True
        assert payload["passed_states_controllable"] is True
        assert payload["consistent"] is False
        assert payload["inconsistency"] == {
            "first": ["a2"],
            "second": ["a3"],
            "event": "a1",
        }

    def test_bridge_synthesizes_for_consistent_language(self, capsys, tmp_path):
        spec = tmp_path / "k.json"
        spec.write_text(
            json.dumps(
                {
                    "kind": "language",
                    "pairs": [
                        {"string": [], "degree": "1"},
                        {"string": ["a1"], "degree": "0.2"},
                    ],
                }
            )
        )
        code, out, _ = invoke(
            capsys, "bridge", "--automaton", DRIFT, "--spec", str(spec), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["controller"]["entries"]

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_bridge_rejects_the_empty_language(self, capsys, tmp_path, fmt):
        # No controller realizes the empty language (every closed loop reaches
        # the initial state), so bridge exits 2 as derive-supervisor does.
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"kind": "language", "pairs": []}))
        argv = ["--automaton", DRIFT, "--spec", str(spec), "--format", fmt]
        assert invoke(capsys, "bridge", *argv) == (
            2, "", "error: the empty language has no realizing controller\n"
        )
        assert invoke(capsys, "derive-supervisor", *argv) == (
            2, "", "error: the empty language has no realizing supervisor\n"
        )


class TestStabilityCommands:
    def test_stability_affirms_absorbing_target(self, capsys, tmp_path):
        spec = tmp_path / "n.json"
        spec.write_text(
            json.dumps({"kind": "state_set", "states": [["0.4", "0.1", "0"]]})
        )
        code, out, _ = invoke(
            capsys, "stability", "--automaton", DRIFT, "--spec", str(spec)
        )
        assert code == 0 and "yes" in out

    def test_stability_rejects_initial_only(self, capsys, tmp_path):
        spec = tmp_path / "n.json"
        spec.write_text(
            json.dumps({"kind": "state_set", "states": [["0.9", "0.1", "0"]]})
        )
        code, out, _ = invoke(
            capsys, "stability", "--automaton", DRIFT, "--spec", str(spec)
        )
        assert code == 1

    def test_stability_runs_on_the_coded_graph(self, capsys, monkeypatch):
        # Every decoded graph, accessible_part's included, goes through _decode_graph.
        monkeypatch.setattr(automaton, "_decode_graph", lambda graph: pytest.fail("graph decoded"))
        code, out, _ = invoke(
            capsys, "stability", "--automaton", DRIFT, "--spec", "state:[0.4,0.1,0]", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["infimal_attractor"] == [["0.4", "0.1", "0"]]

    def test_stabilize_searches_witness(self, capsys, tmp_path):
        spec = tmp_path / "w.json"
        spec.write_text(
            json.dumps({"kind": "witness", "n": [["0.4", "0.1", "0"]]})
        )
        code, out, _ = invoke(
            capsys, "stabilize", "--automaton", DRIFT, "--spec", str(spec), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["stabilizable"] is True
        assert payload["target_set"] == [["0.4", "0.1", "0"]]

    def test_stabilize_verifies_supplied_witness(self, capsys, tmp_path):
        spec = tmp_path / "w.json"
        spec.write_text(
            json.dumps(
                {
                    "kind": "witness",
                    "n": [["0.4", "0.1", "0"]],
                    "n_prime": [["0.4", "0.1", "0"]],
                    "p": [["0.9", "0.1", "0"], ["0.4", "0.1", "0"]],
                }
            )
        )
        code, out, _ = invoke(
            capsys, "stabilize", "--automaton", DRIFT, "--spec", str(spec)
        )
        assert code == 0 and "stabilizing controller" in out

    @staticmethod
    def _validations(monkeypatch):
        """The state sets validated from now on, in every fuzzydes module
        that binds the validator."""
        validated, real_validate = [], automaton._validated_codes
        for name, module in list(sys.modules.items()):
            if name.startswith("fuzzydes") and getattr(module, "_validated_codes", None) is real_validate:
                monkeypatch.setattr(module, "_validated_codes",
                                    lambda aut, states: validated.append(states) or real_validate(aut, states))
        return validated

    def test_supplied_witness_is_verified_once(self, capsys, monkeypatch):
        # One controllability decision on the funnel set P, and P validated
        # once.
        decided, real_decide = [], statecontrol._decide
        monkeypatch.setattr(statecontrol, "_decide", lambda *a: decided.append(a) or real_decide(*a))
        validated = self._validations(monkeypatch)
        path = GOLDEN / "drift_witness_given.json"
        code, out, _ = invoke(capsys, "stabilize", "--automaton", DRIFT, "--spec", str(path))
        assert code == 0 and "stabilizing controller" in out
        p_set = tuple(map(make_state, json.loads(path.read_text())["p"]))
        assert len(decided) == 1 and validated.count(p_set) == 1

    def test_searched_witness_validates_only_the_legal_set(self, capsys, monkeypatch):
        # The search builds N' and P from codes it holds and verifies them
        # unvalidated; only N is validated, once.
        validated = self._validations(monkeypatch)
        path = GOLDEN / "drift_witness_search.json"
        code, out, _ = invoke(capsys, "stabilize", "--automaton", DRIFT, "--spec", str(path))
        assert code == 0 and "stabilizing controller" in out
        assert validated == [tuple(map(make_state, json.loads(path.read_text())["n"]))]

    def test_target_set_outside_the_legal_set_exits_two(self, capsys, tmp_path):
        spec = tmp_path / "w.json"
        spec.write_text(
            json.dumps(
                {
                    "kind": "witness",
                    "n": [["0.4", "0.1", "0"]],
                    "n_prime": [["0.9", "0.1", "0"]],
                    "p": [["0.9", "0.1", "0"]],
                }
            )
        )
        code, out, err = invoke(
            capsys, "stabilize", "--automaton", DRIFT, "--spec", str(spec)
        )
        assert code == 2 and out == "" and "not contained in the legal set" in err

    def test_stabilize_inconclusive(self, capsys, tmp_path):
        spec = tmp_path / "w.json"
        spec.write_text(
            json.dumps({"kind": "witness", "n": [["0.2", "0.3", "0.4"]]})
        )
        code, out, _ = invoke(
            capsys, "stabilize", "--automaton", DRIFT, "--spec", str(spec)
        )
        assert code == 1 and "inconclusive" in out

    @pytest.mark.xfail(strict=True, reason="K6, ROADMAP Direction 2")
    def test_stabilize_on_an_event_free_plant_is_a_certain_no(self, capsys, tmp_path):
        plant = tmp_path / "plant.json"
        plant.write_text(json.dumps({"n": 1, "state_labels": ["s0"], "initial": ["1"], "events": []}))
        code, out, _ = invoke(
            capsys, "stabilize", "--automaton", str(plant), "--spec", "state:[0.5]", "--format", "json"
        )
        assert (code, json.loads(out)["stabilizable"]) == (1, False)


class TestSimulate:
    def test_seeded_run_is_deterministic(self, capsys):
        first = invoke(
            capsys, "simulate", "--automaton", PLANT, "--seed", "3", "--steps", "6"
        )
        second = invoke(
            capsys, "simulate", "--automaton", PLANT, "--seed", "3", "--steps", "6"
        )
        assert first == second
        assert first[0] == 0

    def test_scripted_closed_loop(self, capsys):
        code, out, _ = invoke(
            capsys,
            "simulate",
            "--automaton",
            PLANT,
            "--spec",
            CONTROLLER,
            "--string",
            "b a",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trajectory"][1]["state"] == ["0.1", "0.1", "0.1"]

    def test_halt_reported_when_disabled(self, capsys):
        code, out, _ = invoke(
            capsys,
            "simulate",
            "--automaton",
            PLANT,
            "--spec",
            CONTROLLER,
            "--string",
            "a a",
        )
        # Reference controller disables a at [0.1,0.9,0.1].
        assert code == 0 and "halted" in out

    def test_open_loop_degree_reaches_zero(self, capsys):
        # u takes [1,0,0] to [0,0.8,0.8] and that to the all-zero vector,
        # which the open loop keeps, at degree 0, through the next event.
        code, out, _ = invoke(
            capsys, "simulate", "--automaton", CASCADE, "--string", "u u g", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["trajectory"]
        assert [row["degree"] for row in rows] == ["1", "0.8", "0", "0"]
        assert rows[-1]["state"] == ["0", "0", "0"]
        code, out, _ = invoke(capsys, "simulate", "--automaton", CASCADE, "--string", "u u g")
        assert out.splitlines()[3:] == [
            "  2: u -> [0,0,0] (degree 0)",
            "  3: g -> [0,0,0] (degree 0)",
        ]


class TestExportDot:
    def test_accessible_dot_default(self, capsys):
        code, out, _ = invoke(capsys, "export-dot", "--automaton", PLANT, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph") and out.count("circle") == 9

    def test_successor_dot(self, capsys):
        code, out, _ = invoke(
            capsys,
            "export-dot",
            "--automaton",
            PLANT,
            "--spec",
            ADMISSIBLE,
            "--what",
            "successor",
            "--format",
            "dot",
        )
        assert code == 0 and out.count(" -> ") == 42

    def test_subgraph_dot_for_uncontrollable_set_is_negative(self, capsys, tmp_path):
        spec = tmp_path / "p.json"
        spec.write_text(
            json.dumps({"kind": "state_set", "states": [["0.1", "0.1", "0.1"]]})
        )
        code, out, _ = invoke(
            capsys,
            "export-dot",
            "--automaton",
            PLANT,
            "--spec",
            str(spec),
            "--what",
            "subgraph",
        )
        assert code == 1

    def test_subgraph_dot_decides_before_it_draws(self, capsys, monkeypatch):
        # A set that is not controllable gets its obstruction, and no
        # successor graph is built for it.
        monkeypatch.setattr(statecontrol, "build_successor_graph",
                            lambda *args: pytest.fail("successor graph built"))
        code, out, err = invoke(capsys, "export-dot", "--automaton", PLANT, "--spec",
                                "state:[0.9,0.1,0]", "--what", "subgraph", "--format", "json")
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "controllable": False,
            "obstruction": "event 'b' is feasible and partially uncontrollable at [0.9,0.1,0] "
                           "but has no admissible target in the set",
        }

    def test_byte_identical_reports(self, capsys):
        first = invoke(capsys, "export-dot", "--automaton", PLANT, "--format", "dot")
        second = invoke(capsys, "export-dot", "--automaton", PLANT, "--format", "dot")
        assert first == second


# Each command that reads a state set, given one malformed state (a wrong
# length, the zero vector, and a repeat where it takes a set), with the
# message it must exit 2 with.  The witness cases put the malformed state in
# each of n, n_prime and p of a witness that is well formed otherwise.
WELL_FORMED = [["0.9", "0.1", "0"], ["0.1", "0.9", "0.1"]]
MALFORMED = {
    "length": (["0.1", "0.1"], "state [0.1,0.1] has 2 components, expected 3"),
    "zero": (["0", "0", "0"], "the all-zero vector is excluded from the state set"),
    "repeat": (WELL_FORMED[0], "duplicate state [0.9,0.1,0] in the set"),
}
WITNESS = {"kind": "witness", "n": WELL_FORMED, "n_prime": WELL_FORMED[:1], "p": WELL_FORMED}
MALFORMED_SPECS = [
    pytest.param(["member"], "state:[0.1,0.1]", MALFORMED["length"][1], id="member-length"),
    pytest.param(["member"], "state:[0,0,0]", MALFORMED["zero"][1], id="member-zero"),
    # An empty component of the inline shorthand is a malformed decimal, not
    # a component to drop.
    *(
        pytest.param([command], inline, "malformed decimal: ''", id=f"{command}-{name}")
        for command in ("member", "stability")
        for name, inline in (("empty-component", "state:[0.9,,0.1,0]"),
                             ("trailing-comma", "state:[0.9,0.1,0,]"))
    ),
    pytest.param(["stability"], "state:[0.1,0.1]", MALFORMED["length"][1],
                 id="stability-inline-length"),
    *(
        pytest.param(command, {"kind": "state_set", "states": [WELL_FORMED[0], state]}, message,
                     id=f"{'-'.join(command)}-{kind}")
        for command in (["succ"], ["check-controllable"], ["synthesize"], ["stability"],
                        ["stabilize"], ["export-dot", "--what", "successor"],
                        ["export-dot", "--what", "subgraph"])
        for kind, (state, message) in MALFORMED.items()
    ),
    *(
        pytest.param(["stabilize"], {**WITNESS, field: WITNESS[field] + [state]}, message,
                     id=f"witness-{field}-{kind}")
        for field in ("n", "n_prime", "p")
        for kind, (state, message) in MALFORMED.items()
    ),
]


class TestExitCodeContract:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.update(initial=["0", "0", "0"]),
            lambda doc: doc["events"][0].update(name="b"),
            lambda doc: doc["events"][0]["matrix"][0].__setitem__(0, "0.1234567891"),
            lambda doc: doc["events"][0]["matrix"].pop(),
            lambda doc: doc.update(n="three"),
            lambda doc: doc.update(
                n=True, state_labels=["x"], initial=["1"], events=[{"name": "a", "matrix": [["1"]]}]
            ),
        ],
    )
    def test_malformed_automata_exit_two(self, capsys, tmp_path, mutate):
        doc = json.loads((DATA / "treatment_plant.json").read_text())
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = invoke(capsys, "reach", "--automaton", str(path))
        assert code == 2 and err

    @pytest.mark.parametrize("flag", ["--automaton", "--spec"])
    def test_deeply_nested_document_exits_two(self, capsys, tmp_path, flag):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        argv = ["succ", "--automaton", PLANT, "--spec", ADMISSIBLE]
        argv[argv.index(flag) + 1] = str(path)
        code, _, err = invoke(capsys, *argv)
        assert code == 2 and err

    @pytest.mark.parametrize("flag", ["--automaton", "--spec"])
    def test_integer_past_the_int_string_limit_exits_two(self, capsys, tmp_path, flag):
        # json.loads raises a plain ValueError for an int literal of more
        # than 4,300 digits.  The message wording varies across versions.
        huge = "1" + "0" * 4300
        docs = {"--automaton": f'{{"n": {huge}}}',
                "--spec": f'{{"kind": "state_set", "states": [[{huge}]]}}'}
        path = tmp_path / "huge.json"
        path.write_text(docs[flag])
        argv = ["succ", "--automaton", PLANT, "--spec", ADMISSIBLE]
        argv[argv.index(flag) + 1] = str(path)
        code, _, err = invoke(capsys, *argv)
        assert code == 2 and err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--automaton", "--spec"])
    def test_non_utf8_document_exits_two(self, capsys, tmp_path, flag):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"n": 3, "state_labels": ["h\xf6he"]}')
        argv = ["succ", "--automaton", PLANT, "--spec", ADMISSIBLE]
        argv[argv.index(flag) + 1] = str(path)
        code, _, err = invoke(capsys, *argv)
        assert code == 2 and err

    def test_controller_entries_not_a_list_exits_two(self, capsys, tmp_path):
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"kind": "fsfc", "entries": 5}))
        code, _, err = invoke(capsys, "simulate", "--automaton", PLANT, "--spec", str(spec))
        assert code == 2 and err

    def test_controller_entry_state_of_wrong_length_exits_two(self, capsys, tmp_path):
        # A one-component entry state on the three-state plant matches no
        # closed-loop state, so a run would silently ignore it.
        spec = tmp_path / "f.json"
        spec.write_text(json.dumps({"kind": "fsfc", "entries": [
            {"state": ["0.5"], "event": "a", "value": "0.5"},
        ]}))
        code, out, err = invoke(
            capsys, "simulate", "--automaton", PLANT, "--spec", str(spec), "--string", "a b"
        )
        assert (code, out) == (2, "") and "components" in err

    @pytest.mark.parametrize("command, spec, message", MALFORMED_SPECS)
    def test_a_malformed_state_exits_two_with_its_message(self, capsys, tmp_path, command, spec,
                                                          message):
        if isinstance(spec, dict):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            spec = str(path)
        code, out, err = invoke(capsys, *command, "--automaton", PLANT, "--spec", spec)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_empty_event_name_exits_two(self, capsys, tmp_path):
        doc = json.loads((DATA / "treatment_plant.json").read_text())
        doc["events"][0]["name"] = ""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(capsys, "reach", "--automaton", str(path))
        assert (code, out, err) == (2, "", "error: events[0].name: expected a non-empty string\n")

    @pytest.mark.parametrize("command,spec,message", [
        ("check-language", {"kind": "language", "pairs": 5},
         "pairs: expected a list of {string, degree} objects"),
        ("check-language", {"kind": "language", "pairs": [{"string": "a"}]},
         "pairs[0]: expected an object with string and degree"),
        ("check-language", {"kind": "language", "pairs": [{"string": 5, "degree": "1"}]},
         "pairs[0].string: expected an event-name list or space-separated string"),
        ("check-language", {"kind": "language", "pairs": [{"string": "a", "degree": "0.5"},
                                                           {"string": ["a"], "degree": "0.1"}]},
         "pairs[1].string: string 'a' is listed twice"),
        ("check-language", {"kind": "language", "pairs": [{"string": "", "degree": "1"},
                                                           {"string": "a b", "degree": "0.5"},
                                                           {"string": [], "degree": "1"}]},
         "pairs[2].string: string '' is listed twice"),
        ("simulate", {"kind": "fsfc", "entries": [5]}, "entries[0]: expected an object"),
        ("simulate", {"kind": "fsfc", "entries": [
            {"state": ["0.9", "0.1", "0"], "event": "a", "value": "0.5"},
            {"state": ["0.9", "0.1", "0"], "event": "b", "value": "0.5"},
            {"state": ["0.90", "0.1", "0"], "event": "a", "value": "1"}]},
         "entries[2]: state [0.9,0.1,0] with event 'a' is listed twice"),
        ("simulate", {"kind": "fsfc", "entries": [{"state": ["1", "0", "0"], "event": 3, "value": "0"}]},
         "entries[0].event: expected an event name"),
        ("stabilize", {"kind": "witness"}, "n: required field is missing"),
        ("stabilize", {"kind": "witness", "n": "x"}, "n: expected a list of state vectors"),
        ("stabilize", {"kind": "witness", "n": [["0.4", "0.1", "0"]], "n_prime": [["0.9", "0.1", "0"]]},
         "p: required field is missing"),
        ("stabilize", {"kind": "witness", "n": [["0.4", "0.1", "0"]], "p": [["0.9", "0.1", "0"]]},
         "n_prime: required field is missing"),
        ("member", "state:[]", "inline state is empty"),
        ("check-language", "state:[0.5,0.5,0.5]", "check-language requires a language spec, got StateSetSpec"),
        ("stabilize", None, "stabilize requires --spec with a witness or state_set document"),
        ("stabilize", LANGUAGE, "stabilize requires a witness or state_set spec"),
        ("simulate", ADMISSIBLE, "simulate takes an fsfc spec when --spec is given"),
    ])
    def test_wrong_spec_exits_two_with_its_message(self, capsys, tmp_path, command, spec, message):
        if isinstance(spec, dict):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            spec = str(path)
        argv = [command, "--automaton", PLANT] + ([] if spec is None else ["--spec", spec])
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_file_exits_two(self, capsys):
        code, _, err = invoke(capsys, "reach", "--automaton", "no-such-file.json")
        assert code == 2 and err

    def test_unknown_subcommand_exits_two(self, capsys):
        code, _, _ = invoke(capsys, "frobnicate", "--automaton", PLANT)
        assert code == 2

    def test_missing_spec_exits_two(self, capsys):
        code, _, err = invoke(capsys, "member", "--automaton", PLANT)
        assert code == 2 and err

    def test_negative_budget_is_a_usage_error(self, capsys, tmp_path):
        spec = tmp_path / "w.json"
        spec.write_text(json.dumps({"kind": "witness", "n": [["0.4", "0.1", "0"]]}))
        code, out, err = invoke(
            capsys, "stabilize", "--automaton", DRIFT, "--spec", str(spec), "--budget", "-1"
        )
        assert code == 2 and out == "" and "usage:" in err and "--budget" in err

    def test_negative_steps_is_a_usage_error(self, capsys):
        code, out, err = invoke(capsys, "simulate", "--automaton", PLANT, "--steps", "-5")
        assert code == 2 and out == "" and "usage:" in err and "--steps" in err

    def test_non_integer_steps_is_a_usage_error(self, capsys):
        code, out, err = invoke(capsys, "simulate", "--automaton", PLANT, "--steps", "x")
        assert code == 2 and out == "" and "usage:" in err
        assert err.endswith("argument --steps: invalid int value: 'x'\n")

    @pytest.mark.parametrize("command,max_len", [("reach", "-1"), ("check-language", "-3")])
    def test_negative_max_len_is_a_usage_error(self, capsys, tmp_path, command, max_len):
        # The empty language skips the horizon guard, so only the parser can
        # reject the value.
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"kind": "language", "pairs": []}))
        code, out, err = invoke(
            capsys, command, "--automaton", DRIFT, "--spec", str(spec), "--max-len", max_len
        )
        assert code == 2 and out == "" and "usage:" in err and "--max-len" in err

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("command", LANGUAGE_COMMANDS)
    def test_max_len_below_the_support_depth_plus_one_exits_two(self, capsys, command, fmt):
        argv = [command, "--automaton", "@golden/lang15_plant.json",
                "--spec", "@golden/lang15_consistent.json", "--format", fmt]
        resolved = [str(DATA.parent / a[1:]) if a.startswith("@") else a for a in argv]
        # The language's support depth is 5, so 6 is the least value it takes.
        assert invoke(capsys, *resolved, "--max-len", "5") == (
            2, "", "error: max_len 5 is below the support depth plus one (6)\n"
        )
        code, out, err = invoke(capsys, *resolved, "--max-len", "6")
        recorded = next(case for case in DIGESTS if case["argv"] == argv)
        data = out.encode("utf-8")
        assert (code, hashlib.sha256(data).hexdigest(), len(data), err) == (
            recorded["code"], recorded["sha256"], recorded["bytes"], ""
        )

    @pytest.mark.parametrize(
        "max_len,message",
        [
            ("2", "error: max_len 2 is below the support depth plus one (3)\n"),
            ("3", "error: unknown event 'zz'\n"),
        ],
    )
    @pytest.mark.parametrize("command", LANGUAGE_COMMANDS)
    def test_max_len_guard_comes_before_the_event_check(
        self, capsys, tmp_path, command, max_len, message
    ):
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"kind": "language", "pairs": [
            {"string": [], "degree": "1"},
            {"string": ["zz"], "degree": "0.5"},
            {"string": ["zz", "a1"], "degree": "0.5"},
        ]}))
        assert invoke(
            capsys, command, "--automaton", DRIFT, "--spec", str(spec), "--max-len", max_len
        ) == (2, "", message)

    @pytest.mark.parametrize("command", LANGUAGE_COMMANDS)
    def test_max_len_guard_skips_the_empty_language(self, capsys, tmp_path, command):
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"kind": "language", "pairs": []}))
        argv = [command, "--automaton", DRIFT, "--spec", str(spec)]
        assert invoke(capsys, *argv, "--max-len", "0") == invoke(capsys, *argv)

    @pytest.mark.parametrize("command", list(EVENT_FREE_ARGS))
    def test_event_free_plant_keeps_the_exit_code_contract(self, capsys, tmp_path, command):
        plant = tmp_path / "plant.json"
        plant.write_text(json.dumps({"n": 1, "state_labels": ["s0"], "initial": ["1"], "events": []}))
        epsilon = tmp_path / "k.json"
        epsilon.write_text(json.dumps({"kind": "language", "pairs": [{"string": [], "degree": "1"}]}))
        extra = [str(epsilon) if arg == "EPSILON" else arg for arg in EVENT_FREE_ARGS[command]]
        code, out, err = invoke(capsys, command, "--automaton", str(plant), *extra)
        if command == "simulate":
            # A random script has no event to draw from.
            assert code == 2 and out == "" and err.startswith("error: ")
            for argv in (["--steps", "0"], ["--string", ""]):
                assert invoke(capsys, command, "--automaton", str(plant), *argv)[0] == 0
        else:
            assert code in (0, 1, 2)

    def test_dot_format_restricted(self, capsys):
        code, _, err = invoke(capsys, "reach", "--automaton", PLANT, "--format", "dot")
        assert code == 2 and err

    @pytest.mark.parametrize("command, entry, extra", [
        ("reach", "reach_family", []),
        ("check-controllable", "check_controllable", ["--spec", ADMISSIBLE]),
        ("stability", "infimal_attractor", ["--spec", ADMISSIBLE]),
    ])
    def test_dot_format_is_refused_before_any_analysis(self, capsys, monkeypatch, command, entry, extra):
        def analysis(*args, **kwargs):
            raise AssertionError(f"{entry} ran under --format dot")

        # The CLI calls each analysis through its owning module.
        monkeypatch.setattr(sys.modules[getattr(fuzzydes, entry).__module__], entry, analysis)
        code, out, err = invoke(capsys, command, "--automaton", PLANT, *extra, "--format", "dot")
        assert (code, out) == (2, "")
        assert err == "error: --format dot is only available for export-dot\n"

    def test_dot_format_without_a_graph_prints_the_negative_verdict(self, capsys, tmp_path):
        spec = tmp_path / "p.json"
        spec.write_text(json.dumps({"kind": "state_set", "states": [["0.1", "0.1", "0.1"]]}))
        argv = ["export-dot", "--automaton", PLANT, "--spec", str(spec), "--what", "subgraph"]
        dot = invoke(capsys, *argv, "--format", "dot")
        assert dot == invoke(capsys, *argv, "--format", "text")
        assert dot[0] == 1 and dot[1].startswith("not controllable: ") and dot[2] == ""

    def test_negative_verdict_never_conflated_with_error(self, capsys):
        # Same command shape: one is a clean negative (1), one a parse error (2).
        negative, _, _ = invoke(
            capsys, "member", "--automaton", PLANT, "--spec", "state:[0,0.1,0.9]"
        )
        error, _, _ = invoke(
            capsys, "member", "--automaton", PLANT, "--spec", "state:[0,0.1]"
        )
        assert negative == 1 and error == 2


class TestOutFile:
    def test_unwritable_out_path_exits_two(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "report.json"
        code, out, err = invoke(capsys, "reach", "--automaton", PLANT, "--out", str(target))
        assert code == 2 and out == "" and err

    def test_report_written_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys,
            "reach",
            "--automaton",
            PLANT,
            "--format",
            "json",
            "--out",
            str(target),
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["entries"]


# The boundary fuzz mutates the spec documents under data/ and golden/ (each
# a few hundred bytes at most) together with the plant each one is written for,
# and runs a subcommand that takes the spec's kind.
FUZZ_SPECS = sorted(
    [DATA / name for name in ("admissible_set.json", "reference_controller.json", "drift_language.json")]
    + [p for prefix in ("cascade", "drift", "treatment") for p in GOLDEN.glob(prefix + "_*.json")]
)
FUZZ_COMMANDS = {
    "state_set": ["member", "succ", "check-controllable", "synthesize", "stability", "stabilize",
                  "export-dot"],
    "language": ["check-language", "derive-supervisor", "bridge"],
    "fsfc": ["simulate"],
    "witness": ["stabilize"],
}
FUZZ_VALUES = [None, True, 3, 0.5, -1, "x", "", [], {}, "1", "1.5", "-0.1", "2", "1e-3",
               "0.1234567891", "NaN", "0.5.5", 10**12]


def _fuzz_plant(spec):
    for prefix in ("cascade", "drift"):
        if spec.name.startswith(prefix):
            return DATA / f"{prefix}_plant.json"
    return DATA / "treatment_plant.json"


def _mutate(data, doc):
    """One drawn boundary mutation at a drawn place in a JSON document: drop a
    key or an item, swap in a value of another type, an out-of-range or
    over-precise decimal, change a list's length, or nest deeply."""

    def key(node):
        return data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))

    path, node = [], doc
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        path.append(key(node))
        node = node[path[-1]]
    kind = data.draw(st.sampled_from(["drop", "value", "length", "nest"]))
    if kind == "drop" and isinstance(node, (dict, list)) and node:
        node.pop(key(node))
        return doc
    if kind == "length" and isinstance(node, list):
        if node and data.draw(st.booleans()):
            node.append(node[-1])
        else:
            node[:] = node[:-1]
        return doc
    if kind == "nest":
        new = node
        for _ in range(data.draw(st.sampled_from([1, 3, 200]))):
            new = [new]
    else:
        new = data.draw(st.sampled_from(FUZZ_VALUES))
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


class TestBoundaryFuzz:
    @settings(max_examples=300)
    @given(st.data())
    def test_mutated_documents_keep_the_exit_code_contract(self, data):
        # A regression net: every exit is 0, 1 or 2 and no exception escapes.
        spec_path = data.draw(st.sampled_from(FUZZ_SPECS))
        docs = [json.loads(p.read_text()) for p in (_fuzz_plant(spec_path), spec_path)]
        command = data.draw(st.sampled_from(["reach"] + FUZZ_COMMANDS[docs[1]["kind"]]))
        for i in range(2):
            for _ in range(data.draw(st.integers(0, 2))):
                docs[i] = _mutate(data, docs[i])
        with tempfile.TemporaryDirectory() as tmp:
            plant, spec = pathlib.Path(tmp, "plant.json"), pathlib.Path(tmp, "spec.json")
            plant.write_text(json.dumps(docs[0]))
            spec.write_text(json.dumps(docs[1]))
            argv = [command, "--automaton", str(plant), "--spec", str(spec),
                    "--format", data.draw(st.sampled_from(["json", "text"]))]
            if command == "export-dot":
                argv += ["--what", data.draw(st.sampled_from(["accessible", "successor", "subgraph"]))]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = run_command(argv)
        assert code in (0, 1, 2)


class TestInProcessReport:
    """The report goes to the sys.stdout of the moment, so a caller that
    redirects it in process (after importing fuzzydes.cli) gets all of it
    and the process's own descriptors get nothing."""

    @pytest.mark.parametrize("argv", [
        ["reach", "--automaton", PLANT, "--format", "json"],
        ["check-controllable", "--automaton", PLANT, "--spec", ADMISSIBLE, "--format", "json"],
        ["stabilize", "--automaton", DRIFT, "--spec", str(GOLDEN / "drift_legal.json"), "--format", "json"],
        ["bridge", "--automaton", DRIFT, "--spec", str(GOLDEN / "drift_consistent_language.json"),
         "--format", "json"],
    ])
    def test_nothing_reaches_the_descriptors(self, argv, capfd):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = fuzzydes.cli.run_command(argv)
        out, err = capfd.readouterr()
        assert code == 0
        assert isinstance(json.loads(buffer.getvalue()), dict)
        assert (out, err) == ("", "")


def counted_compositions(monkeypatch) -> list:
    """A list that grows by one at each maxmin_compose call made through
    any fuzzydes module that binds it."""
    calls = []
    real = possibility.maxmin_compose

    def counted(*args):
        calls.append(1)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("fuzzydes") and getattr(module, "maxmin_compose", None) is real:
            monkeypatch.setattr(module, "maxmin_compose", counted)
    return calls


class TestLanguageCommandsCheckOnce:
    """Compositions made by each language command on lang15, counted in
    every fuzzydes module that binds maxmin_compose: the library functions
    run no check the command has already run."""

    @pytest.mark.parametrize("command, spec, exit_code, compositions", [
        ("check-language", "lang15_consistent", 0, 972),
        ("derive-supervisor", "lang15_consistent", 0, 972),
        ("bridge", "lang15_consistent", 0, 1002),
        ("bridge", "lang15_inconsistent", 1, 1005),
    ])
    def test_compositions(self, command, spec, exit_code, compositions, monkeypatch, capsys):
        calls = counted_compositions(monkeypatch)
        code, _, _ = invoke(capsys, command, "--automaton", str(GOLDEN / "lang15_plant.json"),
                            "--spec", str(GOLDEN / f"{spec}.json"))
        assert code == exit_code and len(calls) == compositions


class TestStabilizeExpandsOnce:
    """Compositions made by each stabilize query, counted as the language
    commands' are.  The verifier expands the target set and the funnel set
    once each, shares the funnel's expansion between the controllability
    decision and the choice check, and reads the funnel's closed loop from
    its chosen edges instead of exploring the plant under it.  The search
    expands each candidate state once, every event, and keeps the forced
    ones where it needs them; the search that finds no witness runs no
    verifier."""

    @pytest.mark.parametrize("plant, spec, budget, exit_code, compositions", [
        ("drift_plant", "drift_witness_given", [], 0, 9),
        ("drift_plant", "drift_witness_search", [], 0, 27),
        ("cascade_plant", "cascade_witness", [], 0, 12),
        ("cascade_plant", "cascade_legal", [], 0, 34),
        ("drift_plant", "drift_witness_inconclusive", ["--budget", "50"], 1, 30),
    ])
    def test_compositions(self, plant, spec, budget, exit_code, compositions, monkeypatch, capsys):
        calls = counted_compositions(monkeypatch)
        code, _, _ = invoke(capsys, "stabilize", "--automaton", str(DATA / f"{plant}.json"),
                            "--spec", str(GOLDEN / f"{spec}.json"), *budget)
        assert code == exit_code and len(calls) == compositions
