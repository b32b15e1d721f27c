import json

import pytest

import fuzzydes.stability as stability
from fuzzydes import closed_loop_reachable, make_state, parse_spec, run_command
from conftest import DATA

S = lambda text: make_state(text.split())

PLANT = str(DATA / "treatment_plant.json")
DRIFT = str(DATA / "drift_plant.json")
ADMISSIBLE = str(DATA / "admissible_set.json")
LANGUAGE = str(DATA / "drift_language.json")
CONTROLLER = str(DATA / "reference_controller.json")
GOLDEN = DATA.parent / "golden"


def invoke(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        assert set(closed_loop_reachable(treatment_plant, controller)) == set(admissible_set)


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

    def test_supplied_witness_is_verified_once(self, capsys, monkeypatch):
        calls = []
        original = stability.check_controllable

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(stability, "check_controllable", counted)
        code, out, _ = invoke(
            capsys, "stabilize", "--automaton", DRIFT,
            "--spec", str(GOLDEN / "drift_witness_given.json"),
        )
        assert code == 0 and "stabilizing controller" in out
        assert len(calls) == 1

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

    def test_byte_identical_reports(self, capsys):
        first = invoke(capsys, "export-dot", "--automaton", PLANT, "--format", "dot")
        second = invoke(capsys, "export-dot", "--automaton", PLANT, "--format", "dot")
        assert first == second


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

    def test_stability_legal_state_of_wrong_length_exits_two(self, capsys):
        code, _, err = invoke(
            capsys, "stability", "--automaton", PLANT, "--spec", "state:[0.1,0.1]"
        )
        assert code == 2 and "components" in err

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

    def test_dot_format_restricted(self, capsys):
        code, _, err = invoke(capsys, "reach", "--automaton", PLANT, "--format", "dot")
        assert code == 2 and err

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
