"""Records keep the frozen-dataclass contract, importing the CLI loads no
dataclass machinery, and each subcommand runs only the modules it needs.

Every Record subclass is compared with a frozen dataclass twin built from
the same fields, on instances taken from real results: the same repr,
equality and hash, and AttributeError on assignment and deletion.
"""

import dataclasses
import json
import os
import pathlib
import subprocess
import sys
from functools import cached_property

import pytest

import fuzzydes
from fuzzydes import (
    DimensionMismatch,
    FuzzyLanguage,
    ReachFamily,
    StateFeedbackController,
    accessible_part,
    build_successor_graph,
    check_attractor,
    check_controllable,
    closed_loop_trajectory,
    consistency_check,
    family_contains,
    language_controllable,
    make_event,
    make_state,
    parse_spec,
    reach_family,
    search_stabilizing_witness,
    supervisor_from_language,
)
from fuzzydes._record import Record
from fuzzydes.graph import bfs
from conftest import DATA, load_automaton
from generators import adjacency

GOLDEN = DATA.parent / "golden"
S = lambda text: make_state(text.split())

# The fuzzydes modules `import fuzzydes.cli` loaded when the records were
# dataclasses.  The package registers every one of them in sys.modules
# without running its body, which runs on first use; the bench tracer wraps
# the modules in sys.modules, and its vars() of each runs it.
LOADED_BEFORE = [
    "fuzzydes", "fuzzydes.automaton", "fuzzydes.cli", "fuzzydes.errors", "fuzzydes.fileio",
    "fuzzydes.graph", "fuzzydes.language", "fuzzydes.possibility", "fuzzydes.reachability",
    "fuzzydes.stability", "fuzzydes.statecontrol",
]


def record_classes():
    found, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls.__module__.startswith("fuzzydes."):
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__name__)


def samples():
    """Instances of every record type, taken from real results."""
    treatment = load_automaton("treatment_plant.json")
    drift = load_automaton("drift_plant.json")
    admissible = parse_spec((DATA / "admissible_set.json").read_text())
    language = parse_spec((DATA / "drift_language.json").read_text())
    controller = parse_spec((DATA / "reference_controller.json").read_text())
    witness_spec = parse_spec((GOLDEN / "drift_witness_given.json").read_text())
    legal = parse_spec((GOLDEN / "drift_legal.json").read_text()).states
    family = reach_family(treatment)
    member = family_contains(family, S("0.5 0.1 0.1"))
    yes = check_controllable(treatment, admissible.states)
    no = check_controllable(treatment, [S("0.1 0.1 0.1")])
    successors = build_successor_graph(treatment, admissible.states)
    witness = search_stabilizing_witness(drift, legal)
    graph = accessible_part(treatment)
    found = [
        family, family.graph, family.aut, family.aut.events[0], member, member.controller,
        yes, yes.subgraph, no, no.obstruction, successors, successors.edges[0],
        successors.edges[0].alpha_range, witness, witness.controller, witness.subgraph,
        admissible, language, language.language, controller, witness_spec,
        bfs(graph.root, adjacency(graph)[0].__getitem__),
        closed_loop_trajectory(treatment, controller.controller, "abab"),
        language_controllable(drift, language.language),
        consistency_check(drift, language.language),
        supervisor_from_language(drift, language.language),
        check_attractor(graph, graph.vertices),
    ]
    assert member is not None and yes.controllable and not no.controllable and witness is not None
    return found


SAMPLES = samples()


def twin_of(cls):
    """A frozen dataclass with the record's fields; hidden fields stay out
    of its equality, hash and repr."""
    fields = [(name, object, dataclasses.field(compare=name in cls._compared, repr=name in cls._compared))
              for name in cls._fields]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def test_every_record_type_has_a_sample():
    assert sorted({type(r).__name__ for r in SAMPLES}) == [c.__name__ for c in record_classes()]
    assert len(record_classes()) == 24


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_record_behaves_as_its_frozen_dataclass_twin(record):
    cls = type(record)
    values = {name: getattr(record, name) for name in cls._fields}
    twin = twin_of(cls)(**values)
    assert repr(record) == repr(twin)
    copy = cls(*values.values())
    assert copy == record and not copy != record
    assert record != twin and twin != record
    try:
        expected = hash(twin)
    except TypeError:  # a dict field: unhashable in both
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(tuple(values[n] for n in cls._compared))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_fields_differ_means_records_differ():
    edge = next(e for e in SAMPLES if type(e).__name__ == "SuccessorEdge")
    other = type(edge)(edge.source, "zz", edge.target, edge.alpha_range)
    assert edge != other and hash(edge) != hash(other)


def test_controller_defaults_to_no_entries():
    f = StateFeedbackController()
    assert f == StateFeedbackController({}) == StateFeedbackController(entries={})
    assert f.entries == {} and f.default == 1
    assert StateFeedbackController().entries is not f.entries


def test_reach_family_codes_stay_out_of_equality_hash_and_repr():
    family = SAMPLES[0]
    assert isinstance(family, ReachFamily)
    other = ReachFamily(family.aut, family.graph, family.entries, codes=None)
    assert other == family and hash(other) == hash(family) and repr(other) == repr(family)
    assert "codes" not in repr(family)


def test_post_init_still_validates():
    with pytest.raises(DimensionMismatch):
        make_event("a", [["1", "0"], ["0"]])
    with pytest.raises(fuzzydes.ValidationError):
        FuzzyLanguage({("a",): 1})


def test_cached_property_works_on_a_record():
    event = make_event("a", [["1", "0.5"], ["0", "1"]])
    assert event.coded_matrix == ((1_000_000_000, 500_000_000), (0, 1_000_000_000))
    assert event.coded_matrix is event.coded_matrix


class Pair(Record):
    left: int
    right: int = 7

    @cached_property
    def total(self):
        return self.left + self.right


def test_construction_by_position_keyword_and_default():
    assert Pair(1, 2) == Pair(left=1, right=2) == Pair(1, right=2)
    assert Pair(1) == Pair(1, 7) and repr(Pair(1)) == "Pair(left=1, right=7)"
    pair = Pair(2)
    assert pair.total == 9 and pair.__dict__["total"] == 9
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"left": 2}), ((1,), {"other": 2})]:
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)


def test_the_cli_imports_no_dataclass_machinery():
    """Nor, for a plain command line, argparse and the gettext it imports:
    they are loaded only for help and usage errors."""
    src = pathlib.Path(fuzzydes.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = ["simulate", "--automaton", str(DATA / "treatment_plant.json"), "--steps", "0"]
    code = ("import json, sys, fuzzydes.cli; code = fuzzydes.cli.run_command(sys.argv[1:]); "
            "print(json.dumps([code, sorted(sys.modules)]))")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, check=True)
    code, loaded = json.loads(done.stdout.splitlines()[-1])
    loaded = set(loaded)
    assert code == 0
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert "argparse" not in loaded and "gettext" not in loaded
    assert set(LOADED_BEFORE) <= loaded


# The fuzzydes modules each subcommand runs, beyond the ones every command
# runs, and its options; the other modules stay registered and unexecuted.
# Each command runs its family's handler module (_cli_*) and no other.  A
# key names the subcommand and, for a second run of it, what differs.
EVERY_COMMAND = ["_record", "automaton", "cli", "errors", "fileio", "possibility"]
PLANT, DRIFT = str(DATA / "treatment_plant.json"), str(DATA / "drift_plant.json")
ADMISSIBLE, LANGUAGE = str(DATA / "admissible_set.json"), str(DATA / "drift_language.json")
COMMAND_RUNS = {
    "reach": (["_cli_reach", "graph", "reachability"], ["--automaton", PLANT]),
    "member": (["_cli_reach", "graph", "reachability"],
               ["--automaton", PLANT, "--spec", "state:[0.5,0.1,0.1]"]),
    "succ": (["_cli_control", "_moves", "statecontrol"], ["--automaton", PLANT, "--spec", ADMISSIBLE]),
    "check-controllable": (["_cli_control", "_moves", "graph", "statecontrol"],
                           ["--automaton", PLANT, "--spec", ADMISSIBLE]),
    "synthesize": (["_cli_control", "_moves", "graph", "statecontrol"],
                   ["--automaton", PLANT, "--spec", ADMISSIBLE]),
    "check-language": (["_cli_language", "language"], ["--automaton", DRIFT, "--spec", LANGUAGE]),
    "derive-supervisor": (["_cli_language", "language"],
                          ["--automaton", DRIFT, "--spec", LANGUAGE]),
    "bridge": (["_cli_language", "_moves", "graph", "language", "statecontrol"],
               ["--automaton", DRIFT, "--spec", str(GOLDEN / "drift_consistent_language.json")]),
    "stability": (["_cli_stability", "graph", "stability"],
                  ["--automaton", DRIFT, "--spec", "state:[0.4,0.1,0]"]),
    # A search over a legal set reads the moves and never decides one.
    "stabilize": (["_cli_stability", "_moves", "graph", "stability"],
                  ["--automaton", DRIFT, "--spec", "state:[0.4,0.1,0]"]),
    # A supplied witness without a subgraph is the one stabilize run that
    # decides its funnel set.
    "stabilize witness": (["_cli_stability", "_moves", "graph", "stability", "statecontrol"],
                          ["--automaton", DRIFT, "--spec", str(GOLDEN / "drift_witness_given.json")]),
    "simulate": (["_cli_plant"],
                 ["--automaton", PLANT, "--spec", str(DATA / "reference_controller.json")]),
    "export-dot": (["_cli_plant", "graph"], ["--automaton", PLANT]),
    "export-dot successor": (["_cli_plant", "_moves", "statecontrol"],
                             ["--automaton", PLANT, "--spec", ADMISSIBLE, "--what", "successor"]),
    "export-dot subgraph": (["_cli_plant", "_moves", "graph", "statecontrol"],
                            ["--automaton", PLANT, "--spec", ADMISSIBLE, "--what", "subgraph"]),
}


@pytest.mark.parametrize("command", list(COMMAND_RUNS))
def test_each_command_runs_only_the_modules_it_needs(command):
    """And adds no attribute to the package once fuzzydes.cli is imported:
    the bench tracer iterates the package's vars() while it loads modules."""
    extra, options = COMMAND_RUNS[command]
    command = command.split()[0]
    src = pathlib.Path(fuzzydes.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import importlib.util, json, sys, fuzzydes, fuzzydes.cli; "
            "before = set(vars(fuzzydes)); "
            "code = fuzzydes.cli.run_command(sys.argv[1:]); "
            "print(json.dumps([code, sorted(name for name, module in sys.modules.items() "
            "if name.startswith('fuzzydes.') and type(module) is not importlib.util._LazyModule), "
            "sorted(set(vars(fuzzydes)) - before)]))")
    done = subprocess.run([sys.executable, "-c", code, command, *options], env=env,
                          capture_output=True, text=True, check=True)
    code, ran, added = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert ran == sorted(f"fuzzydes.{name}" for name in EVERY_COMMAND + extra)
    assert len([name for name in ran if name.startswith("fuzzydes._cli_")]) == 1
    assert added == []
