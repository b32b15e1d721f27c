"""The package's public names, pinned.

Adding a name to fuzzydes or removing one changes this list, so every change
of the public surface shows up as a diff here.  The names resolve lazily,
through the package's module __getattr__, to the objects of the modules that
define them.
"""

import ast
import os
import pathlib
import subprocess
import sys
import types

import pytest

import fuzzydes
from conftest import DATA

PUBLIC = [
    "AttractorReport", "ConsistencyVerdict", "ControllabilityVerdict",
    "ControllableSubgraph", "DimensionMismatch", "DomainError", "FuzzyDESError",
    "FuzzyEvent", "FuzzyLanguage", "FuzzySupervisor", "LanguageVerdict", "MaxMinAutomaton",
    "ONE", "Obstruction", "Possibility", "PreconditionError", "ReachFamily",
    "ReachWitness", "ScaleSolution", "StabilizabilityWitness", "State",
    "StateFeedbackController", "SuccessorEdge", "SuccessorGraph", "Trajectory",
    "TransitionGraph", "UnknownEvent", "ValidationError", "WitnessRejected", "ZERO",
    "accessible_part", "as_event_string", "as_possibility", "automaton",
    "build_successor_graph", "candidate_universe", "check_attractor", "check_controllable",
    "chosen_graph", "cli", "closed_loop_graph", "closed_loop_language_of_supervisor",
    "closed_loop_trajectory", "consistency_check", "controller_from_language", "errors",
    "export_dot", "family_contains", "fileio", "format_possibility", "format_state",
    "graph", "infimal_attractor", "language", "language_controllable",
    "largest_controllable_invariant", "make_automaton", "make_event", "make_state",
    "maxmin_compose", "open_loop_trajectory", "parse_automaton", "parse_spec",
    "possibility", "reach_family", "reach_of_language", "reachability", "run",
    "run_command", "scale_product", "search_stabilizing_witness", "solve_scale",
    "stability", "state_is_zero", "statecontrol", "step", "supervisor_from_controller",
    "supervisor_from_language", "synthesize_controller",
    "synthesize_stabilizing_controller", "validate_subgraph",
    "verify_stabilizability_witness",
]

# The public functions of src/ that no other module of src/ calls, each with
# the reason it stays public.  Any other public function must have a caller
# in another module; code that nothing in the library uses moves into tests/
# or goes.
KEPT = {
    "closed_loop_graph": "bench/layers.py times it (automaton.closed_loop_graph)",
    "closed_loop_language_of_supervisor":
        "the paper's supervised language, the state-to-event direction of the bridge",
    "largest_controllable_invariant":
        "search_stabilizing_witness calls it; bench/layers.py times it",
    "make_event": "README, every demo and tests/generators.py build plants with it",
    "run": "the paper's transition extended to strings",
    "run_command": "the CLI in process; cli.main calls it",
    "step": "the paper's transition",
    "supervisor_from_controller":
        "the paper's translation of state feedback into event feedback",
    "validate_subgraph":
        "checks a given choice against C1, C2 and reachability, as synthesize_controller does",
    "verify_stabilizability_witness": "bench/layers.py reads its spans",
}


def test_public_names_are_pinned():
    assert sorted(fuzzydes.__all__) == PUBLIC


def uncalled_public_functions(package: pathlib.Path) -> set[str]:
    """The public module-level functions of the modules in package that no
    other module of package calls, by name or as an attribute."""
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    owner = {
        node.name: module for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }
    called = {
        name for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in owner
        and owner[name] != module
    }
    return set(owner) - called


def test_every_public_function_has_a_caller_or_a_reason():
    uncalled = uncalled_public_functions(pathlib.Path(fuzzydes.__file__).resolve().parent)
    assert sorted(uncalled - set(KEPT)) == [], "call it from src/, move it into tests/, or delete it"
    assert sorted(set(KEPT) - uncalled) == [], "a KEPT name now has a caller: drop it from KEPT"
    assert set(KEPT) <= set(PUBLIC)


def test_the_scan_finds_a_function_that_only_its_own_module_calls(tmp_path):
    (tmp_path / "one.py").write_text("def used():\n    pass\n\ndef lonely():\n    used()\n")
    (tmp_path / "two.py").write_text("from . import one\n\none.used()\n")
    assert uncalled_public_functions(tmp_path) == {"lonely"}


# The public values whose owner __module__ does not name: all are bound in
# possibility.
VALUES = {"ONE", "ZERO", "Possibility", "State"}


@pytest.mark.parametrize("name", PUBLIC)
def test_each_public_name_is_its_owning_modules_object(name):
    value = getattr(fuzzydes, name)
    if isinstance(value, types.ModuleType):
        assert value is sys.modules[f"fuzzydes.{name}"]
    else:
        owner = "fuzzydes.possibility" if name in VALUES else value.__module__
        assert vars(sys.modules[owner])[name] is value


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fuzzydes import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC
    assert all(namespace[name] is getattr(fuzzydes, name) for name in PUBLIC)


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(fuzzydes))


def test_an_unknown_attribute_is_named_in_the_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        fuzzydes.no_such_name


@pytest.mark.parametrize("argv", [
    ["simulate", "--automaton", str(DATA / "treatment_plant.json"), "--steps", "0"],
    ["reach"],
])
def test_the_cli_module_answers_as_the_package_under_warnings_as_errors(argv):
    """The package leaves cli unimported, so runpy finds nothing to warn
    about when `python -m fuzzydes.cli` runs it as __main__."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fuzzydes.__file__).resolve().parent.parent))
    package, module = [
        subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True, text=True)
        for flags in (["-m", "fuzzydes"], ["-W", "error", "-m", "fuzzydes.cli"])
    ]
    assert package.returncode in (0, 2) and package.stdout + package.stderr
    assert (module.returncode, module.stdout, module.stderr) == (
        package.returncode, package.stdout, package.stderr)


def test_the_cli_module_runs_one_copy_of_itself():
    """Run as __main__, cli registers itself as fuzzydes.cli, so the handler
    module's `from .cli import` finds it and imports no second copy."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(fuzzydes.__file__).resolve().parent.parent))
    argv = ["simulate", "--automaton", str(DATA / "treatment_plant.json"), "--steps", "0"]
    run = subprocess.run([sys.executable, "-X", "importtime", "-m", "fuzzydes.cli", *argv],
                         env=env, capture_output=True, text=True)
    imported = [line.rpartition("|")[2].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert run.returncode == 0 and "fuzzydes" in imported
    assert "fuzzydes.cli" not in imported
