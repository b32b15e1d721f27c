"""The package's public names, pinned.

Adding a name to fuzzydes or removing one changes this list, so every change
of the public surface shows up as a diff here.  The names resolve lazily,
through the package's module __getattr__, to the objects of the modules that
define them.
"""

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
    "FuzzyEvent", "FuzzyLanguage", "FuzzySupervisor",
    "InvariantVerdict", "LanguageVerdict", "MaxMinAutomaton", "ONE", "Obstruction",
    "Possibility", "PreconditionError", "ReachFamily", "ReachWitness", "ScaleSolution",
    "StabilizabilityWitness", "State", "StateFeedbackController", "SuccessorEdge",
    "SuccessorGraph", "Trajectory", "TransitionGraph", "UnknownEvent", "ValidationError",
    "WitnessRejected", "ZERO", "accessible_part", "as_event_string", "as_possibility",
    "automaton", "build_successor_graph", "candidate_universe", "check_attractor",
    "check_controllable", "check_controllable_invariant", "chosen_graph", "cli",
    "closed_loop_graph", "closed_loop_language_degree",
    "closed_loop_language_of_supervisor", "closed_loop_reachable", "closed_loop_step",
    "closed_loop_trajectory", "consistency_check", "controller_from_language", "errors",
    "export_dot", "family_contains", "fileio", "format_possibility", "format_state",
    "graph", "infimal_attractor", "is_stable", "language", "language_controllable",
    "language_degree", "largest_controllable_invariant", "make_automaton",
    "make_controller", "make_event", "make_state", "maxmin_compose", "open_loop_trajectory",
    "parse_automaton", "parse_spec", "possibility", "reach_family", "reach_of_language",
    "reachability", "run", "run_command", "scale_product", "scaling_floor",
    "search_stabilizing_witness", "serialize_automaton", "serialize_controller",
    "serialize_language", "solve_scale", "stability", "state_is_zero", "statecontrol",
    "step", "successor_set", "supervisor_from_controller", "supervisor_from_language",
    "synthesize_controller", "synthesize_stabilizing_controller", "validate_subgraph",
    "verify_stabilizability_witness",
]


def test_public_names_are_pinned():
    assert sorted(fuzzydes.__all__) == PUBLIC


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
