import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import settings

from fuzzydes import parse_automaton, parse_spec

settings.register_profile("ci", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("ci")

DATA = pathlib.Path(__file__).parent / "data"


def child_stdout(script: str, deadline: float) -> str:
    """Run the python script in a child process, with src/ and tests/ on
    its path, that subprocess.run kills at the deadline; the test fails then
    or when the child exits non-zero.  Returns the child's stdout."""
    src = pathlib.Path(sys.modules["fuzzydes"].__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(DATA.parent)]))
    try:
        child = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=deadline)
    except subprocess.TimeoutExpired:
        pytest.fail(f"no verdict within {deadline:g} s")
    assert child.returncode == 0, child.stderr
    return child.stdout


def load_automaton(name):
    return parse_automaton((DATA / name).read_text())


def load_spec(name):
    return parse_spec((DATA / name).read_text())


@pytest.fixture(scope="session")
def treatment_plant():
    """Three-level concentration plant with events a, b, c, d (floors 0,
    0.1, 1, 1)."""
    return load_automaton("treatment_plant.json")


@pytest.fixture(scope="session")
def single_event_plant():
    """Same dynamics restricted to event a, floor 0.8."""
    return load_automaton("single_event_plant.json")


@pytest.fixture(scope="session")
def drift_plant():
    """Three fully controllable events a1, a2, a3 that all drift toward
    [0.4, 0.1, 0]."""
    return load_automaton("drift_plant.json")


@pytest.fixture(scope="session")
def cascade_plant():
    """Two-event plant with one half-uncontrollable event; exercises the
    rescaling case of stabilizing synthesis."""
    return load_automaton("cascade_plant.json")


@pytest.fixture(scope="session")
def admissible_set():
    return load_spec("admissible_set.json").states


@pytest.fixture(scope="session")
def drift_language():
    return load_spec("drift_language.json").language


@pytest.fixture(scope="session")
def reference_controller():
    return load_spec("reference_controller.json").controller
