"""How the CLI process ends.

cli.main flushes stdout and stderr and ends the process with os._exit,
skipping the interpreter's teardown; it exits through sys.exit when a flush
fails or a tracer, profiler or sys.monitoring tool watches the process.  An
answer that cannot be written to stdout ends with status 120 and one stderr
line.  These tests run `python -m fuzzydes` in child processes with
block-buffered stdout (PYTHONUNBUFFERED removed), so an answer left
unflushed would be lost; the closed-pipe tests run unbuffered too.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import fuzzydes
from fuzzydes import cli, run_command

TESTS = pathlib.Path(__file__).parent
GOLDEN = TESTS / "golden"
PLANT = str(TESTS / "data" / "treatment_plant.json")
SRC = pathlib.Path(fuzzydes.__file__).resolve().parent.parent
ENV = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
ENV.update(PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8", COLUMNS="80")

# "{out}" stands for a file the command writes with --out.
ARGVS = {
    "json_larger_than_a_pipe_buffer": ["succ", "--automaton", str(GOLDEN / "draw23_plant.json"),
                                       "--spec", str(GOLDEN / "draw23_states.json"),
                                       "--format", "json"],
    "exit_1_verdict": ["check-controllable", "--automaton", PLANT, "--spec", "state:[0.1,0.1,0.1]"],
    "exit_2_parse_error": ["member", "--automaton", PLANT, "--spec", "state:[0.9,,0.1,0]"],
    "help": ["--help"],
    "usage_error": ["reach", "--automaton", PLANT, "--bogus"],
    "out_write": ["reach", "--automaton", PLANT, "--format", "json", "--out", "{out}"],
}


def _child(*argv, stdout=subprocess.PIPE, env=ENV):
    return subprocess.run([sys.executable, *argv], env=env, stdout=stdout, stderr=subprocess.PIPE)


def _argv(name, out):
    return [arg.replace("{out}", str(out)) for arg in ARGVS[name]]


@pytest.mark.parametrize("name", list(ARGVS))
def test_the_process_gives_every_byte_run_command_gives(name, tmp_path, capsys, monkeypatch):
    """Exit code, stdout, stderr and the --out file.  run_command, called in
    this process with os._exit replaced by a failure, returns."""
    def _exit(code):
        raise AssertionError(f"run_command called os._exit({code})")

    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(os, "_exit", _exit)
    code = run_command(_argv(name, tmp_path / "in_process.txt"))
    out, err = capsys.readouterr()
    monkeypatch.undo()
    child = _child("-m", "fuzzydes", *_argv(name, tmp_path / "child.txt"))
    assert (child.returncode, child.stdout, child.stderr) == (code, out.encode(), err.encode())
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert written.get("child.txt") == written.get("in_process.txt")
    if name == "json_larger_than_a_pipe_buffer":
        assert len(child.stdout) > 65536
    if name == "out_write":
        assert written["child.txt"] and child.stdout == b""


# The exit status and stderr of the CLI with the read end of stdout's pipe
# closed before the child starts, the same for every answer size with
# stdout buffered or not: a small buffered answer fails as main flushes it,
# any other as run_command writes it, and main reports both.  Checked on
# CPython 3.10 to 3.13.
CLOSED_PIPE = {
    "small_answer": ["simulate", "--automaton", PLANT, "--steps", "0"],
    "large_answer": ARGVS["json_larger_than_a_pipe_buffer"],
}
UNWRITTEN = (120, "error: the answer could not be written: [Errno 32] Broken pipe\n")


def _into_a_closed_pipe(argv, env=ENV):
    """Run the CLI with the read end of its stdout pipe closed."""
    read, write = os.pipe()
    os.close(read)
    try:
        return _child("-m", "fuzzydes", *argv, stdout=write, env=env)
    finally:
        os.close(write)


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("name", list(CLOSED_PIPE))
def test_a_closed_stdout_pipe_exits_one_way(name, buffering):
    env = dict(ENV, PYTHONUNBUFFERED="1") if buffering == "unbuffered" else ENV
    child = _into_a_closed_pipe(CLOSED_PIPE[name], env)
    assert (child.returncode, child.stderr.decode()) == UNWRITTEN


def test_a_process_without_stdout_exits_as_a_closed_pipe_does():
    """Started with file descriptor 1 closed, the process has no sys.stdout."""
    child = subprocess.run(
        [sys.executable, "-m", "fuzzydes", *CLOSED_PIPE["small_answer"]],
        env=ENV, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1))
    assert (child.returncode, child.stderr.decode()) == (
        UNWRITTEN[0], "error: the answer could not be written: stdout is closed\n")


def test_an_out_file_error_stays_a_usage_error_with_a_closed_stdout(tmp_path):
    out = str(tmp_path / "no-such-dir" / "report.json")
    child = _into_a_closed_pipe(["reach", "--automaton", PLANT, "--out", out])
    assert child.returncode == 2
    assert child.stderr.decode().startswith("error: [Errno 2] No such file or directory")


def test_cprofile_still_prints_its_report():
    """cProfile watches through sys.setprofile up to 3.11 and as a
    sys.monitoring tool from 3.12."""
    child = _child("-m", "cProfile", "-m", "fuzzydes", "simulate", "--automaton", PLANT,
                   "--steps", "0")
    assert child.returncode == 0, child.stderr
    assert b"function calls" in child.stdout
    assert child.stdout.startswith(b"mode: open loop")


@pytest.mark.parametrize("watch", ["trace", "profile"])
def test_main_exits_normally_while_a_tool_watches(watch, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["fuzzydes", "simulate", "--automaton", PLANT, "--steps", "0"])
    monkeypatch.setattr(os, "_exit", lambda code: pytest.fail(f"os._exit({code}) while watched"))
    setter = getattr(sys, "set" + watch)
    previous = getattr(sys, "get" + watch)()
    setter(lambda *args: None)
    try:
        with pytest.raises(SystemExit) as exited:
            cli.main()
    finally:
        setter(previous)
    assert exited.value.code == 0
