"""Command-line surface.

Exit codes: 0 affirmative/success, 1 negative verdict (with a diagnostic),
2 usage or parse error, 120 when stdout cannot take the answer.  Reports
are deterministic given the inputs and the seed.

A plain command line (a command, then each of its flags at most once as
`--flag value` or `--flag=value`, no value starting with "-") is read
directly.  Every other one, help and every usage error included, goes to
argparse, which is imported only then and gives the same bytes as ever.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Sequence

from . import _cli_control, _cli_language, _cli_plant, _cli_reach, _cli_stability, fileio
from .automaton import MaxMinAutomaton
from .errors import FuzzyDESError
from .fileio import StateSetSpec, parse_inline_state


def _count(text: str) -> int:
    """A non-negative int option value; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        message = f"invalid int value: {text!r}"
    else:
        if value >= 0:
            return value
        message = f"must be a non-negative int, got {value}"
    from argparse import ArgumentTypeError

    raise ArgumentTypeError(message)


# The options of every subcommand, as (flag, settings).
_COMMON_OPTIONS = [
    ("--automaton", {"required": True, "metavar": "FILE"}),
    ("--spec", {"metavar": "FILE"}),
    ("--max-len", {"type": _count, "default": 6, "help": "validity guard only: below a nonempty "
                   "language's support depth plus one it exits 2; it bounds no check"}),
    ("--out", {"metavar": "FILE"}),
    ("--format", {"choices": ["text", "json", "dot"], "default": "text"}),
]
# Each command, in the order help lists them: its family's handler module,
# which defines the handler _cmd_<command> ("-" read as "_"), and its
# options beyond _COMMON_OPTIONS.  Both the plain reader and argparse read
# this table.  The package registers the modules without running them, so
# a command runs only its own family's module.
_COMMANDS = {
    "reach": (_cli_reach, []),
    "member": (_cli_reach, []),
    "succ": (_cli_control, []),
    "check-controllable": (_cli_control, []),
    "synthesize": (_cli_control, []),
    "check-language": (_cli_language, []),
    "derive-supervisor": (_cli_language, []),
    "bridge": (_cli_language, []),
    "stability": (_cli_stability, []),
    "stabilize": (_cli_stability, [
        ("--budget", {"type": _count, "default": 5000, "help": "accepted for compatibility and "
                      "ignored: the witness search is a fixpoint that always finishes (must be a "
                      "non-negative int)"}),
    ]),
    "simulate": (_cli_plant, [
        ("--seed", {"type": int, "default": 0}),
        ("--steps", {"type": _count, "default": 8}),
        ("--string", {"metavar": "EVENTS", "help": "space-separated scripted event string"}),
    ]),
    "export-dot": (_cli_plant, [
        ("--what", {"choices": ["accessible", "successor", "subgraph"], "default": "accessible"}),
    ]),
}


def _options(command: str) -> list:
    return _COMMON_OPTIONS + _COMMANDS[command][1]


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a plain argv, or None when argv is not
    plain.  Plain is a command name, then `--flag value` or `--flag=value`
    pairs in which each flag is exactly one of that command's, at most once,
    no value starts with "-", each value converts by the flag's type and is
    one of its choices, and every required flag is given."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    table = dict(_options(argv[0]))
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, equals, text = token.partition("=")
        if not equals:
            text = next(tokens, None)
        settings = table.get(flag)
        if settings is None or flag in given or text is None or text.startswith("-"):
            return None
        value = text
        if "type" in settings:
            try:
                value = settings["type"](text)
            except Exception:  # argparse converts it again and reports the failure
                return None
        if value not in settings.get("choices", (value,)):
            return None
        given[flag] = value
    if any(settings.get("required") and flag not in given for flag, settings in table.items()):
        return None
    return SimpleNamespace(command=argv[0], **{
        flag[2:].replace("-", "_"): given.get(flag, settings.get("default"))
        for flag, settings in table.items()
    })


def _parse_by_argparse(argv: list[str]):
    """Parse argv with argparse: one subparser per command, filled from the
    same option table as _plain.  It runs only on the argv _plain declines
    (help, usage errors, unusual spellings), so argparse alone writes help,
    usage and error text."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fuzzydes",
        description="Analysis and controller synthesis for max-min fuzzy discrete-event systems",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        subparser = commands.add_parser(command)
        for flag, settings in _options(command):
            subparser.add_argument(flag, **settings)
    return parser.parse_args(argv)


def _load_automaton(path: str) -> MaxMinAutomaton:
    with open(path, "r", encoding="utf-8") as handle:
        return fileio.parse_automaton(handle.read())


def _load_spec(arg: str):
    if arg.startswith("state:"):
        return StateSetSpec((parse_inline_state(arg),))
    with open(arg, "r", encoding="utf-8") as handle:
        return fileio.parse_spec(handle.read())


def _require_spec(args, wanted, what: str):
    if args.spec is None:
        raise FuzzyDESError(f"{args.command} requires --spec with {what}")
    spec = _load_spec(args.spec)
    if not isinstance(spec, wanted):
        raise FuzzyDESError(f"{args.command} requires {what}, got {type(spec).__name__}")
    return spec


# Each handler returns (exit code, payload, text renderer).  The payload is
# the JSON answer; under --format text the renderer turns that same payload
# into the text answer, so each state is formatted once and a JSON answer
# builds no text.  The handlers live in one private module per command
# family, with the text helpers only that family uses; the helpers below
# serve more than one family.


def _shown(doc: list[str]) -> str:
    """A state's text form, from its document form."""
    return "[" + ",".join(doc) + "]"


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _controller_lines(doc: dict) -> list[str]:
    lines = [f"controller (default {doc['default']}):"]
    for entry in doc["entries"]:
        lines.append(f"  f({_shown(entry['state'])})({entry['event']}) = {entry['value']}")
    return lines


def _not_controllable(verdict):
    payload = {"controllable": False, "obstruction": verdict.obstruction.describe()}
    return 1, payload, _obstruction_text


def _obstruction_text(payload: dict) -> str:
    return "not controllable: " + payload["obstruction"]


def run_command(argv: Sequence[str]) -> int:
    """The exit code of one command line.  An OSError from writing the
    answer to stdout propagates: main reports it."""
    argv = list(argv)
    try:
        args = _plain(argv) or _parse_by_argparse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.format == "dot" and args.command != "export-dot":
            raise FuzzyDESError("--format dot is only available for export-dot")
        aut = _load_automaton(args.automaton)
        handler = getattr(_COMMANDS[args.command][0], "_cmd_" + args.command.replace("-", "_"))
        code, payload, render = handler(args, aut)
        if args.format == "json":
            rendered = fileio._json_text(payload) + "\n"
        elif args.format == "dot" and "dot" in payload:
            rendered = payload["dot"]
        else:  # text, and the diagnostic of an export-dot with no graph to draw
            rendered = render(payload) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(rendered)
    except (FuzzyDESError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.out:
        if sys.stdout is None:  # the process started without one
            raise OSError("stdout is closed")
        sys.stdout.write(rendered)
    return code


def _watched() -> bool:
    """Whether a tracer, a profiler or (on 3.12+) a sys.monitoring tool
    watches this process; python -m cProfile on 3.12 is such a tool."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6))  # tool ids are 0 to 5


def main() -> None:
    """Run the command line and end the process with its exit code.

    An answer that stdout cannot take, whether writing or flushing it
    fails, exits 120 (CPython's status for a failed flush at exit) with one
    stderr line, for every answer size, buffered or not.  Once stdout and
    stderr are flushed, os._exit ends the process at once: the interpreter's
    teardown (a full garbage collection, clearing every module, freeing
    memory) would only cost time after the answer is out.  It exits through
    sys.exit instead, as an ordinary program does, when a flush fails, so
    the interpreter reports the failure at exit as ever, and when a tool
    watches the process, so that a profiler or a coverage tracer still
    writes its report at exit.  This is the only place the program ends the
    process; run_command returns."""
    try:
        code = run_command(sys.argv[1:])
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:  # the answer could not be written
        code = 120
        try:  # one stderr line; then stdout discards, so no later flush reports it again
            print(f"error: the answer could not be written: {exc}", file=sys.stderr)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except (AttributeError, OSError):  # no stderr, or no stdout
            pass
    if _watched():
        sys.exit(code)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # None, failed or closed
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    # The handler modules' `from .cli import` then finds this module, so no
    # second copy runs; runpy has started it already and does not warn.
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    main()
