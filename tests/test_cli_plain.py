"""The plain reader of cli agrees with argparse.

Seeded argv are built from every command's option table and then mutated
(abbreviated flags, `=` forms, repeated flags, `--`, `-h`, values that start
with "-", odd int spellings, bad ints and choices, a missing --automaton).
Wherever cli._plain accepts an argv, argparse must accept it too and give
the same namespace; everywhere else argparse alone answers.  Every argv of
the seed-7 benchmark corpus must be plain.
"""

import contextlib
import io
import json
import pathlib
import random
import subprocess
import sys

import fuzzydes.cli as cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMMANDS = list(cli._COMMANDS)
INTS = ["0", "3", "17", " 7", "7 ", "1_0", "٣", "+2", "-5", "-0", "", "x", "1.5", "0x10", "1e3"]
STRINGS = ["plant.json", "state:[0.5,0.1]", "a b c", "", "a=b", "-", "--", "-x", "--spec", "-5"]


def _value(rng, settings):
    if "choices" in settings:
        return rng.choice(settings["choices"] + ["xml", "", "-json"] if rng.random() < 0.2
                          else settings["choices"])
    if "type" in settings:
        return rng.choice(INTS) if rng.random() < 0.3 else str(rng.randint(0, 30))
    return rng.choice(STRINGS) if rng.random() < 0.3 else rng.choice(STRINGS[:3])


def _pair(rng, flag, value):
    return [f"{flag}={value}"] if rng.random() < 0.3 else [flag, value]


def _mutate(rng, argv):
    """argv with one seeded change that may or may not keep it plain."""
    at = rng.randint(min(1, len(argv)), len(argv))
    flags = [flag for command in COMMANDS for flag, _ in cli._options(command)]
    flag = rng.choice(flags)
    kind = rng.randrange(8)
    if kind == 0:  # an abbreviated or misspelled flag
        tokens = [i for i, token in enumerate(argv) if token.startswith("--")]
        if tokens:
            i = rng.choice(tokens)
            name = argv[i].partition("=")[0]
            argv[i] = name[:rng.randint(2, len(name))] + argv[i][len(name):]
        return argv
    if kind == 1:  # a repeated pair, or a flag of some command given twice
        return argv + _pair(rng, flag, "1")
    if kind == 2:  # a separator, help or a stray positional
        return argv[:at] + [rng.choice(["--", "-h", "--help", "extra", "-x", "--bogus"])] + argv[at:]
    if kind == 3:  # a trailing flag with no value
        return argv + [flag]
    if kind == 4:  # the command moved or replaced
        return argv[1:at] + [rng.choice(COMMANDS + ["frobnicate", ""])] + argv[at:]
    if kind == 5:  # an empty argv
        return []
    return argv + _pair(rng, flag, rng.choice(INTS + STRINGS))


def seeded_argv(rng):
    command = rng.choice(COMMANDS)
    options = cli._options(command)
    chosen = rng.sample(options, rng.randint(0, len(options)))
    if rng.random() < 0.8 and all(flag != "--automaton" for flag, _ in chosen):
        chosen.insert(rng.randint(0, len(chosen)), options[0])
    argv = [command]
    for flag, settings in chosen:
        argv += _pair(rng, flag, _value(rng, settings))
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        argv = _mutate(rng, argv)
    return argv


def by_argparse(argv):
    """argparse's namespace for argv as a dict, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parse_by_argparse(list(argv)))
        except SystemExit:
            return None


def agreement(seed, count):
    """(plain, declined) counts over count seeded argv; raises
    AssertionError on the first plain argv that argparse parses otherwise."""
    rng = random.Random(seed)
    plain = 0
    for _ in range(count):
        argv = seeded_argv(rng)
        mine = cli._plain(list(argv))
        if mine is not None:
            assert vars(mine) == by_argparse(argv), argv
            plain += 1
    return plain, count - plain


def test_the_plain_reader_agrees_with_argparse():
    plain, declined = agreement(2300, 2500)
    # Both kinds of argv are drawn often enough to test something.
    assert plain > 400 and declined > 1000


def test_odd_spellings_are_read_as_argparse_reads_them():
    base = ["simulate", "--automaton", "plant.json"]
    for argv, expected in [
        (base + ["--seed", " 7"], 7),
        (base + ["--seed=1_0"], 10),
        (base + ["--seed", "٣"], 3),
    ]:
        assert cli._plain(argv).seed == expected == by_argparse(argv)["seed"]
    for argv in [
        base + ["--seed", "-5"],  # argparse reads -5; the reader leaves it to argparse
        base + ["--seed", "1", "--seed", "2"],
        ["simulate", "--auto", "plant.json"],
        ["simulate", "--automaton", "plant.json", "--", "--steps", "1"],
        ["simulate", "-h"],
    ]:
        assert cli._plain(argv) is None


CORPUS = """
import json, shutil, sys, tempfile
from pathlib import Path
sys.path[:0] = ["bench", "src", "."]
import corpus
import fuzzydes.cli as cli
files = Path(tempfile.mkdtemp(prefix="plain-argv-"))
try:
    argvs = [list(q.argv) for name, build in corpus.WORKLOADS.items()
             for unit in build(7, files / name).units for q in unit]
finally:
    shutil.rmtree(files)
parsed = [cli._plain(argv) for argv in argvs]
print(json.dumps({"argv": argvs, "plain": [None if p is None else vars(p) for p in parsed]}))
"""


def test_every_corpus_argv_is_plain():
    done = subprocess.run([sys.executable, "-B", "-c", CORPUS], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=120)
    result = json.loads(done.stdout.splitlines()[-1])
    assert len(result["argv"]) == 215
    for argv, plain in zip(result["argv"], result["plain"]):
        assert plain is not None and plain == by_argparse(argv), argv
