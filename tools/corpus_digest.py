#!/usr/bin/env python3
"""One sha256 over every answer of the benchmark corpus, for one seed.

    python3 tools/corpus_digest.py --seed 7 [--root CHECKOUT]

It builds every workload of `bench/corpus.py` in the checkout at --root
(default: the checkout holding this script) and runs each query in order
through `fuzzydes.cli.run_command` in this process.  The hash covers each
query's argv, exit code, stdout, stderr and the file its `--out` option
wrote, with the directory of the generated files replaced by a fixed token,
so two checkouts print the same digest exactly when their CLI gives the same
bytes on the corpus.  The generated files go to a temporary directory that
is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

TOKEN = "<files>"


def _answer(cli, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run_command(argv)
        except Exception as exc:  # an escaping error is an answer too
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def digest(root: Path, seed: int) -> tuple[str, int]:
    """(hex digest, number of queries) of the corpus at seed in root."""
    os.chdir(root)
    sys.path[:0] = [str(root / "bench"), str(root / "src"), str(root)]
    import corpus
    import fuzzydes.cli as cli

    sha = hashlib.sha256()
    count = 0
    scratch = Path(tempfile.mkdtemp(prefix="corpus-digest-"))
    try:
        for name, build in corpus.WORKLOADS.items():
            files = scratch / name
            workload = build(seed, files)
            prefix = files.as_posix()
            for query in (q for unit in workload.units for q in unit):
                code, out, err = _answer(cli, list(query.argv))
                argv = list(query.argv)
                written = None
                if "--out" in argv:
                    target = Path(argv[argv.index("--out") + 1])
                    written = target.read_text(encoding="utf-8") if target.is_file() else None
                record = [name, argv, code, out, err, written]
                text = json.dumps(record).replace(prefix, TOKEN)
                sha.update(text.encode("utf-8") + b"\n")
                count += 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return sha.hexdigest(), count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="the source checkout to digest")
    args = parser.parse_args(argv)
    hexdigest, count = digest(args.root.resolve(), args.seed)
    print(f"{count} queries", file=sys.stderr)
    print(hexdigest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
