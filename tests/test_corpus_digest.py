"""tools/corpus_digest.py prints one digest over the seeded corpus, and the
CLI bytes it hashes do not depend on string hashing."""

import os
import pathlib
import re
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "corpus_digest.py"


def digest(hash_seed: str) -> tuple[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "7"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    return done.stdout, done.stderr


def test_the_digest_does_not_follow_the_hash_seed():
    first, second = digest("1"), digest("2")
    assert first[1] == "215 queries\n"
    assert re.fullmatch(r"[0-9a-f]{64}\n", first[0])
    assert second == first
