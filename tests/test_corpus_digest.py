"""tools/corpus_digest.py prints one digest over the seeded corpus, the
CLI bytes it hashes do not depend on string hashing, and at seed 7 they are
the recorded bytes: a change to any answer's bytes fails here."""

import os
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "corpus_digest.py"
# The same on CPython 3.10, 3.11, 3.12 and 3.13.
SEED_7_DIGEST = "ca6ab64b839ca0992496f561d606252b8cdd6c39742ccdb541eb9d66f4c675cb"


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
    assert first[0] == SEED_7_DIGEST + "\n"
    assert second == first
