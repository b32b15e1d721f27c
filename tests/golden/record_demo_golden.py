"""Record the stdout of every script in demos/.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record_demo_golden.py

It runs each demo in this process as __main__ and writes demo_golden.json
beside this file: one record per demo with its file name and its stdout.
tests/test_demos.py replays the demos and requires the same bytes, so
re-record only when an output change is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEMOS = HERE.parent.parent / "demos"


def demo_paths() -> list[Path]:
    return sorted(DEMOS.glob("*.py"))


def run_demo(path: Path) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(path), run_name="__main__")
    return stdout.getvalue()


def main() -> None:
    records = [{"demo": path.name, "stdout": run_demo(path)} for path in demo_paths()]
    (HERE / "demo_golden.json").write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} demos", file=sys.stderr)


if __name__ == "__main__":
    main()
