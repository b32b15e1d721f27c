#!/usr/bin/env python3
"""Paired end-to-end benchmark runs of a parent and a change checkout.

    python3 tools/bench_pair.py --parent PARENT_DIR --change CHANGE_DIR \
        --workloads graph_control,stabilize_budget,cli_mix --pairs 10 \
        --seed-base 1200 --pr PR

For each workload and pair it runs `bench/run.py --workload W --seed S
--seconds 30 --trace 0` once in each checkout, one run at a time, with
PYTHONDONTWRITEBYTECODE=1 so that every run compiles the sources as a
fresh checkout does.  The side that runs first alternates from pair to
pair.  Each run's last stdout line is read as strict JSON: NaN and
Infinity are rejected, and a run that exits non-zero or ends in a
malformed line stops the tool with an error.  After the pairs it runs
`bench/run.py --workload W --seed SEED_BASE --seconds 30 --trace 1` once per
workload in each checkout, each in its own process as a single-workload
benchmark run is made, so no workload's traced run leans on the modules an
earlier workload imported.  It stops with an error when a traced run exits
non-zero, ends in a line that is not strict JSON, reports `correct: false`
or prints a `missing per-layer metrics` line.  It writes BENCH_<pr>.json (in the schema
of BENCH_6.json) into the current directory: whether each checkout's tree
matches its commit (and the paths that differ), per workload and metric the
parent's and the change's runs, medians and quartiles, the pairs each side
won, the change of the median as a fraction of the parent's, the parent's
interquartile range, and the outcome of each side's traced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in the result line")


def strict_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        raise ValueError(f"the last line is not a result object: {lines[-1][:200]!r}")
    return result


def traced_result(stdout: str) -> dict:
    """The result of a --trace 1 run, which must be strict JSON, correct,
    and print no missing per-layer metrics line."""
    result = strict_result(stdout)
    if not result.get("correct"):
        raise ValueError(f"the run is not correct: {result.get('failed')} of "
                         f"{result.get('attempted')} queries failed")
    for line in stdout.splitlines():
        if "missing per-layer metrics" in line:
            raise ValueError(line.strip())
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0,
             read=strict_result) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(command)} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    try:
        return read(done.stdout)
    except ValueError as exc:
        raise SystemExit(f"{checkout}: {' '.join(command)}: {exc}") from None


def traced_checks(checkouts: dict, workloads: list, seed: int, seconds: float) -> dict:
    """One --trace 1 run per workload and side, each read by traced_result."""
    checks = {}
    for workload in workloads:
        check = {"command": f"python3 bench/run.py --workload {workload} --seed {seed} "
                            f"--seconds {seconds:g} --trace 1"}
        for side in SIDES:
            result = run_once(checkouts[side], workload, seed, seconds, trace=1, read=traced_result)
            check[side] = {"correct": result["correct"], "attempted": result["attempted"],
                           "failed": result["failed"],
                           "metrics": {name: metric["value"] for name, metric
                                       in result["metrics"].items()}}
            print(f"traced check {workload} {side}: correct, {result['attempted']} queries, "
                  f"{len(result['metrics'])} metrics", flush=True)
        checks[workload] = check
    return checks


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(metric: dict, runs: dict) -> dict:
    """One metric of one workload: both sides' runs (in pair order) and how
    the change compares, pair by pair and in the median."""
    out = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"]}
    for side in SIDES:
        q1, q3 = quartiles(runs[side])
        out[side] = {"median": round(statistics.median(runs[side]), 6), "q1": round(q1, 6),
                     "q3": round(q3, 6), "runs": [round(v, 6) for v in runs[side]]}
    sign = 1 if metric["better"] == "higher" else -1
    diffs = [sign * (c - p) for p, c in zip(runs["parent"], runs["change"])]
    out["change_wins"] = sum(1 for d in diffs if d > 0)
    out["change_losses"] = sum(1 for d in diffs if d < 0)
    parent_median = statistics.median(runs["parent"])
    change_median = statistics.median(runs["change"])
    out["median_change_frac"] = (round((change_median - parent_median) / parent_median, 4)
                                 if parent_median else 0.0)
    out["parent_iqr"] = round(out["parent"]["q3"] - out["parent"]["q1"], 6)
    return out


def git_head(checkout: Path):
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def git_tree(checkout: Path):
    """Whether the checkout's tree matches its HEAD commit, and the paths
    that differ (untracked ones included); None outside a git checkout."""
    done = subprocess.run(["git", "status", "--porcelain"], cwd=checkout, capture_output=True,
                          text=True)
    if done.returncode != 0:
        return None
    changed = [line[3:] for line in done.stdout.splitlines() if line.strip()]
    return {"clean": not changed, "changed": changed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads", default="graph_control,stabilize_budget,cli_mix")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True,
                        help="workload k (from 1) uses seeds seed_base + 100 k + 1 ...")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--parent-commit", help="recorded when the parent checkout is no git checkout")
    parser.add_argument("--change-commit", help="recorded when the change checkout is no git checkout")
    parser.add_argument("--note", default="", help="recorded as change_tree_note")
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "description": "Paired end-to-end runs of bench/run.py (--trace 0) at the parent commit and "
                       "at the change, order alternated per pair, each run with "
                       "PYTHONDONTWRITEBYTECODE=1, made by tools/bench_pair.py.",
        "parent_commit": args.parent_commit or git_head(checkouts["parent"]),
        "change_commit": args.change_commit or git_head(checkouts["change"]),
        "change_tree_note": args.note,
        "parent_tree": git_tree(checkouts["parent"]),
        "change_tree": git_tree(checkouts["change"]),
        "command": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
        "workloads": {},
    }
    for k, workload in enumerate(args.workloads.split(","), start=1):
        seeds = [args.seed_base + 100 * k + i for i in range(1, args.pairs + 1)]
        runs = {side: [] for side in SIDES}
        first = {}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            first[str(seed)] = order[0]
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds)
                runs[side].append(result)
                print(f"{workload} seed {seed} {side}: correct {result['correct']}, "
                      f"failed {result['failed']}, throughput "
                      f"{result['metrics'].get('throughput_qps', {}).get('value')}", flush=True)
        entry = {
            "seeds": seeds,
            "first_side_per_seed": first,
            "pairs": len(seeds),
            "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
            "failed_queries": sum(r["failed"] for side in SIDES for r in runs[side]),
            "attempted_per_run": {side: [r["attempted"] for r in runs[side]] for side in SIDES},
            "metrics": {},
        }
        for name, metric in metrics.items():
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
            entry["metrics"][name] = summarize(metric, values)
        report["workloads"][workload] = entry
    report["traced_check"] = traced_checks(checkouts, args.workloads.split(","), args.seed_base,
                                           args.seconds)
    out = Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
