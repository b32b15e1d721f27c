#!/usr/bin/env python3
"""End-to-end benchmark of the fuzzydes CLI, with a traced per-layer run.

    python3 bench/run.py --workload graph_control --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  With --trace 0 every query runs
as `PYTHONPATH=src python -m fuzzydes ...` in a child process, one at a
time (a closed loop with one client), in rounds that repeat until
--seconds have passed (the first round always ends), and the end-to-end
metrics, taken over each query's median latency and scaled to the speed
of a reference task run between the queries, are printed.  With
--trace 1 one round runs in-process through fuzzydes.cli.run_command,
untraced and then traced, the per-layer metrics are printed, and the
known-defect probes run.  Every answer is checked by the benchmark's own
oracle.  The last line of stdout is one JSON object; see bench/README.md
for its schema.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = Path(".bench_out")
REQUIRED = ("src/fuzzydes/cli.py", "tests/generators.py", "tests/data/treatment_plant.json")
QUERY_DEADLINE_S = 60.0
SETUP_SAMPLES = 15
IMPORT_REPEATS = 5
TAIL_BEYOND = 10
# The host's speed drifts by up to a quarter within seconds to minutes, the
# same for every child process.  A fixed task that does not use fuzzydes
# (start-up, imports, dict and Fraction work) runs as a child process after
# every REFERENCE_EVERY_S of query time, and each timed sample is scaled by
# REFERENCE_S over the median time of the REFERENCE_NEAR reference runs
# nearest to it: the time metrics read as seconds on a machine where the
# reference takes REFERENCE_S.
REFERENCE = """\
import argparse, fractions, json
F = fractions.Fraction
d = {}
for i in range(8000):
    k = (i % 97, i % 89)
    d[k] = max(d.get(k, F(0)), F(i % 10, 10))
print(json.dumps(len(d)))
"""
REFERENCE_S = 0.09
REFERENCE_EVERY_S = 0.5
REFERENCE_NEAR = 3

END_TO_END = {
    "setup_s": "s", "latency_p50_s": "s", "latency_tail_s": "s", "throughput_qps": "1/s",
    "answered_frac": "frac", "conclusive_frac": "frac", "peak_rss_mb": "MB",
}


class Deadline(BaseException):
    pass


def _deadline_handler(signum, frame):
    raise Deadline()


def spawn(argv, deadline):
    """Run the CLI in a child process: (exit code or None past the
    deadline, stdout, stderr, seconds from spawn to exit)."""
    return child([sys.executable, "-m", "fuzzydes", *argv], deadline)


def reference(failures):
    """Seconds the reference task takes in a child process."""
    code, out, err, seconds = child([sys.executable, "-c", REFERENCE], QUERY_DEADLINE_S)
    if code != 0 or out.strip() != "8000":
        failures.append(f"reference task: exit {code}, {(out + err).strip()[-200:]}")
    return seconds


def child(command, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out, err = proc.communicate(timeout=deadline)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, err, code = b"", b"", None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    seconds = time.perf_counter() - start
    return code, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"), seconds


def in_process(argv, deadline):
    """Run fuzzydes.cli.run_command in this process, same result shape as
    spawn; an escaping exception is reported as the interpreter would."""
    import fuzzydes.cli as cli

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _deadline_handler)
    signal.setitimer(signal.ITIMER_REAL, deadline)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run_command(list(argv))
    except Deadline:
        code = None
    except Exception:
        traceback.print_exc(file=err)
        code = 1
    finally:
        seconds = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), seconds


def judge(query, outcome, files):
    """(ok, reason, inconclusive) of one answer."""
    code, out, err, _ = outcome
    if code is None:
        return False, f"no answer within {QUERY_DEADLINE_S:g} s", False
    if "Traceback" in err:
        return False, f"traceback: {err.strip().splitlines()[-1]}", False
    return query.check(code, out, files)


class Setup:
    """Set-up samples: `simulate --steps 0` cycling through the workload's
    automaton documents, each answer checked; SETUP_SAMPLES of them, or one
    per document when there are more documents."""

    def __init__(self, workload, runner, failures):
        import answers as A
        import oracle as O
        from corpus import Query

        self.workload, self.runner, self.failures = workload, runner, failures
        self.queries = [
            Query(f"setup {doc}", ["simulate", "--automaton", doc, "--steps", "0"],
                  A.simulate(O.plant_from_doc(json.loads(Path(doc).read_text(encoding="utf-8"))),
                             "text", steps=0))
            for doc in workload.docs
        ]
        self.count = max(SETUP_SAMPLES, len(self.queries))
        self.times, self.at = [], []

    def sample(self):
        query = self.queries[len(self.times) % len(self.queries)]
        self.at.append(time.perf_counter())
        outcome = self.runner(query.argv, QUERY_DEADLINE_S)
        ok, why, _ = judge(query, outcome, self.workload.files)
        if not ok:
            self.failures.append(f"{query.name}: {why}")
        self.times.append(outcome[3])
        return outcome[3]


def measure_setup(workload, runner, failures):
    """Median wall time of the set-up runs, made in a row."""
    setup = Setup(workload, runner, failures)
    while len(setup.times) < setup.count:
        setup.sample()
    return statistics.median(setup.times)


def round_order(workload, seed, index):
    units = list(workload.units)
    random.Random(seed * 1_000_003 + index).shuffle(units)
    return [q for unit in units for q in unit]


def quantile_hd(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the share of a Beta(p(n+1), (1-p)(n+1))
    distribution that falls in each n-th of [0, 1].  It moves smoothly as
    latencies pass one another, where a single order statistic of a few
    dozen queries of distinct costs jumps across the gaps between them."""
    ordered = sorted(values)
    n, steps = len(ordered), 100
    if n == 1:
        return ordered[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log(1 - x)
            for x in (k / (steps * n) for k in range(1, steps * n))]
    top = max(logs)
    density = [0.0] + [math.exp(v - top) for v in logs] + [0.0]
    weights = [sum(density[i * steps:(i + 1) * steps + 1])
               - (density[i * steps] + density[(i + 1) * steps]) / 2 for i in range(n)]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def time_metrics(records, setup_times):
    """The time metrics of (query name, seconds) samples, taken over each
    query's median, and of the set-up samples: (metrics, tail percentile).
    The tail is the highest percentile with TAIL_BEYOND queries beyond it."""
    repeats = {}
    for name, seconds in records:
        repeats.setdefault(name, []).append(seconds)
    latencies = [statistics.median(times) for times in repeats.values()]
    beyond = (len(latencies) - TAIL_BEYOND) / len(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": quantile_hd(latencies, 0.5),
        "latency_tail_s": quantile_hd(latencies, beyond),
        "throughput_qps": len(latencies) / sum(latencies),
    }, 100 * beyond


def end_to_end(workload, seed, seconds):
    failures = []
    spawn(["simulate", "--automaton", workload.docs[0], "--steps", "0"], QUERY_DEADLINE_S)  # warm caches
    # Rounds (the whole query list in a seeded order) repeat until
    # `seconds` of query time have passed; the first round always ends, a
    # later one may stop part way.  Every query's latency is the median of
    # its repetitions, so each query counts once however many rounds ran,
    # and a slow spell of the machine during one repetition moves it less.
    # Set-up samples are spread over the first round, so that their median
    # sees the same machine as the queries; their time, and that of the
    # reference task, is not query time.  See REFERENCE for the scaling.
    setup = Setup(workload, spawn, failures)
    records, rounds, other_time = [], 0, 0.0
    refs, since_ref = [], REFERENCE_EVERY_S
    start = time.perf_counter()

    def spent():
        return time.perf_counter() - start - other_time

    while rounds == 0 or spent() < seconds:
        order = round_order(workload, seed, rounds)
        stride = max(len(order) // setup.count, 1)
        for index, query in enumerate(order):
            if rounds and spent() >= seconds:
                break
            if index % stride == 0 and len(setup.times) < setup.count:
                other_time += setup.sample()
            if since_ref >= REFERENCE_EVERY_S:
                at = time.perf_counter()
                refs.append((at, reference(failures)))
                other_time += refs[-1][1]
                since_ref = 0.0
            at = time.perf_counter()
            outcome = spawn(query.argv, QUERY_DEADLINE_S)
            since_ref += outcome[3]
            ok, why, unsure = judge(query, outcome, workload.files)
            records.append((query.name, at, outcome[3], ok, unsure))
            if not ok:
                failures.append(f"{query.name}: {why}")
        rounds += 1
    wall = spent()
    while len(setup.times) < setup.count:
        setup.sample()
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def scaled(at, seconds_taken):
        """A sample that started at `at`, scaled by the reference runs whose
        midpoints are nearest to its own."""
        mid = at + seconds_taken / 2
        near = sorted(refs, key=lambda ref: abs(ref[0] + ref[1] / 2 - mid))[:REFERENCE_NEAR]
        return seconds_taken * REFERENCE_S / statistics.median(s for _, s in near)

    metrics, tail_pct = time_metrics([(r[0], scaled(r[1], r[2])) for r in records],
                                     [scaled(a, s) for a, s in zip(setup.at, setup.times)])
    unscaled, _ = time_metrics([(r[0], r[2]) for r in records], setup.times)
    queries = {r[0] for r in records}
    failed = sum(1 for r in records if not r[3])
    metrics.update({
        "answered_frac": (len(records) - failed) / len(records),
        "conclusive_frac": 1 - len({r[0] for r in records if r[4]}) / len(queries),
        "peak_rss_mb": peak_kb / 1024,
    })
    ref_median = statistics.median(s for _, s in refs)
    notes = [f"{len(records)} runs of {len(queries)} queries in {rounds} round(s), "
             f"{wall:.2f} s",
             f"latency_tail_s is p{tail_pct:.1f} of {len(queries)} queries",
             f"reference task median {ref_median:.4f} s over {len(refs)} runs; unscaled "
             + ", ".join(f"{k} = {v:.6g}" for k, v in unscaled.items())]
    report = {"queries": [{"name": n, "start": at - start, "seconds": s, "ok": ok,
                           "inconclusive": inc} for n, at, s, ok, inc in records],
              "reference": [[at - start, s] for at, s in refs],
              "tail_percentile": tail_pct, "rounds": rounds, "unscaled": unscaled}
    return ({k: (v, END_TO_END[k]) for k, v in metrics.items()}, len(records),
            failed, failures, notes, report)


def measure_import():
    env = dict(os.environ, PYTHONPATH="src")
    code = ("import time; t = time.perf_counter(); import fuzzydes.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=QUERY_DEADLINE_S, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def traced(workload, seed):
    import layers
    from tracer import Tracer

    failures = []
    spawn(["simulate", "--automaton", workload.docs[0], "--steps", "0"], QUERY_DEADLINE_S)
    spawned = measure_setup(workload, spawn, failures)
    inproc = measure_setup(workload, in_process, failures)
    import_s = measure_import()

    order = round_order(workload, seed, 0)
    untraced = []
    for query in order:
        outcome = in_process(query.argv, QUERY_DEADLINE_S)
        ok, why, _ = judge(query, outcome, workload.files)
        untraced.append(outcome[3])
        if not ok:
            failures.append(f"untraced {query.name}: {why}")

    tracer = Tracer()
    tracer.install()
    rows = []
    try:
        for index, query in enumerate(order):
            tracer.query = index
            outcome = in_process(query.argv, QUERY_DEADLINE_S)
            ok, why, _ = judge(query, outcome, workload.files)
            written = len(outcome[1].encode())
            for i, arg in enumerate(query.argv[:-1]):
                if arg == "--out" and Path(query.argv[i + 1]).is_file():
                    written += Path(query.argv[i + 1]).stat().st_size
            rows.append({"query": index, "name": query.name, "argv": query.argv,
                         "sizes": query.sizes, "untraced_s": untraced[index],
                         "traced_s": outcome[3], "exit": outcome[0], "ok": ok,
                         "bytes_written": written})
            if not ok:
                failures.append(f"traced {query.name}: {why}")
    finally:
        tracer.query = None
        tracer.uninstall()

    metrics, missing = layers.per_layer(
        tracer, rows, import_s=import_s, spawn_overhead_s=spawned - inproc)
    trace_file = OUT / f"trace-{workload.name}-{seed}.json"
    trace_file.write_text(json.dumps({"workload": workload.name, "seed": seed, "queries": rows,
                                      **tracer.export()}), encoding="utf-8")
    notes = [f"{len(rows)} queries traced, spans and sizes in {trace_file.as_posix()}"]
    if missing:
        notes.append("missing per-layer metrics (function not found): " + ", ".join(missing))
    failed = sum(1 for r in rows if not r["ok"])
    return metrics, len(rows), failed, failures, notes, {"missing": missing}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    absent = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if absent:
        print(f"error: not a fuzzydes source checkout, missing {', '.join(absent)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT)]
    import corpus
    from probes import run_probes

    if args.workload != "all" and args.workload not in corpus.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from all, "
              f"{', '.join(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        files = OUT / "work" / f"{name}-{args.seed}-{args.trace}"
        shutil.rmtree(files, ignore_errors=True)
        workload = corpus.WORKLOADS[name](args.seed, files)
        if args.trace:
            metrics, attempted, failed, failures, notes, report = traced(workload, args.seed)
        else:
            metrics, attempted, failed, failures, notes, report = end_to_end(
                workload, args.seed, args.seconds)
        print(f"workload {name}, seed {args.seed}, trace {args.trace}")
        for line in notes:
            print("  " + line)
        for metric, (value, unit) in metrics.items():
            print(f"  {metric} = {value:.6g} {unit}")
        for failure in failures[:20]:
            print(f"  FAILED {failure}")
        (OUT / f"result-{name}-{args.seed}-{args.trace}.json").write_text(
            json.dumps({"metrics": {k: v for k, (v, _) in metrics.items()}, "failures": failures,
                        "notes": notes, **report}, indent=1), encoding="utf-8")
        prefix = f"{name}." if args.workload == "all" else ""
        totals["correct"] = totals["correct"] and not failures
        totals["attempted"] += attempted
        totals["failed"] += failed
        totals["metrics"].update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    if args.trace:
        probes = run_probes(spawn, OUT / "work" / "probes")
        (OUT / "probes.json").write_text(json.dumps(probes, indent=1), encoding="utf-8")
        for probe in probes:
            verdict = "pass" if probe["passed"] else "FAIL"
            print(f"probe {verdict}: {probe['name']} ({probe['seconds']} s) {probe['detail']}".rstrip())
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
