"""tools/bench_pair.py reads each benchmark run's last line as strict JSON,
checks one traced run per workload, and records whether each checkout is
clean."""

import importlib.util
import pathlib
import subprocess

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def test_the_last_line_is_the_result():
    out = 'workload x\n  note\n{"correct": true, "attempted": 3, "failed": 0, "metrics": {"m": {"value": 1.5, "unit": "s"}}}\n\n'
    assert bench_pair.strict_result(out)["metrics"]["m"]["value"] == 1.5


@pytest.mark.parametrize("last", [
    '{"correct": true, "metrics": {"m": {"value": NaN, "unit": "s"}}}',
    '{"correct": true, "metrics": {"m": {"value": Infinity, "unit": "s"}}}',
    '{"correct": true, "metrics": {"m": {"value": -Infinity, "unit": "s"}}}',
    'probe pass: D3 boolean n exits 2 (0.089 s)',
    '{"correct": true}',
    '',
])
def test_anything_else_fails_loudly(last):
    with pytest.raises(ValueError):
        bench_pair.strict_result("workload x\n" + last)


def test_pairs_are_summarized_against_the_parent():
    metric = {"unit": "1/s", "better": "higher", "bound": 0.25}
    out = bench_pair.summarize(metric, {"parent": [5.0, 5.2, 5.1], "change": [6.0, 5.1, 6.2]})
    assert (out["change_wins"], out["change_losses"]) == (2, 1)
    assert out["parent"]["median"] == 5.1 and out["change"]["median"] == 6.0
    assert out["median_change_frac"] == round(0.9 / 5.1, 4)


TRACED = ("workload graph_control, seed 1, trace 1\n"
          "  32 queries traced, spans and sizes in .bench_out/trace-graph_control-1.json\n"
          "  cli.import_s = 0.06 s\n"
          "probe FAIL: D1 check-controllable on the V=809 plant (5.008 s) no answer\n")


def test_a_clean_traced_run_passes():
    last = '{"correct": true, "attempted": 215, "failed": 0, "metrics": {"m": {"value": 1, "unit": "s"}}}'
    assert bench_pair.traced_result(TRACED + last)["attempted"] == 215


@pytest.mark.parametrize("stdout", [
    TRACED + '{"correct": false, "attempted": 215, "failed": 3, "metrics": {}}',
    TRACED + "  missing per-layer metrics (function not found): stability.candidates_tried\n"
    + '{"correct": true, "attempted": 215, "failed": 0, "metrics": {}}',
    TRACED,
    TRACED + '{"correct": true, "attempted": 215, "failed": 0, "metrics": {"m": {"value": NaN}}}',
])
def test_a_traced_run_that_is_wrong_or_incomplete_fails(stdout):
    with pytest.raises(ValueError):
        bench_pair.traced_result(stdout)


def test_the_tree_of_each_checkout_is_recorded(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
                       check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("commit", "-q", "-m", "one")
    assert bench_pair.git_tree(tmp_path) == {"clean": True, "changed": []}
    (tmp_path / "a.py").write_text("x = 2\n")
    (tmp_path / "b.py").write_text("y = 1\n")
    assert bench_pair.git_tree(tmp_path) == {"clean": False, "changed": ["a.py", "b.py"]}


def test_no_tree_is_recorded_outside_git(tmp_path, monkeypatch):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    assert bench_pair.git_tree(tmp_path) is None


def test_each_workload_gets_its_own_traced_run(monkeypatch):
    calls = []

    def fake_run_once(checkout, workload, seed, seconds, trace=0, read=None):
        calls.append((checkout, workload, seed, seconds, trace, read))
        return {"correct": True, "attempted": 4, "failed": 0, "metrics": {"m": {"value": 2}}}

    monkeypatch.setattr(bench_pair, "run_once", fake_run_once)
    checkouts = {"parent": "P", "change": "C"}
    checks = bench_pair.traced_checks(checkouts, ["graph_control", "cli_mix"], 9, 30)
    read = bench_pair.traced_result
    assert calls == [("P", "graph_control", 9, 30, 1, read), ("C", "graph_control", 9, 30, 1, read),
                     ("P", "cli_mix", 9, 30, 1, read), ("C", "cli_mix", 9, 30, 1, read)]
    assert list(checks) == ["graph_control", "cli_mix"]
    assert checks["cli_mix"]["command"] == ("python3 bench/run.py --workload cli_mix --seed 9 "
                                            "--seconds 30 --trace 1")
    assert checks["cli_mix"]["change"] == {"correct": True, "attempted": 4, "failed": 0,
                                           "metrics": {"m": 2}}
