"""tools/bench_pair.py reads each benchmark run's last line as strict JSON."""

import importlib.util
import pathlib

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
