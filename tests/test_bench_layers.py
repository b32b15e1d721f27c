"""The bench tracer still finds every function the per-layer metrics read.

bench/tracer.py wraps the public functions of the loaded fuzzydes modules by
name, and bench/layers.py reports a metric missing when a function it reads
was not wrapped; a traced benchmark run that prints such a line is refused.
Renaming, removing or making private one of those functions fails here
first.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/bench", sys.argv[1] + "/src"]
import fuzzydes.cli
import layers
from tracer import Tracer

tracer = Tracer()
tracer.install()
metrics, missing = layers.per_layer(tracer, [], import_s=0.0, spawn_overhead_s=0.0)
print(json.dumps({"metrics": sorted(metrics), "missing": missing, "declared": sorted(layers.PER_LAYER)}))
"""


def test_no_per_layer_metric_is_missing():
    out = subprocess.run([sys.executable, "-B", "-c", SCRIPT, str(ROOT)], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["missing"] == []
    assert result["metrics"] == result["declared"]
