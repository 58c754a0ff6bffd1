"""The benchmark's traced run reports every per-layer metric that
BENCHMARK.json lists.

perfbench/tracing.py wraps names in the package's module namespaces and
reports a metric as absent, not as a failure, when one of its patch sites is
gone. A change that renames, deletes or stops importing a name the tracer
patches therefore drops a metric from the traced run while the run still
exits 0. The tracer patches module globals, so it is installed in a fresh
interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Metrics perfbench/run.py adds from the run's totals and timings, not from the tracer.
ADDED_BY_RUN = {
    "federation.uplink_floats", "federation.downlink_floats", "federation.grad_evals",
    "trace.run_s", "trace.overhead_s",
}
INSTALL = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from fedlamb import blocks, data, federation, models, optim, runner
from tracing import Tracer
tracer = Tracer()
tracer.install({"blocks": blocks, "data": data, "federation": federation,
                "models": models, "optim": optim, "runner": runner})
print(json.dumps(sorted(tracer.summary())))
"""


def test_tracer_reports_every_per_layer_metric():
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert ADDED_BY_RUN <= listed
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, check=True,
    )
    reported = set(json.loads(proc.stdout.splitlines()[-1]))
    assert sorted(listed - ADDED_BY_RUN - reported) == []
