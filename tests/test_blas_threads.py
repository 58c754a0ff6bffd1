"""Determinism across BLAS thread counts: the metric CSV of a run is a pure
function of (config, seed), whatever number of threads OpenBLAS uses.

Each thread count needs its own process, since OpenBLAS reads
OPENBLAS_NUM_THREADS once at load time. The two processes run one after the
other, so at most two BLAS threads exist at any time. On a single-core
machine OpenBLAS caps both runs at one thread and the test cannot fail.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# Five rounds of every protocol on the criterion-8 task at seed 7; prints each
# CSV row without its wall_time column.
SCRIPT = """
from dataclasses import astuple

from fedlamb.config import ExperimentConfig
from fedlamb.federation import PROTOCOLS
from fedlamb.runner import run_single
from test_acceptance import BENCH, BENCH_LRS

RATES = {"fed-sgd": {"alpha": 0.05}, "adp-fed": {"alpha": 0.05, "eta_global": 0.01},
         **{p: {"alpha": lr} for p, lr in BENCH_LRS.items()}}
for protocol in PROTOCOLS:
    cfg = ExperimentConfig(protocol=protocol, seed=7, **{**BENCH, "rounds": 5}, **RATES[protocol])
    for m in run_single(cfg, cfg.seed):
        print(protocol, ",".join(map(str, astuple(m)[:-1])))
"""

# Five rounds of mime-lamb on a wide MLP 30-1000-10: the hidden layer's fan-in
# of 1000 is summed in 256-long pieces, and W1's 30,000 floats are one block
# whose trust-ratio and grad_norm_sq dots are summed in 8,192-float pieces.
# Not covered: widths whose output columns OpenBLAS splits into pieces that take
# different kernels (300 and 700 were measured) still differ at 2 threads.
WIDE_SCRIPT = """
from dataclasses import astuple

from fedlamb.config import ExperimentConfig
from fedlamb.runner import run_single

cfg = ExperimentConfig(protocol="mime-lamb", input_dim=30, hidden=(1000,), classes=10,
                       train_per_class=60, test_per_class=10, n_clients=4, participation=0.5,
                       rounds=5, iid=False, classes_per_client=3, eps=1e-4, alpha=0.1, seed=7)
for m in run_single(cfg, cfg.seed):
    print(",".join(map(str, astuple(m)[:-1])))
"""


def csv_rows(threads, script=SCRIPT):
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_metric_csv_identical_at_one_and_two_blas_threads():
    one, two = csv_rows(1), csv_rows(2)
    assert len(one) == 6 * 5
    differ = [(a, b) for a, b in zip(one, two) if a != b]
    assert not differ, f"{len(differ)} of {len(one)} rows differ: {differ[:3]}"


def test_wide_model_metric_csv_identical_at_one_and_two_blas_threads():
    one, two = csv_rows(1, WIDE_SCRIPT), csv_rows(2, WIDE_SCRIPT)
    assert len(one) == 5
    differ = [(a, b) for a, b in zip(one, two) if a != b]
    assert not differ, f"{len(differ)} of {len(one)} rows differ: {differ[:3]}"
