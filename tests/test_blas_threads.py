"""Determinism across BLAS thread counts: the metric CSV of a run is a pure
function of (config, seed), whatever number of threads OpenBLAS uses; and
importing fedlamb.models runs numpy's own OpenBLAS on one thread unless the
user set a thread count.

Each thread count needs its own process, since OpenBLAS reads
OPENBLAS_NUM_THREADS once at load time. The two processes run one after the
other, so at most two BLAS threads exist at any time. On a single-core
machine OpenBLAS caps both runs at one thread and the test cannot fail.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
# the variables OpenBLAS reads its thread count from
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

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
# different kernels (300 and 700 were measured) still differ at 2 threads. That
# gap remains only under an explicit thread count above 1: by default numpy's
# OpenBLAS runs on one thread (WIDE_700_SCRIPT checks that default).
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

# The same run at width 700, one of the widths whose bytes differ at 2 threads.
WIDE_700_SCRIPT = WIDE_SCRIPT.replace("hidden=(1000,)", "hidden=(700,)")

# numpy's OpenBLAS thread count once numpy, then fedlamb.models, is imported.
PIN_SCRIPT = """
import numpy
import fedlamb.models
from helpers import openblas_threads

print(openblas_threads())
"""

scipy_openblas = pytest.mark.skipif(
    np.__config__.CONFIG["Build Dependencies"]["blas"]["name"] != "scipy-openblas",
    reason="numpy is not built with its own scipy-openblas")


def csv_rows(threads, script=SCRIPT):
    """The script's output lines in a fresh process with OPENBLAS_NUM_THREADS set
    to `threads`, or with no thread-count variable at all when it is None."""
    path = [str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")]
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
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


@scipy_openblas
def test_import_runs_numpy_openblas_on_one_thread_by_default():
    assert csv_rows(None, PIN_SCRIPT) == ["1"]


@scipy_openblas
def test_import_keeps_a_user_set_thread_count():
    assert csv_rows(2, PIN_SCRIPT) == ["2"]


def test_wide_700_metric_csv_identical_by_default_and_at_one_blas_thread():
    default, one = csv_rows(None, WIDE_700_SCRIPT), csv_rows(1, WIDE_700_SCRIPT)
    assert len(default) == 5
    differ = [(a, b) for a, b in zip(default, one) if a != b]
    assert not differ, f"{len(differ)} of {len(default)} rows differ: {differ[:3]}"
