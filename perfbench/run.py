"""Benchmark of the fedlamb simulator: one workload, one seed, one result line.

    python3 perfbench/run.py --workload c8-pair --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the simulator is imported from its
`src/` directory. Each measurement is a fresh process (child.py) that sets
up and runs every protocol of the workload once. Processes run one after
another until `--seconds` is spent and at least MIN_TIMED_ROUNDS rounds
were timed. The last stdout line is one JSON object:

    {"correct": ..., "attempted": rounds, "failed": rounds, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, medians over the
processes of the run. With --trace 1 untraced and traced processes
alternate, and the metrics are the per-layer ones from the traced
processes (medians), plus the tracing overhead. Every process's outputs are
checked (see checks.py); a failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# Timed rounds per run, pooled over its processes: enough that the 90th
# percentile has at least ten rounds beyond it.
MIN_TIMED_ROUNDS = 100
TAIL_PCT = 90
CHILD_TIMEOUT_S = 120
# Stop starting processes once this much time has gone, whatever --seconds says.
HARD_STOP_S = 150


def spawn(name, seed, traced, k, cfgs):
    out_prefix = WORK / f"{name}-{seed}-p{k}"
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(ROOT), name, repr(spawned_at),
         "1" if traced else "0", str(out_prefix), *map(str, cfgs)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=HERE,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"measurement process {k} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    result["elapsed_s"] = time.monotonic() - spawned_at
    result["csv_text"] = [Path(p).read_text(encoding="utf-8") for p in result["csv"]]
    for p in result["csv"]:
        Path(p).unlink()
    return result


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def end_to_end(procs):
    rounds = [ms for p in procs for ms in p["round_ms"]]
    med = statistics.median
    return {
        "run_s": (med(p["run_s"] for p in procs), "s"),
        "cpu_s": (med(p["cpu_s"] for p in procs), "s"),
        "round_ms.p50": (med(rounds), "ms"),
        f"round_ms.p{TAIL_PCT}": (percentile(rounds, TAIL_PCT), "ms"),
        "setup_s": (med(p["setup_s"] for p in procs), "s"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in procs), "MB"),
    }


LAYER_UNITS = {".ms": "ms", ".self_ms": "ms", ".calls": "count", ".count": "count"}


def per_layer(procs):
    traced = [p for p in procs if p["traced"]]
    plain = [p for p in procs if not p["traced"]]
    out = {}
    for key in traced[0]["layers"]:
        unit = next(u for suffix, u in LAYER_UNITS.items() if key.endswith(suffix))
        median = statistics.median_low if unit == "count" else statistics.median
        out[key] = (median(p["layers"][key] for p in traced), unit)
    for key, unit in (("uplink_floats", "floats"), ("downlink_floats", "floats"),
                      ("grad_evals", "count")):
        out[f"federation.{key}"] = (traced[0]["totals"][key], unit)
    traced_s = statistics.median(p["run_s"] for p in traced)
    plain_s = statistics.median(p["run_s"] for p in plain)
    out["trace.run_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fedlamb" / "__init__.py").is_file():
        print(f"no simulator source at {ROOT / 'src' / 'fedlamb'}; "
              "run from the root of a fedlamb checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    cfgs, written = write_inputs(workload, args.seed, WORK)

    start = time.monotonic()
    procs = []
    while True:
        traced = bool(args.trace) and len(procs) % 2 == 1
        procs.append(spawn(workload.name, args.seed, traced, len(procs), cfgs))
        elapsed = time.monotonic() - start
        timed = sum(len(p["round_ms"]) for p in procs if not p["traced"])
        next_s = statistics.median(p["elapsed_s"] for p in procs)
        enough = timed >= MIN_TIMED_ROUNDS and (not args.trace or len(procs) >= 2)
        if elapsed >= HARD_STOP_S or (enough and elapsed + next_s > args.seconds):
            break
    for path in written:
        path.unlink()

    fails = [f"process {k}: {m}" for k, p in enumerate(procs) for m in p["fails"]]
    for j, (protocol, _) in enumerate(workload.runs):
        fails += checks.check_identical(
            f"{protocol} metric CSV", [p["csv_text"][j] for p in procs
                                       if len(p["csv_text"]) > j])
    untraced = [p for p in procs if not p["traced"]]
    metrics = per_layer(procs) if args.trace else end_to_end(untraced)
    result = {
        "correct": not fails,
        "attempted": sum(p["attempted"] for p in procs),
        "failed": sum(p["failed"] for p in procs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / f"result-{workload.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "fails": fails, "processes": [
            {k: v for k, v in p.items() if k != "csv_text"} for p in procs]}, indent=1))
    for msg in fails:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
