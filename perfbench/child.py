"""One benchmark process: set up and run every protocol of one workload once.

Started fresh by run.py for each measurement, so set-up is measured cold
(interpreter start, imports, config parse, data, partition, init). Each
protocol gets one discarded warm-up round on a throwaway state before its
timed rounds, so lazy first-call costs stay out of the round times. Prints
one JSON object on its last stdout line.

    python3 child.py ROOT WORKLOAD SPAWNED_AT TRACE OUT_PREFIX CFG [CFG ...]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process; TRACE is 0 or 1.
"""

from __future__ import annotations

import csv
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import checks
from workloads import WORKLOADS, csv_data


def flat(x) -> np.ndarray:
    """One float vector from the program's parameter container: per-layer
    `blocks`, or a single flat array should the container become one."""
    blocks = getattr(x, "blocks", None)
    if blocks is None:
        return np.asarray(x, dtype=np.float64).ravel()
    return np.concatenate([np.asarray(b, dtype=np.float64).ravel() for b in blocks])


def split_params(vec, sizes):
    Ws, bs, at = [], [], 0
    for fi, fo in zip(sizes, sizes[1:]):
        Ws.append(vec[at:at + fi * fo].reshape(fi, fo))
        at += fi * fo
        bs.append(vec[at:at + fo])
        at += fo
    if at != vec.size:
        raise ValueError(f"parameter vector has {vec.size} entries, layers need {at}")
    return Ws, bs


def main(argv):
    root, name, spawned_at, trace, out_prefix, *cfg_paths = argv
    spawned_at = float(spawned_at)
    sys.path.insert(0, str(Path(root) / "src"))
    from fedlamb import blocks, config, data, federation, models, optim, runner

    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install({"blocks": blocks, "data": data, "federation": federation,
                        "models": models, "optim": optim, "runner": runner})

    workload = WORKLOADS[name]
    setup_s = run_s = cpu_s = 0.0
    round_ms, warmup_ms, runs = [], [], []
    attempted = failed = 0
    fails = []
    t_mark = spawned_at
    for cfg_path in cfg_paths:
        cfg = config.parse_config(cfg_path)
        run_cfg = runner.build_run_config(cfg, cfg.seed)
        server, clients = federation.init_run(run_cfg)
        setup_s += time.monotonic() - t_mark

        if tracer is not None:
            tracer.enabled = False
        t0 = time.perf_counter()
        federation.run_round(*federation.init_run(run_cfg), run_cfg)
        warmup_ms.append((time.perf_counter() - t0) * 1e3)
        if tracer is not None:
            tracer.enabled = True

        monitor = checks.VhatMonitor(cfg.eps) if cfg.protocol in checks.ADAPTIVE else None
        history = []
        for _ in range(cfg.rounds):
            attempted += 1
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                metrics, _ = federation.run_round(server, clients, run_cfg)
            except Exception as exc:  # counted as a failed round, reported below
                failed += 1
                fails.append(f"{cfg.protocol}: {type(exc).__name__}: {exc}")
                break
            c1 = time.process_time()
            t1 = time.perf_counter()
            run_s += t1 - t0
            cpu_s += c1 - c0
            round_ms.append((t1 - t0) * 1e3)
            history.append(metrics)
            if monitor is not None:
                monitor.observe(metrics.round, [flat(server.vhat)])
        runs.append((cfg, run_cfg, flat(server.params), history, monitor))
        del server, clients
        t_mark = time.monotonic()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    csv_paths, totals = [], {"uplink_floats": 0, "downlink_floats": 0, "grad_evals": 0}
    for cfg, run_cfg, params, history, monitor in runs:
        label = cfg.protocol
        path = f"{out_prefix}-{label}.csv"
        runner.write_metrics(history, path)
        csv_paths.append(path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for key in totals:
            totals[key] += sum(int(row[key]) for row in rows)
        if monitor is not None:
            fails += [f"{label}: {m}" for m in monitor.fails[:5]]
        if len(rows) < cfg.rounds:
            continue  # a failed round is counted above; nothing final to check
        sizes = (cfg.input_dim, *cfg.hidden, cfg.classes)
        n_part = checks.participants(cfg.n_clients, cfg.participation)
        fails += [f"{label}: {m}" for m in checks.check_ledger(
            rows, cfg.protocol, checks.param_count(sizes), n_part, cfg.lazy_period,
            workload.shard_size, cfg.local_epochs)]
        if workload.csv_shape is not None:
            # The benchmark's own arrays, not the program's parse of the CSV.
            (Xtr, ytr), (Xte, yte) = csv_data(workload, cfg.seed)
        else:
            Xtr, ytr = run_cfg.train.features, run_cfg.train.labels
            Xte, yte = run_cfg.test.features, run_cfg.test.labels
        Ws, bs = split_params(params, sizes)
        fails += [f"{label}: {m}" for m in checks.check_final_round(
            rows[-1], Ws, bs, (Xtr, ytr), (Xte, yte))]
        fails += [f"{label}: {m}" for m in checks.check_accuracy_floor(rows)]

    result = {
        "setup_s": setup_s, "run_s": run_s, "cpu_s": cpu_s, "round_ms": round_ms,
        "warmup_ms": warmup_ms, "peak_rss_mb": peak_rss_mb,
        "attempted": attempted, "failed": failed, "fails": fails, "csv": csv_paths,
        "totals": totals,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = tracer.detail
        result["absent"] = sorted(tracer.absent)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
