"""Experiment runner: protocol dispatch, metric emission, learning-rate
sweeps and cross-protocol comparisons.

Metric files are CSV with a fixed column order (METRIC_COLUMNS). Every
emitted number except wall_time is a pure function of (config, seed). Every
CSV table (metrics, sweep report, comparison) is written by _write_table.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import astuple, fields
from pathlib import Path

from .config import ConfigError, ExperimentConfig, parse_config
from .data import Dataset, gen_blobs, load_csv, partition_iid, partition_label_shards
from .federation import TABLE, RoundMetrics, RunConfig, RunSettings, init_run, run_round

METRIC_COLUMNS = tuple(f.name for f in fields(RoundMetrics))

# Default local-rate (alpha) search grids per protocol; a protocol whose server
# rule has a rate (adam's eta_global) crosses its grid with ETA_GLOBAL_GRID.
DEFAULT_GRIDS = {
    "fed-sgd": [0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1, 0.3, 0.5],
    "fed-lamb": [0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1, 0.3, 0.5],
    "mime-lamb": [0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1, 0.3, 0.5],
    "fed-ams": [0.0001, 0.0003, 0.0005, 0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1],
    "mime": [0.0001, 0.0003, 0.0005, 0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1],
    "adp-fed": [0.0001, 0.0003, 0.0005, 0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1, 0.3, 0.5],
}
ETA_GLOBAL_GRID = [0.0001, 0.0003, 0.0005, 0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1]


def build_datasets(cfg: ExperimentConfig, seed: int) -> tuple[Dataset, Dataset]:
    if cfg.data == "csv":
        train = load_csv(cfg.csv_train, cfg.input_dim, cfg.classes)
        test = load_csv(cfg.csv_test, cfg.input_dim, cfg.classes)
        return train, test
    train = gen_blobs(
        cfg.classes, cfg.input_dim, cfg.train_per_class,
        cfg.separation, cfg.noise, seed,
    )
    test = gen_blobs(
        cfg.classes, cfg.input_dim, cfg.test_per_class,
        cfg.separation, cfg.noise, seed + 0x7E57,
    )
    return train, test


def build_shards(cfg: ExperimentConfig, train: Dataset, seed: int, *stream: int):
    if cfg.iid:
        return partition_iid(train, cfg.n_clients, seed, *stream)
    return partition_label_shards(train, cfg.n_clients, cfg.classes_per_client, seed, *stream)


def build_run_config(cfg: ExperimentConfig, seed: int) -> RunConfig:
    train, test = build_datasets(cfg, seed)
    settings = {f.name: getattr(cfg, f.name) for f in fields(RunSettings)}
    return RunConfig(
        **{**settings, "seed": seed},
        spec=cfg.model_spec(),
        train=train,
        test=test,
        shards=build_shards(cfg, train, seed),
        phi=cfg.scaling_fn(),
    )


def run_single(cfg: ExperimentConfig, seed: int, log=None) -> list[RoundMetrics]:
    """R rounds of the configured protocol with a fixed seed."""
    run_cfg = build_run_config(cfg, seed)
    server, clients = init_run(run_cfg)
    history = []
    for _ in range(cfg.rounds):
        if cfg.reshard_each_round:
            # keyed by (seed, round), so no two repeats' seeds share a round's shards
            run_cfg.shards = build_shards(cfg, run_cfg.train, seed, server.round_index + 1)
        metrics, _ = run_round(server, clients, run_cfg)
        history.append(metrics)
        if log is not None:
            log(
                f"round {metrics.round}: loss={metrics.train_loss:.4f} "
                f"acc={metrics.test_accuracy:.4f} gradsq={metrics.grad_norm_sq:.3e}"
            )
    return history


def _write_table(path, header, rows):
    """A CSV table: the header, then one line per row, each value as str()
    (for a float, the same text as repr())."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in (header, *rows):
            fh.write(",".join(map(str, row)) + "\n")


def write_metrics(history: list[RoundMetrics], path):
    _write_table(path, METRIC_COLUMNS, map(astuple, history))


def summarize(history: list[RoundMetrics]) -> dict:
    best = max(history, key=lambda m: (m.test_accuracy, -m.round))
    return {
        "best_test_accuracy": best.test_accuracy,
        "best_round": best.round,
        "final_test_accuracy": history[-1].test_accuracy,
        "final_train_loss": history[-1].train_loss,
        "final_grad_norm_sq": history[-1].grad_norm_sq,
        "total_uplink_floats": sum(m.uplink_floats for m in history),
        "total_downlink_floats": sum(m.downlink_floats for m in history),
    }


def run_experiment(cfg: ExperimentConfig, out=None, log=None) -> dict:
    """Run the experiment (with repeats on derived seeds), write one metric
    CSV per repeat plus a summary text file; returns the summary dict. Each
    run's own values keep their plain names for a single run and are named
    `seed<N>_...` per run when there are repeats."""
    out = Path(out if out is not None else (cfg.out or "metrics.csv"))
    summaries = []
    for i in range(cfg.repeat):
        seed = cfg.seed + i
        history = run_single(cfg, seed, log=log)
        path = out if cfg.repeat == 1 else out.with_name(
            f"{out.stem}_seed{seed}{out.suffix}"
        )
        write_metrics(history, path)
        summaries.append((seed, summarize(history)))

    per_run = summaries[0][1] if cfg.repeat == 1 else {
        f"seed{seed}_{key}": value for seed, s in summaries for key, value in s.items()}
    best_accs = [s["best_test_accuracy"] for _, s in summaries]
    summary = {
        "protocol": cfg.protocol,
        "repeats": cfg.repeat,
        "mean_best_test_accuracy": statistics.fmean(best_accs),
        "stddev_best_test_accuracy": (
            statistics.stdev(best_accs) if len(best_accs) > 1 else 0.0
        ),
        "mean_final_train_loss": statistics.fmean(s["final_train_loss"] for _, s in summaries),
        **per_run,
    }
    with open(out.with_suffix(out.suffix + ".summary.txt"), "w", encoding="utf-8") as fh:
        for key, value in summary.items():
            fh.write(f"{key} = {value!r}\n")
    return summary


def grid_sweep(path, grid=None, out_dir=None, **overrides) -> list[dict]:
    """Run the config file once per local rate (alpha) in the grid, with
    parse_config's overrides. A protocol whose server rule has a rate crosses
    the default grid with ETA_GLOBAL_GRID; an explicit grid runs at the
    config's eta_global. Every trial is parsed and checked before any runs.
    Returns rows ranked by best test accuracy (descending), then by final
    train loss: linear regression's accuracy is always 0, so its sweeps rank
    on the loss alone."""
    protocol = parse_config(path, **overrides).protocol
    has_rate = TABLE[protocol].server == "adam"
    alphas = DEFAULT_GRIDS[protocol] if grid is None else grid
    etas = ETA_GLOBAL_GRID if has_rate and grid is None else [None]  # None keeps the config's
    trials = {}  # file tag -> (grid value, trial); one tag is one file name
    for a, g in [(a, g) for a in alphas for g in etas]:
        trial = parse_config(path, **overrides, alpha=a, eta_global=g)
        tag = f"el{trial.alpha:g}_eg{trial.eta_global:g}" if has_rate else f"lr{trial.alpha:g}"
        if tag in trials:  # the second trial would overwrite the first's files
            raise ConfigError(f"{path}: key 'alpha': {trials[tag][0]!r} and {a!r} give one file tag {tag!r}")
        trials[tag] = a, trial
    if not trials:
        raise ConfigError("empty learning-rate grid")

    out_dir = Path(out_dir or "sweep")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for tag, (_, trial) in trials.items():
        lr, eg = trial.alpha, trial.eta_global if has_rate else None
        summary = run_experiment(trial, out=out_dir / f"{protocol}_{tag}.csv")
        rows.append({"lr": lr, "eta_global": eg, **summary})
    rows.sort(key=lambda row: (-row["mean_best_test_accuracy"], row["mean_final_train_loss"]))
    columns = ("lr", "eta_global", "mean_best_test_accuracy", "stddev_best_test_accuracy",
               "mean_final_train_loss")
    _write_table(out_dir / f"{protocol}_sweep.csv", columns,
                 ([row[key] for key in columns] for row in rows))
    return rows


def rounds_to_target(history: list[RoundMetrics], target: float) -> float:
    """First round whose test accuracy reaches the target; inf if never."""
    for m in history:
        if m.test_accuracy >= target:
            return m.round
    return math.inf


def compare_protocols(configs: list[ExperimentConfig], target: float = 0.9, out=None) -> dict:
    """Run several configs sharing data, model and seed; produce an aligned
    per-round accuracy table plus rounds-to-target-accuracy columns."""
    base = configs[0]
    # the keys the file adds to the run settings, bar phi and run control, and the seed
    skip = {f.name for f in fields(RunSettings)} | {"phi", "repeat", "out"}
    keys = [f.name for f in fields(ExperimentConfig) if f.name not in skip] + ["seed"]
    for other in configs[1:]:
        for key in keys:
            if getattr(other, key) != getattr(base, key):
                raise ConfigError(
                    f"compare requires matching data/model/seed; key {key!r} differs"
                )
    protos = [cfg.protocol for cfg in configs]
    labels = [
        p if protos.count(p) == 1 else f"{p}#{i}" for i, p in enumerate(protos)
    ]
    histories = {label: run_single(cfg, cfg.seed) for label, cfg in zip(labels, configs)}
    table = {
        "protocols": labels,
        "accuracy": {p: [m.test_accuracy for m in h] for p, h in histories.items()},
        "rounds_to_target": {p: rounds_to_target(h, target) for p, h in histories.items()},
        "target": target,
    }
    if out is not None:
        per_round = zip(*table["accuracy"].values())
        _write_table(out, ["round", *labels], [
            *((r, *accs) for r, accs in enumerate(per_round, start=1)),
            ["rounds_to_target", *table["rounds_to_target"].values()],
        ])
    return table
