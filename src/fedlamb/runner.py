"""Experiment runner: protocol dispatch, metric emission, learning-rate
sweeps and cross-protocol comparisons.

Metric files are CSV with a fixed column order (METRIC_COLUMNS). Every
emitted number except wall_time is a pure function of (config, seed).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import fields, replace
from pathlib import Path

from .config import ConfigError, ExperimentConfig
from .data import Dataset, gen_blobs, load_csv, partition_iid, partition_label_shards
from .federation import RoundMetrics, RunConfig, RunSettings, init_run, run_round

METRIC_COLUMNS = tuple(f.name for f in fields(RoundMetrics))

# Default local-rate (alpha) search grids per protocol; adp-fed crosses its
# local grid with the global one (eta_global).
DEFAULT_GRIDS = {
    "fed-sgd": [0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1, 0.3, 0.5],
    "fed-lamb": [0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1, 0.3, 0.5],
    "mime-lamb": [0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1, 0.3, 0.5],
    "fed-ams": [0.0001, 0.0003, 0.0005, 0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1],
    "mime": [0.0001, 0.0003, 0.0005, 0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1],
    "adp-fed": [0.0001, 0.0003, 0.0005, 0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1, 0.3, 0.5],
    "adp-fed-global": [0.0001, 0.0003, 0.0005, 0.001, 0.003, 0.005, 0.01, 0.03, 0.05, 0.1],
}


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


def format_metric_row(m: RoundMetrics) -> str:
    return ",".join(str(getattr(m, key)) for key in METRIC_COLUMNS)


def write_metrics(history: list[RoundMetrics], path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(METRIC_COLUMNS) + "\n")
        for m in history:
            fh.write(format_metric_row(m) + "\n")


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


def grid_sweep(cfg: ExperimentConfig, grid=None, out_dir=None, log=None) -> list[dict]:
    """Run the base config once per local rate (alpha) in the grid; adp-fed's default
    grid crosses each with a server rate (eta_global), an explicit one keeps the
    config's. Returns rows ranked by best test accuracy (descending), then by
    final train loss: linear regression's accuracy is always 0, so its
    sweeps rank on the loss alone."""
    out_dir = Path(out_dir or "sweep")
    out_dir.mkdir(parents=True, exist_ok=True)
    adp = cfg.protocol == "adp-fed"  # the one protocol with a server rate
    lrs = DEFAULT_GRIDS[cfg.protocol] if grid is None else grid
    egs = DEFAULT_GRIDS["adp-fed-global"] if adp and grid is None else [cfg.eta_global]
    trials = [replace(cfg, alpha=lr, eta_global=eg) for lr in lrs for eg in egs]
    if not trials:
        raise ConfigError("empty learning-rate grid")

    rows = []
    for trial in trials:
        lr, eg = trial.alpha, trial.eta_global if adp else None
        tag = f"el{lr:g}_eg{eg:g}" if adp else f"lr{lr:g}"
        summary = run_experiment(trial, out=out_dir / f"{cfg.protocol}_{tag}.csv", log=log)
        rows.append({"lr": lr, "eta_global": eg, **summary})
    rows.sort(key=lambda row: (-row["mean_best_test_accuracy"], row["mean_final_train_loss"]))
    report = out_dir / f"{cfg.protocol}_sweep.csv"
    columns = ("lr", "eta_global", "mean_best_test_accuracy", "stddev_best_test_accuracy",
               "mean_final_train_loss")
    with open(report, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[key]) for key in columns) + "\n")
    return rows


def rounds_to_target(history: list[RoundMetrics], target: float) -> float:
    """First round whose test accuracy reaches the target; inf if never."""
    for m in history:
        if m.test_accuracy >= target:
            return m.round
    return math.inf


def compare_protocols(
    configs: list[ExperimentConfig], target: float = 0.9, out=None, log=None
) -> dict:
    """Run several configs sharing data, model and seed; produce an aligned
    per-round accuracy table plus rounds-to-target-accuracy columns."""
    base = configs[0]
    for other in configs[1:]:
        for key in ("data", "csv_train", "csv_test", "model", "input_dim", "hidden",
                    "classes", "activation", "seed", "rounds", "n_clients",
                    "train_per_class", "test_per_class", "separation", "noise",
                    "iid", "classes_per_client", "reshard_each_round"):
            if getattr(other, key) != getattr(base, key):
                raise ConfigError(
                    f"compare requires matching data/model/seed; key {key!r} differs"
                )
    protos = [cfg.protocol for cfg in configs]
    labels = [
        p if protos.count(p) == 1 else f"{p}#{i}" for i, p in enumerate(protos)
    ]
    histories = {}
    for label, cfg in zip(labels, configs):
        histories[label] = run_single(cfg, cfg.seed, log=log)
    table = {
        "protocols": labels,
        "accuracy": {p: [m.test_accuracy for m in h] for p, h in histories.items()},
        "rounds_to_target": {p: rounds_to_target(h, target) for p, h in histories.items()},
        "target": target,
    }
    if out is not None:
        protos = table["protocols"]
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("round," + ",".join(protos) + "\n")
            for r in range(base.rounds):
                fh.write(
                    f"{r + 1},"
                    + ",".join(repr(table["accuracy"][p][r]) for p in protos)
                    + "\n"
                )
            fh.write(
                "rounds_to_target,"
                + ",".join(str(table["rounds_to_target"][p]) for p in protos)
                + "\n"
            )
    return table
