"""Command-line entry points: run, sweep, compare."""

from __future__ import annotations

import sys

import click

from .config import parse_config
from .runner import compare_protocols, grid_sweep, run_experiment

# printed as "Error: ..." with exit code 1; a diverged run raises FloatingPointError
_REPORTED = (ValueError, FloatingPointError, OSError)


@click.group()
def main():
    """Deterministic federated-optimization experiments."""


@main.command()
@click.argument("config", type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", type=click.Path(), default=None, help="Metrics CSV path.")
@click.option("--repeat", type=int, default=None, help="Number of repeats (derived seeds).")
@click.option("--quiet", is_flag=True, help="Suppress per-round log lines.")
def run(config, seed, out, repeat, quiet):
    """Run one experiment and write per-round metrics."""
    try:
        cfg = parse_config(config, seed=seed, repeat=repeat)
        log = None if quiet else click.echo
        summary = run_experiment(cfg, out=out, log=log)
    except _REPORTED as exc:
        raise click.ClickException(str(exc))
    click.echo(
        f"best accuracy {summary['mean_best_test_accuracy']:.4f} "
        f"(+/- {summary['stddev_best_test_accuracy']:.4f}) over {cfg.repeat} run(s), "
        f"final train loss {summary['mean_final_train_loss']:.6g}"
    )


@main.command()
@click.argument("config", type=click.Path(exists=True))
@click.argument("grid", required=False, default="default")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default="sweep", help="Report directory.")
@click.option("--repeat", type=int, default=None)
def sweep(config, grid, seed, out, repeat):
    """Sweep the learning rate over GRID (comma-separated, or 'default'
    for the built-in per-protocol grid)."""
    try:
        values = None if grid == "default" else grid.split(",")
        rows = grid_sweep(config, grid=values, out_dir=out, seed=seed, repeat=repeat)
    except _REPORTED as exc:
        raise click.ClickException(str(exc))
    for row in rows:
        click.echo(
            f"lr={row['lr']:g} "
            + (f"eta_global={row['eta_global']:g} " if row["eta_global"] else "")
            + f"best_acc={row['mean_best_test_accuracy']:.4f} "
            + f"final_loss={row['mean_final_train_loss']:.6g}"
        )


@main.command()
@click.argument("configs", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--target", type=float, default=0.9, help="Accuracy target for rounds-to-target.")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None, help="Comparison table CSV.")
def compare(configs, target, seed, out):
    """Compare protocols on identical data, model and initialization."""
    try:
        cfgs = [parse_config(path, seed=seed) for path in configs]
        table = compare_protocols(cfgs, target=target, out=out)
    except _REPORTED as exc:
        raise click.ClickException(str(exc))
    for proto in table["protocols"]:
        rtt = table["rounds_to_target"][proto]
        final = table["accuracy"][proto][-1]
        click.echo(f"{proto}: final_acc={final:.4f} rounds_to_{target:g}={rtt}")


if __name__ == "__main__":
    sys.exit(main())
