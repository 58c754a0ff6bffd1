"""The three workloads: which protocols each one runs on which config, and
the inputs the benchmark makes for them from the workload seed.

Each workload puts most of its time in a different layer (see README.md):
`c8-pair` in the per-round metric pass, `deep-local` in local training
kernels, `mime-wide` in per-client full-shard gradients and aggregation of
wide payloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

_CSV_TAG = 0xC5F


@dataclass(frozen=True)
class Workload:
    name: str
    runs: tuple[tuple[str, float], ...]  # (protocol, alpha) in run order
    shard_size: int                      # samples per client, equal for all
    csv_shape: tuple[int, int, int, int] | None = None  # classes, dim, train, test per class

    @property
    def template(self) -> Path:
        return HERE / "workloads" / f"{self.name}.cfg"


WORKLOADS = {
    w.name: w
    for w in (
        # Learning rates are those criterion 8 of the acceptance gate uses.
        Workload("c8-pair", (("fed-lamb", 0.1), ("fed-ams", 0.01)), shard_size=250),
        Workload("deep-local", (("fed-lamb", 0.01),), shard_size=250),
        Workload("mime-wide", (("mime-lamb", 0.1),), shard_size=50,
                 csv_shape=(10, 100, 200, 50)),
    )
}


def gen_csv_blobs(classes, dim, per_class, seed, separation=6.0, noise=1.5):
    """The benchmark's own Gaussian blobs, written to CSV for `data = csv`:
    class c is centred `separation` along axis c; rows are shuffled."""
    rng = np.random.default_rng([_CSV_TAG, seed])
    labels = np.repeat(np.arange(classes), per_class)
    feats = noise * rng.standard_normal((labels.size, dim))
    feats[np.arange(labels.size), labels] += separation
    order = rng.permutation(labels.size)
    return feats[order], labels[order]


def write_csv(path: Path, feats, labels):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row, label in zip(feats.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


def csv_data(workload: Workload, seed: int):
    """(train, test) arrays for a CSV workload; the test set uses seed + 1."""
    classes, dim, n_train, n_test = workload.csv_shape
    return (gen_csv_blobs(classes, dim, n_train, seed),
            gen_csv_blobs(classes, dim, n_test, seed + 1))


def write_inputs(workload: Workload, seed: int, work: Path) -> tuple[list[Path], list[Path]]:
    """Concrete `key = value` configs, one per run of the workload, and the
    CSV inputs when the workload reads CSV: (configs, all files written)."""
    extra = [f"seed = {seed}"]
    paths = []
    if workload.csv_shape is not None:
        train, test = csv_data(workload, seed)
        paths = [work / f"{workload.name}-{seed}-{part}.csv" for part in ("train", "test")]
        for path, (feats, labels) in zip(paths, (train, test)):
            write_csv(path, feats, labels)
        extra += [f"csv_train = {paths[0]}", f"csv_test = {paths[1]}"]
    base = workload.template.read_text(encoding="utf-8")
    out = []
    for protocol, alpha in workload.runs:
        path = work / f"{workload.name}-{seed}-{protocol}.cfg"
        lines = [base.rstrip("\n"), f"protocol = {protocol}", f"alpha = {alpha!r}", *extra]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out.append(path)
    return out, out + paths
