"""Helpers the tests share that are built on the package's own code, unlike
the independent loops in oracles.py: a block's norm as the package sums it,
the CSV writer that inverts data.load_csv, an epoch's minibatches, and the
thread count of numpy's own OpenBLAS."""

import ctypes
import math
from pathlib import Path

import numpy as np

from fedlamb.blocks import BlockVector, dot
from fedlamb.data import ClientShard, Dataset, minibatch_stream


def block_norms(x: BlockVector) -> np.ndarray:
    """Euclidean norm of every block, in block order: sqrt(dot(b, b)) per view.
    Not np.add.reduceat over the squares: its pairwise summation moves the
    norms by ulps."""
    return np.array([math.sqrt(dot(b, b)) for b in x.blocks])


def write_csv(dataset: Dataset, path):
    """Inverse of load_csv; floats use shortest round-trip formatting."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row, label in zip(dataset.features, dataset.labels):
            fields = [repr(float(x)) for x in row] + [str(int(label))]
            fh.write(",".join(fields) + "\n")


def epoch_batches(dataset: Dataset, shard: ClientShard, batch_size: int, epoch: int,
                  seed: int) -> list[Dataset]:
    """One local epoch of a shard as the engine steps through it: the epoch's
    sample order cut into consecutive read-only batches, the last maybe short."""
    order = minibatch_stream(shard, epoch, seed, batch_size)
    return [dataset.take(order[lo : lo + batch_size]) for lo in range(0, order.size, batch_size)]


def openblas_threads() -> int:
    """The thread count numpy's own OpenBLAS (scipy-openblas, bundled in the
    wheel) runs at, read from the library numpy has loaded."""
    home = Path(np.__file__).parent
    [lib] = [*home.parent.glob("numpy.libs/*scipy_openblas*"), *home.glob(".dylibs/*scipy_openblas*")]
    blas = ctypes.CDLL(str(lib))
    get = getattr(blas, "scipy_openblas_get_num_threads64_", None) or blas.scipy_openblas_get_num_threads
    get.argtypes, get.restype = [], ctypes.c_int
    return get()
