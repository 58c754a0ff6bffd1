"""Helpers the tests share that are built on the package's own code, unlike
the independent loops in oracles.py: a block's norm as the package sums it,
the CSV writer that inverts data.load_csv, an epoch's minibatches, the
thread count of numpy's own OpenBLAS, and the models' backward pass
transcribed to plain numpy in the package's operation order."""

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
    order = minibatch_stream(shard.indices, epoch, seed, batch_size)
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


def reference_backward(spec, flat: np.ndarray, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean batch loss, (..., p), from plain numpy on fresh arrays:
    models.backward's operations in its order, for parameters `flat` (..., p) laid
    out as param_template's blocks and a batch `features` (..., b, d), `labels`
    (..., b). Exact for batches and layer widths of at most 256, where models
    makes every sum one product."""
    sizes, lead, n = spec.layer_sizes(), flat.shape[:-1], features.shape[-2]
    Ws, bs, lo = [], [], 0
    for fi, fo in zip(sizes, sizes[1:]):
        Ws.append(flat[..., lo : lo + fi * fo].reshape(*lead, fi, fo))
        bs.append(flat[..., None, lo + fi * fo : lo + fi * fo + fo])
        lo += fi * fo + fo
    hs = [features]
    for i, (W, b) in enumerate(zip(Ws, bs), start=1):
        z = hs[-1] @ W + b
        if i < len(Ws):
            hs.append(np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z))
    if spec.kind == "mlp":
        shifted = z - z.max(axis=-1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        delta = (np.exp(log_p) - (np.arange(spec.classes) == labels[..., None])) / n
    elif spec.kind == "logistic":
        s = z[..., 0]
        with np.errstate(over="ignore"):  # each branch is kept only where it is finite
            sig = np.where(s >= 0, 1.0 / (1.0 + np.exp(-s)), np.exp(s) / (1.0 + np.exp(s)))
        delta = ((sig - labels) / n)[..., None]
    else:
        delta = (2.0 / n * (z[..., 0] - labels))[..., None]
    grads = []
    for i in range(len(Ws) - 1, -1, -1):
        grads = [(hs[i].swapaxes(-1, -2) @ delta).reshape(*lead, -1), delta.sum(axis=-2), *grads]
        if i > 0:
            delta = delta @ Ws[i].swapaxes(-1, -2)
            delta = delta * (hs[i] > 0) if spec.activation == "relu" else delta * (1 - hs[i] * hs[i])
    return np.concatenate(grads, axis=-1)
