"""Small differentiable models with hand-written forward/backward passes.

Three families: scalar linear regression (MSE), binary logistic regression
and a softmax MLP (cross-entropy). Every parameter tensor is its own block,
so the induced block structure is the unit of layer-wise normalization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector
from .data import Dataset
from .optim import check_ranges

KINDS = ("linear-regression", "logistic", "mlp")
ACTIVATIONS = ("relu", "tanh")

_INIT_TAG = 0x11D1  # keys the parameter-init RNG stream
# Rows per step of every sample-axis sum: OpenBLAS splits longer sums across
# threads, so 512 rows already give thread-count-dependent bytes.
_CHUNK = 256


class NumericOverflowError(FloatingPointError):
    """Non-finite values appeared during a forward or backward pass."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    hidden: tuple[int, ...] = ()
    classes: int = 2
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        check_ranges(self, (
            ("model", f"must be one of {', '.join(KINDS)}", lambda s: s.kind in KINDS),
            ("input_dim", "must be >= 1", lambda s: s.input_dim >= 1),
            ("hidden", "widths must be >= 1", lambda s: all(h >= 1 for h in s.hidden)),
            ("hidden", "needs one or more widths for mlp", lambda s: s.kind != "mlp" or s.hidden),
            ("classes", "must be >= 2 for mlp", lambda s: s.kind != "mlp" or s.classes >= 2),
            ("classes", "must be 2 for logistic", lambda s: s.kind != "logistic" or s.classes == 2),
            ("activation", f"must be one of {', '.join(ACTIVATIONS)}", lambda s: s.activation in ACTIVATIONS),
        ))

    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.classes)


def param_template(spec: ModelSpec) -> list[tuple[str, int, int]]:
    """(name, size, fan_in) per block; fan_in 0 marks a bias block."""
    if spec.kind in ("linear-regression", "logistic"):
        return [("w", spec.input_dim, spec.input_dim), ("b", 1, 0)]
    sizes = spec.layer_sizes()
    out = []
    for i, (fi, fo) in enumerate(zip(sizes, sizes[1:]), start=1):
        out.append((f"W{i}", fi * fo, fi))
        out.append((f"b{i}", fo, 0))
    return out


def init_params(spec: ModelSpec, seed: int) -> BlockVector:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases.

    The stream is keyed by the seed alone, so identical (spec, seed) gives
    bit-identical parameters on every run and thread count.
    """
    rng = np.random.default_rng([_INIT_TAG, seed])
    pairs = []
    for name, size, fan_in in param_template(spec):
        if fan_in == 0:
            pairs.append((name, np.zeros(size)))
        else:
            bound = 1.0 / np.sqrt(fan_in)
            pairs.append((name, rng.uniform(-bound, bound, size)))
    return BlockVector.of(pairs)


def _check_finite(arr: np.ndarray, block: str):
    if not np.isfinite(arr).all():
        raise NumericOverflowError(f"non-finite activations at block {block!r}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@functools.lru_cache(maxsize=None)
def _block_names(spec: ModelSpec) -> tuple[str, ...]:
    return tuple(n for n, _, _ in param_template(spec))


def _check_batch(spec: ModelSpec, params: BlockVector, batch: Dataset):
    if batch.features.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature width {batch.features.shape[1]} != input_dim {spec.input_dim}"
        )
    names = _block_names(spec)
    if params.names != names:
        raise ValueError(f"params {params.names} do not match spec blocks {names}")


def _mlp_weights(spec: ModelSpec, params: BlockVector):
    sizes = spec.layer_sizes()
    Ws, bs = [], []
    it = iter(params.blocks)
    for fi, fo in zip(sizes, sizes[1:]):
        Ws.append(next(it).reshape(fi, fo))
        bs.append(next(it))
    return Ws, bs


def _mlp_forward(spec: ModelSpec, params: BlockVector, X: np.ndarray):
    """Returns (logits, input to each layer, weights); bias and activation
    are applied in place on each matmul's output."""
    Ws, bs = _mlp_weights(spec, params)
    acts = [X]
    h = X
    for i, (W, b) in enumerate(zip(Ws, bs), start=1):
        z = h @ W
        z += b
        _check_finite(z, f"W{i}")
        if i < len(Ws):
            h = np.maximum(z, 0.0, out=z) if spec.activation == "relu" else np.tanh(z, out=z)
            acts.append(h)
    return z, acts, Ws


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=1, keepdims=True))


def _forward(spec: ModelSpec, params: BlockVector, batch: Dataset):
    """One forward pass: (out, scores, saved). The loss and its gradient start
    from `out` (residual, logit or log-probabilities), a class prediction from
    `scores`; `saved` holds the MLP's layer inputs and weights."""
    _check_batch(spec, params, batch)
    if spec.kind == "mlp":
        logits, acts, Ws = _mlp_forward(spec, params, batch.features)
        return _log_softmax(logits), logits, (acts, Ws)
    w, b = params.blocks
    z = batch.features @ w + b[0]
    if spec.kind == "linear-regression":
        z -= batch.labels.astype(np.float64)
    _check_finite(z, "w")
    return z, z, None


def _loss_terms(spec: ModelSpec, out: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample loss from `_forward`'s `out`: the one loss expression per kind."""
    if spec.kind == "linear-regression":
        return out * out
    if spec.kind == "logistic":
        return np.logaddexp(0.0, out) - labels.astype(np.float64) * out
    return -out[np.arange(len(labels)), labels.astype(np.intp)]


def _gradient(spec: ModelSpec, params: BlockVector, batch: Dataset, out, saved, n: int, g: np.ndarray):
    """Writes into `g` the batch's share of the gradient of a mean loss over
    `n` samples, from `_forward`'s `out` and `saved`."""
    X = batch.features
    views = [g[s] for s in params.layout.slices]
    if spec.kind == "linear-regression":
        np.multiply(2.0 / n, X.T @ out, out=views[0])
        views[1][0] = 2.0 * (out.sum() / n)
    elif spec.kind == "logistic":
        err = _sigmoid(out) - batch.labels.astype(np.float64)
        np.divide(X.T @ err, n, out=views[0])
        views[1][0] = err.sum() / n
    else:
        acts, Ws = saved
        delta = np.exp(out)
        delta[np.arange(batch.n), batch.labels.astype(np.intp)] -= 1.0
        delta /= n
        for i in range(len(Ws) - 1, -1, -1):
            np.matmul(acts[i].T, delta, out=views[2 * i].reshape(Ws[i].shape))
            delta.sum(axis=0, out=views[2 * i + 1])
            if i > 0:
                delta = delta @ Ws[i].T
                if spec.activation == "relu":
                    np.multiply(delta, acts[i] > 0, out=delta)
                else:
                    delta *= 1.0 - acts[i] * acts[i]


def _loss_and_gradient(spec: ModelSpec, params: BlockVector, batch: Dataset, with_loss: bool):
    """(mean loss or None, gradient of the mean loss) over consecutive `_CHUNK`-row
    chunks of `batch`, in order: each chunk divides by the whole batch's size,
    the first writes the gradient and later ones add to it, and the loss is one
    mean over every sample's term. A batch of at most `_CHUNK` rows is one chunk."""
    n = batch.n
    flat, tmp = np.empty(params.dim), np.empty(params.dim) if n > _CHUNK else None
    terms = np.empty(n) if with_loss else None
    for lo in range(0, n, _CHUNK):
        chunk = batch if n <= _CHUNK else Dataset(
            batch.features[lo : lo + _CHUNK], batch.labels[lo : lo + _CHUNK], batch.classes)
        out, _, saved = _forward(spec, params, chunk)
        if with_loss:
            terms[lo : lo + chunk.n] = _loss_terms(spec, out, chunk.labels)
        _gradient(spec, params, chunk, out, saved, n, tmp if lo else flat)
        if lo:
            flat += tmp
    return float(np.mean(terms)) if with_loss else None, BlockVector(params.layout, flat)


def forward_loss(spec: ModelSpec, params: BlockVector, batch: Dataset) -> float:
    """Mean loss over the batch; cross-entropy via stable log-sum-exp."""
    return float(np.mean(_loss_terms(spec, _forward(spec, params, batch)[0], batch.labels)))


def backward(spec: ModelSpec, params: BlockVector, batch: Dataset) -> BlockVector:
    """Gradient of the mean batch loss with respect to every block."""
    return _loss_and_gradient(spec, params, batch, with_loss=False)[1]


def full_gradient(spec: ModelSpec, params: BlockVector, dataset: Dataset) -> tuple[float, BlockVector]:
    """(mean loss, exact mean gradient) over a whole dataset, one chunked pass each way."""
    return _loss_and_gradient(spec, params, dataset, with_loss=True)


def evaluate(spec: ModelSpec, params: BlockVector, dataset: Dataset) -> tuple[float, float]:
    """(accuracy, mean loss) from one forward pass; argmax ties break toward
    the smallest class index.

    Linear regression has no class prediction; its accuracy reports 0.0.
    """
    out, scores, _ = _forward(spec, params, dataset)
    loss = float(np.mean(_loss_terms(spec, out, dataset.labels)))
    if spec.kind == "linear-regression":
        return 0.0, loss
    pred = (scores > 0) if spec.kind == "logistic" else np.argmax(scores, axis=1)
    return float(np.mean(pred == dataset.labels.astype(np.intp))), loss
