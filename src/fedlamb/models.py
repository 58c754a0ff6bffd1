"""Small differentiable models with hand-written forward/backward passes.

Three families: scalar linear regression (MSE), binary logistic regression
and a softmax MLP (cross-entropy). Every parameter tensor is its own block,
so the induced block structure is the unit of layer-wise normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector

KINDS = ("linear-regression", "logistic", "mlp")
ACTIVATIONS = ("relu", "tanh")

_INIT_TAG = 0x11D1  # keys the parameter-init RNG stream


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden sizes must be positive")
        if self.kind == "mlp":
            if not self.hidden:
                raise ValueError("mlp needs at least one hidden layer")
            if self.classes < 2:
                raise ValueError("mlp needs at least two classes")
        if self.kind == "logistic" and self.classes != 2:
            raise ValueError("logistic model is binary (classes=2)")

    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.classes)


@dataclass(frozen=True)
class Batch:
    features: np.ndarray  # (b, d)
    labels: np.ndarray    # class indices, or real targets for regression

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels))
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a non-empty (b, d) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must be a vector matching the batch size")

    def __len__(self) -> int:
        return self.features.shape[0]


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
    if not np.all(np.isfinite(arr)):
        raise NumericOverflowError(f"non-finite activations at block {block!r}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_batch(spec: ModelSpec, params: BlockVector, batch: Batch):
    if batch.features.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature width {batch.features.shape[1]} != input_dim {spec.input_dim}"
        )
    names = tuple(n for n, _, _ in param_template(spec))
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


def _forward(spec: ModelSpec, params: BlockVector, batch: Batch):
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


def _mean_loss(spec: ModelSpec, out: np.ndarray, labels: np.ndarray) -> float:
    """Mean loss from `_forward`'s `out`: the one loss expression per kind."""
    if spec.kind == "linear-regression":
        return float(np.mean(out * out))
    if spec.kind == "logistic":
        y = labels.astype(np.float64)
        return float(np.mean(np.logaddexp(0.0, out) - y * out))
    return float(-np.mean(out[np.arange(len(labels)), labels.astype(np.intp)]))


def _gradient(spec: ModelSpec, params: BlockVector, batch: Batch, out, saved) -> BlockVector:
    """Gradient of the mean batch loss from `_forward`'s `out` and `saved`."""
    X = batch.features
    n = len(batch)
    if spec.kind == "linear-regression":
        return BlockVector(params.layout, np.append((2.0 / n) * (X.T @ out), 2.0 * np.mean(out)))
    if spec.kind == "logistic":
        err = _sigmoid(out) - batch.labels.astype(np.float64)
        return BlockVector(params.layout, np.append((X.T @ err) / n, np.mean(err)))

    acts, Ws = saved
    idx = batch.labels.astype(np.intp)
    delta = np.exp(out)
    delta[np.arange(n), idx] -= 1.0
    delta /= n
    flat = np.empty(params.dim)
    views = [flat[s] for s in params.layout.slices]
    for i in range(len(Ws) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=views[2 * i].reshape(Ws[i].shape))
        delta.sum(axis=0, out=views[2 * i + 1])
        if i > 0:
            delta = delta @ Ws[i].T
            if spec.activation == "relu":
                np.multiply(delta, acts[i] > 0, out=delta)
            else:
                delta *= 1.0 - acts[i] * acts[i]
    return BlockVector(params.layout, flat)


def forward_loss(spec: ModelSpec, params: BlockVector, batch: Batch) -> float:
    """Mean loss over the batch; cross-entropy via stable log-sum-exp."""
    return _mean_loss(spec, _forward(spec, params, batch)[0], batch.labels)


def backward(spec: ModelSpec, params: BlockVector, batch: Batch) -> BlockVector:
    """Gradient of the mean batch loss with respect to every block."""
    out, _, saved = _forward(spec, params, batch)
    return _gradient(spec, params, batch, out, saved)


def full_gradient(spec: ModelSpec, params: BlockVector, dataset) -> tuple[float, BlockVector]:
    """(mean loss, exact mean gradient) over a whole dataset, one pass each way."""
    if dataset.n < 1:
        raise ValueError("full_gradient over empty dataset")
    batch = Batch(dataset.features, dataset.labels)
    out, _, saved = _forward(spec, params, batch)
    return _mean_loss(spec, out, batch.labels), _gradient(spec, params, batch, out, saved)


def evaluate(spec: ModelSpec, params: BlockVector, dataset) -> tuple[float, float]:
    """(accuracy, mean loss) from one forward pass; argmax ties break toward
    the smallest class index.

    Linear regression has no class prediction; its accuracy reports 0.0.
    """
    if dataset.n < 1:
        raise ValueError("evaluate over empty dataset")
    batch = Batch(dataset.features, dataset.labels)
    out, scores, _ = _forward(spec, params, batch)
    loss = _mean_loss(spec, out, batch.labels)
    if spec.kind == "linear-regression":
        return 0.0, loss
    pred = (scores > 0) if spec.kind == "logistic" else np.argmax(scores, axis=1)
    return float(np.mean(pred == batch.labels.astype(np.intp))), loss
