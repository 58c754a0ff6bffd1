"""Small differentiable models with hand-written forward/backward passes.

Every model is one stack of dense layers whose kind picks only the output
head: scalar linear regression (MSE), binary logistic regression (one logit)
or a softmax MLP (cross-entropy). Every parameter tensor is its own block,
so the induced block structure is the unit of layer-wise normalization.

The passes take a leading client axis: one pass of a `Stack` (K models, one
per row) over K stacked batches makes, row by row, the same IEEE operations
as K separate passes. The metric pass runs them on one model and 2-D input.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector, Layout
from .data import Dataset
from .optim import check_ranges

KINDS = ("linear-regression", "logistic", "mlp")
ACTIVATIONS = ("relu", "tanh")

_INIT_TAG = 0x11D1  # keys the parameter-init RNG stream
# Terms per step of every sample-axis sum and matmul inner dimension: OpenBLAS
# splits longer sums across threads, so 512 already give thread-count-dependent bytes.
_CHUNK = 256


class NumericOverflowError(FloatingPointError):
    """Non-finite values appeared during a forward or backward pass. In a
    stacked pass, `rows` are the stack rows that were non-finite."""

    rows: tuple[int, ...] = ()


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
        return (self.input_dim, *self.hidden, self.classes if self.kind == "mlp" else 1)


def param_template(spec: ModelSpec) -> list[tuple[str, int, int]]:
    """(name, size, fan_in) per block; fan_in 0 marks a bias block. The linear
    kinds' one layer is `w`, `b`; the MLP's layers are `W1`, `b1`, ..."""
    sizes = spec.layer_sizes()
    out = []
    for i, (fi, fo) in enumerate(zip(sizes, sizes[1:]), start=1):
        w, b = (f"W{i}", f"b{i}") if spec.kind == "mlp" else ("w", "b")
        out += [(w, fi * fo, fi), (b, fo, 0)]
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
    finite = np.isfinite(arr)
    if not finite.all():
        exc = NumericOverflowError(f"non-finite activations at block {block!r}")
        if arr.ndim > 2:
            exc.rows = tuple(np.flatnonzero(~finite.reshape(len(arr), -1).all(axis=1)).tolist())
        raise exc


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


def _check_batch(spec: ModelSpec, params: BlockVector | Stack, batch: Dataset):
    if batch.dim != spec.input_dim:
        raise ValueError(f"feature width {batch.dim} != input_dim {spec.input_dim}")
    names = _block_names(spec)
    if params.names != names:
        raise ValueError(f"params {params.names} do not match spec blocks {names}")


def _layers(spec: ModelSpec, layout: Layout, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (W, b) views over `flat`, vectors in `layout` along its last
    axis; W is (..., fan_in, fan_out) and b is (..., 1, fan_out)."""
    sizes, s, lead = spec.layer_sizes(), layout.slices, flat.shape[:-1]
    return [(flat[..., ws].reshape(*lead, fi, fo), flat[..., None, bs])
            for ws, bs, fi, fo in zip(s[::2], s[1::2], sizes, sizes[1:])]


class Stack:
    """K models of one spec as the rows of a writable (K, p) buffer in `layout`,
    for passes over K stacked batches. Each layer's (W, b) views over the
    buffer, and over the gradient buffer `grad` that `backward` fills, are
    built once here instead of in every pass."""

    def __init__(self, spec: ModelSpec, layout: Layout, data: np.ndarray):
        self.layout, self.names, self.grad = layout, layout.names, np.empty_like(data)
        self.layers, self.grads = _layers(spec, layout, data), _layers(spec, layout, self.grad)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, its inner dimension summed over consecutive `_CHUNK`-long pieces
    in order; an inner dimension of at most `_CHUNK` is one product."""
    out = a[..., :_CHUNK] @ b[..., :_CHUNK, :]
    for lo in range(_CHUNK, a.shape[-1], _CHUNK):
        out += a[..., lo : lo + _CHUNK] @ b[..., lo : lo + _CHUNK, :]
    return out


def _stack_forward(spec: ModelSpec, params: BlockVector | Stack, X: np.ndarray):
    """Returns (output layer's z, input to each layer, (W, b) per layer); bias
    and activation are applied in place on each matmul's output."""
    layers = params.layers if isinstance(params, Stack) else _layers(spec, params.layout, params.data)
    acts = [X]
    h = X
    for i, ((W, b), name) in enumerate(zip(layers, params.names[::2]), start=1):
        z = _matmul(h, W)
        z += b
        _check_finite(z, name)
        if i < len(layers):
            h = np.maximum(z, 0.0, out=z) if spec.activation == "relu" else np.tanh(z, out=z)
            acts.append(h)
    return z, acts, layers


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _forward(spec: ModelSpec, params: BlockVector | Stack, batch: Dataset):
    """One forward pass: (out, scores, saved). The loss and its gradient start
    from the head's `out` (residual, logit or log-probabilities), a class
    prediction from `scores`; `saved` holds the layer inputs and weights."""
    _check_batch(spec, params, batch)
    z, acts, layers = _stack_forward(spec, params, batch.features)
    if spec.kind == "mlp":
        return _log_softmax(z), z, (acts, layers)
    z = z[..., 0]
    if spec.kind == "linear-regression":
        z -= batch.labels.astype(np.float64)
    return z, z, (acts, layers)


def _loss_terms(spec: ModelSpec, out: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample loss from `_forward`'s `out`: the one loss expression per kind."""
    if spec.kind == "linear-regression":
        return out * out
    if spec.kind == "logistic":
        return np.logaddexp(0.0, out) - labels.astype(np.float64) * out
    return -out[np.arange(len(labels)), labels.astype(np.intp)]


def _gradient(spec: ModelSpec, batch: Dataset, out, saved, n: int, grads):
    """Writes through `grads`, each layer's (W, b) views over a gradient buffer,
    the batch's share of the gradient of a mean loss over `n` samples: the
    head's output delta from `_forward`'s `out`, then the layers from last to
    first through `saved`."""
    acts, layers = saved
    if spec.kind == "mlp":
        delta = np.exp(out)
        rows = delta.reshape(-1, delta.shape[-1])
        rows[np.arange(len(rows)), batch.labels.reshape(-1).astype(np.intp)] -= 1.0
        delta /= n
    elif spec.kind == "logistic":
        delta = ((_sigmoid(out) - batch.labels.astype(np.float64)) / n)[..., None]
    else:
        delta = (2.0 / n * out)[..., None]
    for i in range(len(layers) - 1, -1, -1):
        gW, gb = grads[i]
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=gW)
        delta.sum(axis=-2, keepdims=True, out=gb)
        if i > 0:
            delta = _matmul(delta, layers[i][0].swapaxes(-1, -2))
            if spec.activation == "relu":
                np.multiply(delta, acts[i] > 0, out=delta)
            else:
                delta *= 1.0 - acts[i] * acts[i]


def _loss_and_gradient(spec: ModelSpec, params: BlockVector | Stack, batch: Dataset, with_loss: bool):
    """(mean loss or None, gradient of the mean loss) over consecutive `_CHUNK`-row
    chunks of `batch`, in order: each chunk divides by the whole batch's size,
    the first writes the gradient and later ones add to it, and the loss is one
    mean over every sample's term. A batch of at most `_CHUNK` rows is one chunk.
    A block vector's gradient is a new block vector; a stack's is its `grad`."""
    stack = params if isinstance(params, Stack) else Stack(spec, params.layout, params.data)
    n = batch.n
    tmp = np.empty_like(stack.grad) if n > _CHUNK else None
    tmp_grads = None if tmp is None else _layers(spec, stack.layout, tmp)
    terms = np.empty(n) if with_loss else None
    for lo in range(0, n, _CHUNK):
        chunk = batch if n <= _CHUNK else Dataset(
            batch.features[..., lo : lo + _CHUNK, :], batch.labels[..., lo : lo + _CHUNK], batch.classes)
        out, _, saved = _forward(spec, stack, chunk)
        if with_loss:
            terms[lo : lo + chunk.n] = _loss_terms(spec, out, chunk.labels)
        _gradient(spec, chunk, out, saved, n, tmp_grads if lo else stack.grads)
        if lo:
            stack.grad += tmp
    loss = float(np.mean(terms)) if with_loss else None
    return loss, stack.grad if stack is params else BlockVector(params.layout, stack.grad)


def forward_loss(spec: ModelSpec, params: BlockVector, batch: Dataset) -> float:
    """Mean loss over the batch; cross-entropy via stable log-sum-exp."""
    return float(np.mean(_loss_terms(spec, _forward(spec, params, batch)[0], batch.labels)))


def backward(spec: ModelSpec, params: BlockVector | Stack, batch: Dataset) -> BlockVector | np.ndarray:
    """Gradient of the mean batch loss with respect to every block; for a
    stack, each row's over its own batch of `batch` (K, b, d), in `params.grad`."""
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
