import math
import tracemalloc

import numpy as np
import pytest

from fedlamb import models
from fedlamb.blocks import BlockVector, zeros_like
from fedlamb.data import Dataset, gen_blobs
from fedlamb.models import (
    ModelSpec,
    NumericOverflowError,
    Stack,
    backward,
    evaluate,
    forward_loss,
    full_gradient,
    init_params,
    param_template,
)
from fedlamb.optim import RangeError

import oracles
from helpers import reference_backward

MLP = ModelSpec("mlp", input_dim=6, hidden=(10,), classes=4)
LOGISTIC = ModelSpec("logistic", input_dim=4, classes=2)
LINREG = ModelSpec("linear-regression", input_dim=3)
MLP_TANH = ModelSpec("mlp", input_dim=6, hidden=(10, 5), classes=4, activation="tanh")


def random_batch(spec, rng, size=16):
    X = rng.standard_normal((size, spec.input_dim))
    if spec.kind == "linear-regression":
        y = rng.standard_normal(size)
    else:
        y = rng.integers(0, spec.classes, size)
    return Dataset(X, y, spec.classes)


def random_params(spec, rng, scale=0.5):
    return BlockVector.of(
        [(name, scale * rng.standard_normal(size)) for name, size, _ in param_template(spec)]
    )


@pytest.mark.parametrize("kwargs, key", [
    (dict(kind="cnn", input_dim=4), "model"),
    (dict(kind="logistic", input_dim=0), "input_dim"),
    (dict(kind="mlp", input_dim=4, classes=3), "hidden"),
    (dict(kind="mlp", input_dim=4, hidden=(5, 0), classes=3), "hidden"),
    (dict(kind="mlp", input_dim=4, hidden=(5,), classes=1), "classes"),
    (dict(kind="logistic", input_dim=4, classes=3), "classes"),
    (dict(kind="mlp", input_dim=4, hidden=(5,), classes=3, activation="gelu"), "activation"),
])
def test_spec_rules_name_the_config_key(kwargs, key):
    with pytest.raises(RangeError) as info:
        ModelSpec(**kwargs)
    assert info.value.key == key


@pytest.mark.parametrize("spec", [LINREG, LOGISTIC, MLP, MLP_TANH],
                         ids=["linreg", "logistic", "mlp-relu", "mlp-tanh"])
def test_layer_sizes_describe_the_built_model(spec):
    sizes = spec.layer_sizes()
    assert sum(fi * fo + fo for fi, fo in zip(sizes, sizes[1:])) == init_params(spec, 0).dim


class TestInitParams:
    def test_deterministic(self):
        a = init_params(MLP, 42)
        b = init_params(MLP, 42)
        assert all(np.array_equal(x, y) for x, y in zip(a.blocks, b.blocks))
        c = init_params(MLP, 43)
        assert any(not np.array_equal(x, y) for x, y in zip(a.blocks, c.blocks))

    def test_biases_zero(self):
        p = init_params(MLP, 0)
        for name, block in zip(p.names, p.blocks):
            if name.startswith("b"):
                assert np.all(block == 0.0)

    def test_fan_in_bound(self):
        spec = ModelSpec("mlp", input_dim=100, hidden=(5,), classes=3)
        p = init_params(spec, 1)
        w1 = p.blocks[p.names.index("W1")]
        assert np.all(np.abs(w1) <= 1.0 / math.sqrt(100))


class TestForwardLoss:
    def test_logistic_zero_params_is_ln2(self):
        p = zeros_like(init_params(LOGISTIC, 0))
        batch = Dataset(np.random.default_rng(0).standard_normal((8, 4)),
                        np.array([0, 1] * 4), 2)
        assert forward_loss(LOGISTIC, p, batch) == pytest.approx(math.log(2), rel=1e-12)

    def test_mlp_zero_output_weights_is_lnk(self):
        rng = np.random.default_rng(1)
        p = random_params(MLP, rng)
        blocks = list(p.blocks)
        blocks[p.names.index("W2")] = np.zeros_like(blocks[p.names.index("W2")])
        blocks[p.names.index("b2")] = np.zeros_like(blocks[p.names.index("b2")])
        p = BlockVector.of(zip(p.names, blocks))
        batch = random_batch(MLP, rng)
        assert forward_loss(MLP, p, batch) == pytest.approx(math.log(4), rel=1e-12)

    def test_matches_per_sample_oracle(self):
        rng = np.random.default_rng(2)
        for spec in (MLP, LOGISTIC, LINREG):
            p = random_params(spec, rng)
            batch = random_batch(spec, rng, size=9)
            want = np.mean([
                forward_loss(spec, p, Dataset(batch.features[i : i + 1], batch.labels[i : i + 1], spec.classes))
                for i in range(batch.n)
            ])
            got = forward_loss(spec, p, batch)
            assert got == pytest.approx(want, rel=1e-12)
            assert got >= 0.0

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("spec, block", [(LOGISTIC, "w"), (LINREG, "w"), (MLP, "W1")],
                             ids=["logistic", "linreg", "mlp"])
    def test_overflow_names_block(self, spec, block):
        # weights 1e300 and zero biases; the first layer's product overflows
        p = BlockVector.of([(name, np.full(size, 1e300 if fan_in else 0.0))
                            for name, size, fan_in in param_template(spec)])
        batch = Dataset(np.full((2, spec.input_dim), 1e300), np.array([0, 1]), 2)
        with pytest.raises(NumericOverflowError, match=f"'{block}'"):
            forward_loss(spec, p, batch)


class TestBackward:
    def test_logistic_hand_computed(self):
        spec = ModelSpec("logistic", input_dim=2)
        p = zeros_like(init_params(spec, 0))
        g = backward(spec, p, Dataset(np.array([[1.0, 0.0]]), np.array([1]), 2))
        assert g.blocks[0].tolist() == [-0.5, 0.0]
        assert g.blocks[1][0] == -0.5

    def test_mlp_zero_features_output_bias(self):
        rng = np.random.default_rng(3)
        p = random_params(MLP, rng)
        batch = Dataset(np.zeros((6, MLP.input_dim)), rng.integers(0, 4, 6), 4)
        g = backward(MLP, p, batch)
        # with zero inputs the output bias gradient is mean(softmax - onehot)
        logits = np.zeros((6, 4))
        Ws, bs = [], []
        it = iter(p.blocks)
        sizes = MLP.layer_sizes()
        for fi, fo in zip(sizes, sizes[1:]):
            Ws.append(next(it).reshape(fi, fo))
            bs.append(next(it))
        h = np.maximum(bs[0], 0.0)
        z = h @ Ws[1] + bs[1]
        probs = np.exp(z - z.max()) / np.exp(z - z.max()).sum()
        onehot = np.zeros((6, 4))
        onehot[np.arange(6), batch.labels.astype(int)] = 1.0
        want = (probs[None, :] - onehot).mean(axis=0)
        np.testing.assert_allclose(g.blocks[g.names.index("b2")], want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("spec", [
        LOGISTIC,
        LINREG,
        ModelSpec("mlp", input_dim=6, hidden=(10,), classes=4, activation="tanh"),
        MLP,
    ], ids=["logistic", "linreg", "mlp-tanh", "mlp-relu"])
    def test_finite_differences(self, spec):
        rng = np.random.default_rng(11)
        p = random_params(spec, rng)
        batch = random_batch(spec, rng, size=12)
        g = backward(spec, p, batch)
        loss_fn = lambda params: forward_loss(spec, params, batch)
        coords = []
        for _ in range(50):
            bi = int(rng.integers(0, len(p.blocks)))
            coords.append((bi, int(rng.integers(0, p.blocks[bi].size))))
        for bi, j in coords:
            fd = oracles.central_difference(loss_fn, p, bi, j)
            an = float(g.blocks[bi][j])
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an)), (spec.kind, bi, j)

    def test_batch_concat_weighting(self):
        rng = np.random.default_rng(12)
        b1 = random_batch(MLP, rng, size=5)
        b2 = random_batch(MLP, rng, size=11)
        p = random_params(MLP, rng)
        both = Dataset(np.vstack([b1.features, b2.features]),
                       np.concatenate([b1.labels, b2.labels]), 4)
        g_all = backward(MLP, p, both)
        g1 = backward(MLP, p, b1)
        g2 = backward(MLP, p, b2)
        for ba, bx, by in zip(g_all.blocks, g1.blocks, g2.blocks):
            want = (5 * bx + 11 * by) / 16
            np.testing.assert_allclose(ba, want, rtol=1e-12, atol=1e-14)


class TestFullGradient:
    def test_single_sample(self):
        rng = np.random.default_rng(13)
        p = random_params(MLP, rng)
        X = rng.standard_normal((1, MLP.input_dim))
        y = np.array([2])
        ds = Dataset(X, y, 4)
        _, g1 = full_gradient(MLP, p, ds)
        g2 = backward(MLP, p, Dataset(X, y, 4))
        assert all(np.array_equal(a, b) for a, b in zip(g1.blocks, g2.blocks))

    def test_duplication_invariant(self):
        rng = np.random.default_rng(14)
        p = random_params(LOGISTIC, rng)
        X = rng.standard_normal((6, 4))
        y = rng.integers(0, 2, 6)
        _, base = full_gradient(LOGISTIC, p, Dataset(X, y, 2))
        _, doubled = full_gradient(
            LOGISTIC, p, Dataset(np.vstack([X, X]), np.concatenate([y, y]), 2)
        )
        for a, b in zip(base.blocks, doubled.blocks):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_matches_per_sample_mean(self):
        rng = np.random.default_rng(15)
        p = random_params(MLP, rng)
        X = rng.standard_normal((64, MLP.input_dim))
        y = rng.integers(0, 4, 64)
        _, got = full_gradient(MLP, p, Dataset(X, y, 4))
        per = [backward(MLP, p, Dataset(X[i : i + 1], y[i : i + 1], 4)) for i in range(64)]
        for bi in range(len(got.blocks)):
            want = np.mean([g.blocks[bi] for g in per], axis=0)
            np.testing.assert_allclose(got.blocks[bi], want, rtol=1e-12, atol=1e-14)

    def test_empty_dataset(self):
        with pytest.raises(Exception):
            Dataset(np.zeros((0, 3)), np.zeros(0), 2)


class TestEvaluate:
    def test_forced_argmax(self):
        rng = np.random.default_rng(16)
        # true-class logit forced 10 above the other via the output bias
        spec = ModelSpec("mlp", input_dim=4, hidden=(2,), classes=2)
        p = zeros_like(init_params(spec, 0))
        blocks = list(p.blocks)
        blocks[p.names.index("b2")] = np.array([0.0, 10.0])
        p = BlockVector.of(zip(p.names, blocks))
        ds = Dataset(rng.standard_normal((10, 4)), np.ones(10, dtype=int), 2)
        acc, _ = evaluate(spec, p, ds)
        assert acc == 1.0

    def test_uniform_softmax_loss(self):
        p = zeros_like(init_params(MLP, 0))
        rng = np.random.default_rng(17)
        ds = Dataset(rng.standard_normal((30, MLP.input_dim)), rng.integers(0, 4, 30), 4)
        acc, loss = evaluate(MLP, p, ds)
        assert loss == pytest.approx(math.log(4), rel=1e-12)

    def test_matches_argmax_loop(self):
        rng = np.random.default_rng(18)
        p = random_params(MLP, rng)
        ds = Dataset(rng.standard_normal((100, MLP.input_dim)), rng.integers(0, 4, 100), 4)
        acc, _ = evaluate(MLP, p, ds)
        from fedlamb.models import _stack_forward
        logits, _, _ = _stack_forward(MLP, p, ds.features)
        correct = 0
        for i in range(100):
            best, best_v = 0, logits[i][0]
            for c in range(1, 4):
                if logits[i][c] > best_v:
                    best, best_v = c, logits[i][c]
            correct += best == ds.labels[i]
        assert acc == correct / 100


class TestChunkedPass:
    """full_gradient and backward reduce over consecutive 256-row chunks."""

    @pytest.mark.parametrize("spec", [LINREG, LOGISTIC, MLP, MLP_TANH],
                             ids=["linreg", "logistic", "mlp-relu", "mlp-tanh"])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    def test_matches_per_sample_mean(self, spec, n):
        rng = np.random.default_rng(21)
        p = random_params(spec, rng)
        batch = random_batch(spec, rng, size=n)
        loss, grad = full_gradient(spec, p, Dataset(batch.features, batch.labels, spec.classes))
        rows = [Dataset(batch.features[i : i + 1], batch.labels[i : i + 1], spec.classes) for i in range(n)]
        assert loss == pytest.approx(np.mean([forward_loss(spec, p, b) for b in rows]), rel=1e-12)
        want = np.mean([backward(spec, p, b).data for b in rows], axis=0)
        np.testing.assert_allclose(grad.data, want, rtol=1e-12, atol=1e-14)
        if n <= 256:  # one chunk: the unchunked pass's bits
            assert loss == forward_loss(spec, p, batch)
            assert np.array_equal(grad.data, backward(spec, p, batch).data)

    def test_chunks_run_in_order(self, monkeypatch):
        rng = np.random.default_rng(22)
        p = random_params(MLP, rng)
        batch = random_batch(MLP, rng, size=600)
        seen, forward = [], models._stack_forward

        def spy(spec, params, X):
            seen.append(X)
            return forward(spec, params, X)

        monkeypatch.setattr(models, "_stack_forward", spy)
        full_gradient(MLP, p, Dataset(batch.features, batch.labels, MLP.classes))
        assert [len(X) for X in seen] == [256, 256, 88]
        assert np.array_equal(np.vstack(seen), batch.features)


def reference_scores(spec, params, X):
    """Class scores from plain numpy: column c is class c's score, so
    np.argmax (first maximum wins) is the prediction rule."""
    if spec.kind == "logistic":
        w, b = params.blocks
        z = X @ w + b[0]
        return np.stack([np.zeros_like(z), z], axis=1)
    sizes = spec.layer_sizes()
    it = iter(params.blocks)
    h = X
    for i, (fi, fo) in enumerate(zip(sizes, sizes[1:]), start=1):
        z = h @ next(it).reshape(fi, fo) + next(it)
        if i < len(sizes) - 1:
            h = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
    return z


class TestFusedPasses:
    """full_gradient and evaluate report the same bits as the separate passes."""

    @pytest.mark.parametrize("spec", [LINREG, LOGISTIC, MLP, MLP_TANH])
    def test_full_gradient_matches_forward_loss_and_backward(self, spec):
        rng = np.random.default_rng(19)
        p = random_params(spec, rng)
        batch = random_batch(spec, rng, size=40)
        loss, grad = full_gradient(spec, p, Dataset(batch.features, batch.labels, spec.classes))
        assert loss == forward_loss(spec, p, batch)
        want = backward(spec, p, batch)
        assert grad.names == want.names
        assert all(np.array_equal(a, b) for a, b in zip(grad.blocks, want.blocks))

    @pytest.mark.parametrize("spec", [LINREG, LOGISTIC, MLP, MLP_TANH])
    @pytest.mark.parametrize("zero", [False, True], ids=["random", "ties"])
    def test_evaluate_matches_forward_loss_and_argmax(self, spec, zero):
        rng = np.random.default_rng(20)
        p = random_params(spec, rng)
        if zero:  # every score equal: ties break toward class 0
            p = zeros_like(p)
        batch = random_batch(spec, rng, size=50)
        acc, loss = evaluate(spec, p, Dataset(batch.features, batch.labels, spec.classes))
        assert loss == forward_loss(spec, p, batch)
        if spec.kind == "linear-regression":
            assert acc == 0.0
            return
        pred = np.argmax(reference_scores(spec, p, batch.features), axis=1)
        assert acc == float(np.mean(pred == batch.labels))
        if zero:
            assert acc == float(np.mean(batch.labels == 0))

    @pytest.mark.parametrize("spec", [LINREG, LOGISTIC, MLP, MLP_TANH])
    @pytest.mark.parametrize("zero", [False, True], ids=["random", "ties"])
    def test_evaluate_chunks_and_matches_one_pass(self, spec, zero, monkeypatch):
        rng = np.random.default_rng(23)
        p = random_params(spec, rng)
        if zero:  # every score equal: ties break toward class 0
            p = zeros_like(p)
        batch = random_batch(spec, rng, size=600)
        out = models._forward(spec, p, batch)[0]  # one unchunked pass over all 600 rows
        want = float(np.mean(models._loss_terms(spec, out, batch.labels)))
        seen, forward = [], models._stack_forward

        def spy(spec, params, X):
            seen.append(X)
            return forward(spec, params, X)

        monkeypatch.setattr(models, "_stack_forward", spy)
        acc, loss = evaluate(spec, p, batch)
        assert [len(X) for X in seen] == [256, 256, 88]
        assert np.array_equal(np.vstack(seen), batch.features)
        assert loss == want
        assert forward_loss(spec, p, batch) == want
        if spec.kind == "linear-regression":
            assert acc == 0.0
            return
        pred = np.argmax(reference_scores(spec, p, batch.features), axis=1)
        assert acc == float(np.mean(pred == batch.labels))


class TestBackwardReference:
    """backward's bits equal a plain-numpy transcription on fresh arrays, so
    writing each back-propagated delta over the activation it consumed moves no
    bit. Widths and batches are at most 256, where every product is one matmul."""

    SPECS = [ModelSpec("mlp", input_dim=5, hidden=hidden, classes=4, activation=act)
             for act in ("relu", "tanh") for hidden in ((7,), (256, 3), (40, 200, 9))]

    @pytest.mark.parametrize("spec", [LINREG, LOGISTIC, *SPECS],
                             ids=lambda s: "-".join([s.kind, *map(str, s.hidden), s.activation]))
    @pytest.mark.parametrize("b", [1, 97, 256])
    @pytest.mark.parametrize("K", [None, 3], ids=["lone", "stacked"])
    def test_matches_numpy_transcription(self, spec, b, K):
        rng = np.random.default_rng(24)
        lead, layout = () if K is None else (K,), init_params(spec, 0).layout
        flat = 0.5 * rng.standard_normal((*lead, layout.dim))
        X = rng.standard_normal((*lead, b, spec.input_dim))
        y = (rng.standard_normal((*lead, b)) if spec.kind == "linear-regression"
             else rng.integers(0, spec.classes, (*lead, b)))
        batch = Dataset(X, y, spec.classes)
        want = reference_backward(spec, flat, X, y)
        if K is None:
            got = backward(spec, BlockVector(layout, flat), batch).data
            assert np.array_equal(got, want)
        else:
            stack = Stack(spec, layout, flat.copy())
            assert np.array_equal(backward(spec, stack, batch), want)
            assert np.array_equal(backward(spec, stack, batch), want)  # a second pass on one Stack
        assert np.array_equal(batch.features, X)


class TestPassMemory:
    """No model pass holds more than one 256-row chunk's activations: a chunk's
    buffers are freed before the next chunk's forward pass allocates, and each
    back-propagated delta overwrites the activation it consumed. Measured with
    tracemalloc, which sees numpy's buffers, on 8,200 blob rows. Bounds are in
    chunk widths (256 rows x the widest layer x 8 B), p-vectors (8p B) and the
    n-long loss terms (8n B); every one fails for a pass that keeps two chunks'
    activations, or an activation and a fresh delta of its shape, alive at once."""

    RELU = ModelSpec("mlp", input_dim=20, hidden=(200,), classes=10)
    TANH = ModelSpec("mlp", input_dim=20, hidden=(300, 300), classes=10, activation="tanh")

    @pytest.fixture(scope="class")
    def data(self):
        return gen_blobs(10, 20, per_class=820, separation=6.0, noise=1.5, seed=8)

    @staticmethod
    def _peak(fn, *args) -> int:
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 20-200-10's chunk holds one activation; 20-300-300-10's holds two, and its fan-in
    # of 300 takes _matmul's 256-long pieces, each after the first a fresh product
    @pytest.mark.parametrize("spec, chunks", [(RELU, 2), (TANH, 4)], ids=["relu-200", "tanh-300-300"])
    def test_evaluate_holds_one_chunk(self, data, spec, chunks):
        # the activations and one product piece, plus the n-long terms and predictions
        chunk = 256 * max(spec.hidden) * 8
        assert self._peak(evaluate, spec, init_params(spec, 8), data) <= chunks * chunk

    @pytest.mark.parametrize("spec, chunks", [(RELU, 1.75), (TANH, 4.5)], ids=["relu-200", "tanh-300-300"])
    def test_full_gradient_holds_one_chunk(self, data, spec, chunks):
        # the activations, the relu mask (1/8 width) or the tanh keep factor, one product
        # piece, plus two p-vectors (the gradient and its per-chunk scratch) and the terms
        p, chunk = init_params(spec, 8), 256 * max(spec.hidden) * 8
        assert self._peak(full_gradient, spec, p, data) <= chunks * chunk + 2 * 8 * p.dim + 8 * data.n

    def test_stacked_backward_holds_one_activation(self, data):
        # K = 10 batches of b = 64 rows are one chunk of K * b rows, whose gradient
        # buffer the Stack already holds: one activation and its bool mask
        p = init_params(self.RELU, 8)
        stack = Stack(self.RELU, p.layout, np.tile(p.data, (10, 1)))
        batch = data.take(np.arange(640).reshape(10, 64))
        assert self._peak(backward, self.RELU, stack, batch) <= 1.5 * (10 * 64 * 200 * 8)
