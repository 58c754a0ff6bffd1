"""Correctness checks made apart from the program.

Nothing here imports `fedlamb`. The checks recompute what a run reports
from the run's final parameters and its configuration, or test properties
the method must have:

- a plain-numpy MLP forward/backward recomputes the final round's
  train_loss, grad_norm_sq and test_accuracy;
- closed-form per-round uplink/downlink float counts and grad_evals;
- v-hat coordinatewise non-decreasing across rounds and never below eps;
- final test accuracy above a floor far above chance;
- identical deterministic CSV columns across runs of one workload.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

ADAPTIVE = ("fed-ams", "fed-lamb", "mime", "mime-lamb")
MOMENT_UPLINK = ("fed-ams", "fed-lamb")  # model plus local second moment
MIME = ("mime", "mime-lamb")             # model plus full-shard gradient
# Final test accuracy every working optimiser clears on the benchmark's
# well-separated 10-class blobs; chance is 0.1.
ACCURACY_FLOOR = 0.6


def param_count(sizes) -> int:
    return sum(fi * fo + fo for fi, fo in zip(sizes, sizes[1:]))


def mlp_params(flat_blocks, sizes):
    """Weight matrices (fan_in, fan_out) and bias vectors from the run's
    blocks, stored W1, b1, W2, b2, ... with row-major weights."""
    if len(flat_blocks) != 2 * (len(sizes) - 1):
        raise ValueError(f"{len(flat_blocks)} blocks for {len(sizes) - 1} layers")
    Ws, bs = [], []
    for i, (fi, fo) in enumerate(zip(sizes, sizes[1:])):
        Ws.append(np.asarray(flat_blocks[2 * i]).reshape(fi, fo))
        bs.append(np.asarray(flat_blocks[2 * i + 1]).reshape(fo))
    return Ws, bs


def mlp_loss_grad_acc(Ws, bs, X, y, X_test, y_test):
    """Mean softmax cross-entropy and its squared gradient norm on (X, y),
    and accuracy on (X_test, y_test), for a ReLU MLP."""
    acts = [X]
    h = X
    for i, (W, b) in enumerate(zip(Ws, bs)):
        z = h @ W + b
        if i < len(Ws) - 1:
            h = np.where(z > 0.0, z, 0.0)
            acts.append(h)
    shifted = z - z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=1))
    n = X.shape[0]
    rows = np.arange(n)
    loss = float(np.mean(logsum - shifted[rows, y]))

    delta = np.exp(shifted - logsum[:, None])
    delta[rows, y] -= 1.0
    delta /= n
    grad_sq = 0.0
    for i in range(len(Ws) - 1, -1, -1):
        gW = acts[i].T @ delta
        gb = delta.sum(axis=0)
        grad_sq += float(np.sum(gW * gW)) + float(np.sum(gb * gb))
        if i > 0:
            delta = (delta @ Ws[i].T) * (acts[i] > 0.0)

    h = X_test
    for i, (W, b) in enumerate(zip(Ws, bs)):
        h = h @ W + b
        if i < len(Ws) - 1:
            h = np.where(h > 0.0, h, 0.0)
    acc = float(np.mean(np.argmax(h, axis=1) == y_test))
    return loss, grad_sq, acc


def check_final_round(row, Ws, bs, train, test, rel_tol=1e-9):
    """Compare the last CSV row against the plain-numpy recomputation."""
    loss, grad_sq, acc = mlp_loss_grad_acc(Ws, bs, *train, *test)
    fails = []
    for key, want in (("train_loss", loss), ("grad_norm_sq", grad_sq)):
        got = float(row[key])
        if not abs(got - want) <= rel_tol * max(abs(want), 1e-300):
            fails.append(f"final {key} {got!r} != recomputed {want!r}")
    if float(row["test_accuracy"]) != acc:
        fails.append(f"final test_accuracy {row['test_accuracy']} != recomputed {acc!r}")
    return fails


def expected_comm(protocol, p, participants, lazy_period, r):
    """(uplink, downlink) floats in round r: every participant uploads its
    model, plus its second moment (fed-ams, fed-lamb) or its full-shard
    gradient (mime, mime-lamb); every participant downloads the model, plus
    v-hat on sync rounds of adaptive protocols."""
    up = p * participants
    if protocol in MOMENT_UPLINK or protocol in MIME:
        up += p * participants
    down = p * participants
    if protocol in ADAPTIVE and r % lazy_period == 0:
        down += p * participants
    return up, down


def participants(n_clients, participation):
    return max(1, int(round(participation * n_clients)))


def expected_grad_evals(protocol, shard_size, local_epochs, n_participants):
    """Per-sample gradients in one round: every local epoch touches each
    shard sample once; mime variants add one full-shard pass at the global
    model. Assumes equal shard sizes."""
    per_client = local_epochs * shard_size + (shard_size if protocol in MIME else 0)
    return per_client * n_participants


def check_ledger(rows, protocol, p, n_participants, lazy_period, shard_size, local_epochs):
    fails = []
    want_evals = expected_grad_evals(protocol, shard_size, local_epochs, n_participants)
    for row in rows:
        r = int(row["round"])
        up, down = expected_comm(protocol, p, n_participants, lazy_period, r)
        if int(row["uplink_floats"]) != up or int(row["downlink_floats"]) != down:
            fails.append(f"round {r}: ledger {row['uplink_floats']}/{row['downlink_floats']} "
                         f"!= closed form {up}/{down}")
        if int(row["grad_evals"]) != want_evals:
            fails.append(f"round {r}: grad_evals {row['grad_evals']} != closed form {want_evals}")
    return fails[:5]


class VhatMonitor:
    """Feeds on the server's v-hat after every round; v-hat must never
    decrease in any coordinate and never fall below eps."""

    def __init__(self, eps):
        self.eps = eps
        self.prev = None
        self.fails = []

    def observe(self, r, vhat_blocks):
        cur = np.concatenate([np.asarray(b) for b in vhat_blocks])
        if not np.all(cur >= self.eps):
            self.fails.append(f"round {r}: v-hat min {cur.min()!r} < eps {self.eps!r}")
        if self.prev is not None and not np.all(cur >= self.prev):
            drop = float(np.max(self.prev - cur))
            self.fails.append(f"round {r}: v-hat decreased by up to {drop!r}")
        self.prev = cur


def check_accuracy_floor(rows, floor=ACCURACY_FLOOR):
    acc = float(rows[-1]["test_accuracy"])
    return [] if acc >= floor else [f"final test_accuracy {acc} below floor {floor}"]


def deterministic_columns(csv_text):
    """CSV text without its wall_time column (the only non-reproducible one)."""
    lines = csv_text.splitlines()
    col = lines[0].split(",").index("wall_time")
    return [",".join(f for j, f in enumerate(line.split(",")) if j != col) for line in lines]


def check_identical(label, texts):
    """All CSV texts agree on every deterministic column."""
    if not texts:
        return [f"{label}: no metric CSVs to compare"]
    first = deterministic_columns(texts[0])
    for k, text in enumerate(texts[1:], start=1):
        other = deterministic_columns(text)
        if other != first:
            bad = next((i for i, (a, b) in enumerate(zip(first, other)) if a != b),
                       min(len(first), len(other)))
            return [f"{label}: run {k} differs from run 0 at CSV line {bad + 1}"]
    return []
