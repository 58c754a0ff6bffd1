"""Each correctness check of the benchmark accepts a right input and rejects
a deliberately wrong one.

    python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

import checks
from child import split_params

SIZES = (4, 5, 3)


def tiny_problem(seed=0):
    rng = np.random.default_rng(seed)
    p = checks.param_count(SIZES)
    vec = rng.standard_normal(p) * 0.5
    Ws, bs = split_params(vec, SIZES)
    X = rng.standard_normal((12, SIZES[0]))
    y = rng.integers(0, SIZES[-1], 12)
    Xt = rng.standard_normal((7, SIZES[0]))
    yt = rng.integers(0, SIZES[-1], 7)
    return vec, Ws, bs, (X, y), (Xt, yt)


def loss_of(vec, X, y):
    Ws, bs = split_params(vec, SIZES)
    return checks.mlp_loss_grad_acc(Ws, bs, X, y, X, y)[0]


def test_recomputed_gradient_matches_finite_differences():
    vec, Ws, bs, (X, y), test = tiny_problem()
    _, grad_sq, _ = checks.mlp_loss_grad_acc(Ws, bs, X, y, *test)
    h = 1e-6
    fd = np.array([
        (loss_of(vec + h * e, X, y) - loss_of(vec - h * e, X, y)) / (2 * h)
        for e in np.eye(vec.size)
    ])
    assert grad_sq == pytest.approx(float(fd @ fd), rel=1e-6)


def test_final_round_check_accepts_recomputed_row():
    _, Ws, bs, train, test = tiny_problem()
    loss, grad_sq, acc = checks.mlp_loss_grad_acc(Ws, bs, *train, *test)
    row = {"train_loss": repr(loss), "grad_norm_sq": repr(grad_sq), "test_accuracy": repr(acc)}
    assert checks.check_final_round(row, Ws, bs, train, test) == []


@pytest.mark.parametrize("key,wrong", [
    ("train_loss", lambda v: v * (1 + 1e-6)),
    ("grad_norm_sq", lambda v: v * (1 - 1e-6)),
    ("test_accuracy", lambda v: v + 1 / 7),
])
def test_final_round_check_rejects_wrong_value(key, wrong):
    _, Ws, bs, train, test = tiny_problem()
    loss, grad_sq, acc = checks.mlp_loss_grad_acc(Ws, bs, *train, *test)
    row = {"train_loss": loss, "grad_norm_sq": grad_sq, "test_accuracy": acc}
    row[key] = repr(wrong(row[key]))
    fails = checks.check_final_round(row, Ws, bs, train, test)
    assert len(fails) == 1 and key in fails[0]


def test_final_round_check_rejects_wrong_parameters():
    vec, Ws, bs, train, test = tiny_problem()
    loss, grad_sq, acc = checks.mlp_loss_grad_acc(Ws, bs, *train, *test)
    row = {"train_loss": repr(loss), "grad_norm_sq": repr(grad_sq), "test_accuracy": repr(acc)}
    Ws2, bs2 = split_params(vec + 1e-3, SIZES)
    assert checks.check_final_round(row, Ws2, bs2, train, test)


def test_split_params_rejects_wrong_length():
    with pytest.raises(ValueError):
        split_params(np.zeros(checks.param_count(SIZES) + 1), SIZES)


def test_closed_form_comm_per_protocol():
    p, k = 10, 3
    assert checks.expected_comm("fed-sgd", p, k, 1, 1) == (30, 30)
    assert checks.expected_comm("fed-lamb", p, k, 1, 1) == (60, 60)
    assert checks.expected_comm("fed-ams", p, k, 2, 3) == (60, 30)
    assert checks.expected_comm("mime-lamb", p, k, 2, 4) == (60, 60)
    assert checks.participants(20, 0.5) == 10
    assert checks.participants(20, 0.01) == 1
    assert checks.param_count((20, 200, 10)) == 6210


def ledger_rows(protocol, p, k, rounds, evals):
    rows = []
    for r in range(1, rounds + 1):
        up, down = checks.expected_comm(protocol, p, k, 1, r)
        rows.append({"round": str(r), "uplink_floats": str(up),
                     "downlink_floats": str(down), "grad_evals": str(evals)})
    return rows


def test_ledger_check_accepts_closed_form():
    evals = checks.expected_grad_evals("mime-lamb", 50, 1, 20)
    assert evals == 20 * (50 + 50)
    rows = ledger_rows("mime-lamb", 111010, 20, 3, evals)
    assert checks.check_ledger(rows, "mime-lamb", 111010, 20, 1, 50, 1) == []


@pytest.mark.parametrize("key,delta", [
    ("uplink_floats", 111010), ("downlink_floats", -1), ("grad_evals", 50),
])
def test_ledger_check_rejects_wrong_count(key, delta):
    evals = checks.expected_grad_evals("fed-lamb", 250, 1, 10)
    rows = ledger_rows("fed-lamb", 6210, 10, 3, evals)
    rows[1][key] = str(int(rows[1][key]) + delta)
    fails = checks.check_ledger(rows, "fed-lamb", 6210, 10, 1, 250, 1)
    assert len(fails) == 1 and "round 2" in fails[0]


def test_vhat_monitor_accepts_non_decreasing():
    mon = checks.VhatMonitor(1e-4)
    mon.observe(1, [np.full(3, 1e-4), np.full(2, 1e-4)])
    mon.observe(2, [np.array([1e-4, 2e-4, 3e-4]), np.full(2, 1e-4)])
    mon.observe(3, [np.array([1e-4, 2e-4, 5e-4]), np.full(2, 1e-3)])
    assert mon.fails == []


def test_vhat_monitor_rejects_decrease_and_floor_breach():
    mon = checks.VhatMonitor(1e-4)
    mon.observe(1, [np.array([1e-4, 3e-4])])
    mon.observe(2, [np.array([1e-4, 2e-4])])
    assert len(mon.fails) == 1 and "decreased" in mon.fails[0]
    mon.observe(3, [np.array([5e-5, 2e-4])])
    assert any("< eps" in f for f in mon.fails)


def test_accuracy_floor():
    assert checks.check_accuracy_floor([{"test_accuracy": "0.97"}], 0.6) == []
    assert checks.check_accuracy_floor([{"test_accuracy": "0.1"}], 0.6)


CSV_A = ("round,train_loss,test_accuracy,grad_norm_sq,uplink_floats,downlink_floats,"
         "grad_evals,wall_time\n1,0.5,0.9,0.01,10,10,250,0.061\n")


def test_identical_ignores_wall_time_only():
    other = CSV_A.replace("0.061", "0.072")
    assert checks.check_identical("x", [CSV_A, other, CSV_A]) == []
    changed = CSV_A.replace("0.5,0.9", "0.5000000000000001,0.9")
    fails = checks.check_identical("x", [CSV_A, CSV_A, changed])
    assert len(fails) == 1 and "run 2" in fails[0]
    assert checks.check_identical("x", [CSV_A, CSV_A.splitlines()[0] + "\n"])
