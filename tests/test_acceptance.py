"""End-to-end acceptance gate: nine numbered verification criteria.

Each test checks one criterion at its stated tolerance and runtime budget
and prints a single pass line. The convergence benchmark (criteria 8 and 9)
uses learning rates tuned over the built-in per-protocol grids by mean best
test accuracy across the three benchmark seeds, with a uniform epsilon of
1e-4 and a x0.1 learning-rate decay at round 10 for every protocol.
"""

import math
import statistics
import time

import numpy as np

from fedlamb import blocks, federation
from fedlamb.blocks import BlockVector, lin_comb, norm_sq
from fedlamb.config import ExperimentConfig
from fedlamb.data import ClientShard, Dataset, gen_blobs, minibatch_stream, partition_iid
from fedlamb.federation import (
    PROTOCOLS,
    RunConfig,
    aggregate_params,
    init_run,
    run_round,
    sample_clients,
)
from fedlamb.models import ModelSpec, backward, forward_loss, param_template
from fedlamb.optim import Hyper, IDENTITY, amsgrad_step, denominator, lamb_step, moment_update, sgd_step
from fedlamb.runner import run_experiment, run_single, rounds_to_target

import oracles

SMALL_SPEC = ModelSpec("mlp", input_dim=4, hidden=(6,), classes=3)

# Benchmark task for criteria 8 and 9: 10 well-separated Gaussian classes in
# 20 dimensions, 5000 train / 1000 test samples, 20 clients holding 2 labels
# each, half participating per round, MLP with one hidden layer of 200 units.
BENCH = dict(
    model="mlp", input_dim=20, hidden=(200,), classes=10,
    data="blobs", train_per_class=500, test_per_class=100,
    separation=6.0, noise=1.5,
    n_clients=20, participation=0.5, rounds=40, local_epochs=1, batch_size=64,
    iid=False, classes_per_client=2,
    eps=1e-4, milestones=(10,), lr_factor=0.1,
)
BENCH_LRS = {"fed-lamb": 0.1, "fed-ams": 0.01, "mime": 0.005, "mime-lamb": 0.1}
BENCH_SEEDS = (0, 1, 2)


def bench_config(protocol, seed, **kw):
    return ExperimentConfig(
        protocol=protocol, alpha=BENCH_LRS[protocol], seed=seed, **{**BENCH, **kw}
    )


def small_run_config(protocol, n=3, seed=0, **kw):
    train = gen_blobs(3, 4, per_class=4 * n, separation=4.0, noise=1.0, seed=seed)
    test = gen_blobs(3, 4, per_class=4, separation=4.0, noise=1.0, seed=seed + 1)
    shards = partition_iid(train, n, seed=seed)
    defaults = dict(
        protocol=protocol, spec=SMALL_SPEC, train=train, test=test, shards=shards,
        hyper=Hyper(alpha=0.05), batch_size=8, seed=seed,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def random_bv(rng, sizes=(4, 3), nonneg=False):
    pairs = []
    for i, size in enumerate(sizes):
        vals = rng.standard_normal(size)
        if nonneg:
            vals = np.abs(vals)
        pairs.append((f"blk{i}", vals))
    return BlockVector.of(pairs)


def test_criterion_1_optimizer_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)

    # the in-place steps the local rules run, on flat buffers
    layout = random_bv(rng).layout
    m, v, tmp = np.zeros(layout.dim), np.zeros(layout.dim), np.empty(layout.dim)

    def lists(a):
        return [[float(x) for x in a[s]] for s in layout.slices]

    om, ov = lists(m), lists(v)
    for _ in range(1000):
        g = random_bv(rng)
        moment_update(m, v, g.data, 0.85, 0.95, tmp=tmp)
        om, ov = oracles.o_moment_update(om, ov, oracles.to_lists(g), 0.85, 0.95)
        oracles.assert_close(lists(m), om, rel=1e-12, label="m")
        oracles.assert_close(lists(v), ov, rel=1e-12, label="v")

    for _ in range(1000):
        p, m = random_bv(rng), random_bv(rng)
        vhat = random_bv(rng, nonneg=True)
        theta = p.data.copy()
        amsgrad_step(theta, m.data, denominator(vhat.data, 1e-8, out=np.empty(layout.dim)), 0.07, tmp=tmp)
        want = oracles.o_amsgrad_step(
            oracles.to_lists(p), oracles.to_lists(m), oracles.to_lists(vhat), 0.07, 1e-8
        )
        oracles.assert_close(lists(theta), want, rel=1e-12, label="amsgrad")

    for _ in range(1000):
        p, psi = random_bv(rng), random_bv(rng)
        lam = float(rng.uniform(0, 0.2))
        theta = p.data.copy()
        lamb_step(theta, psi.data.copy(), 0.05, lam, IDENTITY, layout=layout, tmp=tmp)
        want = oracles.o_lamb_step(
            oracles.to_lists(p), oracles.to_lists(psi), 0.05, lam, lambda a: a
        )
        oracles.assert_close(lists(theta), want, rel=1e-12, label="lamb")

    p = random_bv(rng)
    theta, buf = p.data.copy(), np.zeros(layout.dim)
    op, obuf = oracles.to_lists(p), lists(buf)
    for _ in range(1000):
        g = random_bv(rng)
        sgd_step(theta, g.data, 0.05, buf, 0.9, tmp=tmp)
        op, obuf = oracles.o_sgd_step(op, oracles.to_lists(g), 0.05, obuf, 0.9)
        oracles.assert_close(lists(theta), op, rel=1e-12, label="sgd")

    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"\ncriterion 1 PASS: optimizer steps match scalar oracles, "
          f"1000 steps each, rel tol 1e-12 ({elapsed:.1f}s)")


def test_criterion_2_gradient_finite_differences():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    specs = [
        ModelSpec("logistic", input_dim=20),
        ModelSpec("mlp", input_dim=20, hidden=(50,), classes=10),
    ]
    for spec in specs:
        for _ in range(10):
            params = BlockVector.of([
                (name, 0.5 * rng.standard_normal(size))
                for name, size, _ in param_template(spec)
            ])
            X = rng.standard_normal((16, spec.input_dim))
            y = rng.integers(0, spec.classes, 16)
            batch = Dataset(X, y, spec.classes)
            g = backward(spec, params, batch)
            loss_fn = lambda q: forward_loss(spec, q, batch)
            for _ in range(50):
                bi = int(rng.integers(0, len(params.blocks)))
                j = int(rng.integers(0, params.blocks[bi].size))
                fd = oracles.central_difference(loss_fn, params, bi, j, h=1e-5)
                an = float(g.blocks[bi][j])
                assert abs(fd - an) <= 1e-5 * max(1.0, abs(an)), (spec.kind, bi, j)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"\ncriterion 2 PASS: backward matches central differences, "
          f"2 models x 10 draws x 50 coords, rel tol 1e-5 ({elapsed:.1f}s)")


def test_criterion_3_layer_displacement_law(lamb_displacements):
    t0 = time.monotonic()
    cfg = small_run_config("fed-lamb", n=4, milestones=(25,), lr_factor=0.1)
    server, clients = init_run(cfg)
    for _ in range(50):
        run_round(server, clients, cfg)
    checked = 0
    for actual, expected, fallback in lamb_displacements:
        if not fallback:
            assert abs(actual - expected) <= 1e-9
            checked += 1
    assert checked > 0
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"\ncriterion 3 PASS: layer displacement equals alpha*phi(|theta|) "
          f"on {checked} non-fallback block steps, tol 1e-9 ({elapsed:.1f}s)")


def test_criterion_4_reduction_identity():
    t0 = time.monotonic()
    train = gen_blobs(3, 4, per_class=8, separation=4.0, noise=1.0, seed=44)
    test = gen_blobs(3, 4, per_class=4, separation=4.0, noise=1.0, seed=45)
    shard = ClientShard(0, np.arange(train.n))
    for protocol in ("fed-lamb", "fed-ams"):
        cfg = RunConfig(
            protocol=protocol, spec=SMALL_SPEC, train=train, test=test,
            shards=[shard], hyper=Hyper(alpha=0.01), batch_size=10_000,
            local_epochs=1, seed=44,
        )
        batch_seq = []
        for r in range(1, 101):
            batch_seq.extend(minibatch_stream(train, shard, cfg.batch_size, r - 1, cfg.seed))
        server, clients = init_run(cfg)
        h = cfg.hyper
        if protocol == "fed-lamb":
            want = oracles.reference_lamb_single(
                cfg.spec, server.params, batch_seq, h.alpha, h.beta1, h.beta2,
                h.lam, h.eps, lambda a: a,
            )
        else:
            want = oracles.reference_amsgrad_single(
                cfg.spec, server.params, batch_seq, h.alpha, h.beta1, h.beta2, h.eps
            )
        for step in range(len(batch_seq)):
            run_round(server, clients, cfg)
            for got, ref in zip(server.params.blocks, want[step]):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"\ncriterion 4 PASS: single-client runs reproduce single-machine "
          f"references over 100 steps, tol 1e-12 ({elapsed:.1f}s)")


def test_criterion_5_vhat_monotonicity():
    t0 = time.monotonic()
    for protocol in ("fed-ams", "fed-lamb", "mime", "mime-lamb"):
        cfg = small_run_config(protocol, n=3, seed=55)
        server, clients = init_run(cfg)
        prev = server.vhat
        for _ in range(100):
            run_round(server, clients, cfg)
            for a, b in zip(server.vhat.blocks, prev.blocks):
                assert np.all(a >= b), protocol
                assert np.all(a >= cfg.hyper.eps), protocol
            prev = server.vhat
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"\ncriterion 5 PASS: capped moment non-decreasing and >= eps over "
          f"100 rounds for all four adaptive protocols ({elapsed:.1f}s)")


def test_criterion_6_lazy_sync_and_ledger(monkeypatch):
    t0 = time.monotonic()

    # gated Z=1 vs the ungated reference path, whose gate is always open:
    # bit-identical trajectories
    trajectories = []
    for gated in (True, False):
        if not gated:
            monkeypatch.setattr(federation, "lazy_sync_gate", lambda r, Z: True)
        cfg = small_run_config("fed-lamb", n=3, lazy_period=1)
        server, clients = init_run(cfg)
        rows = []
        for _ in range(100):
            m, _ = run_round(server, clients, cfg)
            rows.append((m.train_loss, m.test_accuracy, m.grad_norm_sq,
                         m.uplink_floats, m.downlink_floats))
        trajectories.append((rows, server.params))
    assert trajectories[0][0] == trajectories[1][0]
    assert all(
        np.array_equal(a, b)
        for a, b in zip(trajectories[0][1].blocks, trajectories[1][1].blocks)
    )
    monkeypatch.undo()

    # ledger entries match closed-form counts; Z=5 sends the capped moment
    # downstream exactly one fifth as often as Z=1
    moment_down = {}
    for Z in (1, 5):
        cfg = small_run_config("fed-lamb", n=3, lazy_period=Z)
        server, clients = init_run(cfg)
        p = server.params.dim
        total = 0
        for r in range(1, 101):
            _, comm = run_round(server, clients, cfg)
            participants = len(sample_clients(cfg.n, cfg.participation, r, cfg.seed))
            assert comm.uplink_total == 2 * p * participants
            expected_down = p * participants + (
                p * participants if r % Z == 0 else 0
            )
            assert comm.downlink_total == expected_down
            total += comm.downlink_moment
        moment_down[Z] = total
    assert moment_down[5] * 5 == moment_down[1]

    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"\ncriterion 6 PASS: Z=1 bit-identical to ungated path; ledger "
          f"closed-form exact; Z=5 moment downlink is 1/5 of Z=1 ({elapsed:.1f}s)")


def test_criterion_7_zero_heterogeneity_consensus(uploaded_params):
    t0 = time.monotonic()
    train = gen_blobs(3, 4, per_class=10, separation=4.0, noise=1.0, seed=77)
    test = gen_blobs(3, 4, per_class=5, separation=4.0, noise=1.0, seed=78)
    shards = [ClientShard(i, np.arange(train.n)) for i in range(3)]
    for protocol in PROTOCOLS:
        kw = dict(eta_global=0.05) if protocol == "adp-fed" else {}
        cfg = RunConfig(
            protocol=protocol, spec=SMALL_SPEC, train=train, test=test,
            shards=shards, hyper=Hyper(alpha=0.05), batch_size=10_000, seed=77, **kw,
        )
        server, clients = init_run(cfg)
        for _ in range(3):
            uploaded_params.clear()
            run_round(server, clients, cfg)
            mean_params = aggregate_params(uploaded_params)
            for theta_i in uploaded_params:
                gap = math.sqrt(norm_sq(lin_comb(1.0, mean_params, -1.0, theta_i)))
                assert gap <= 1e-12, protocol
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"\ncriterion 7 PASS: consensus error <= 1e-12 with identical shards "
          f"for all six protocols ({elapsed:.1f}s)")


def test_criterion_8_convergence_direction():
    t0 = time.monotonic()
    lines = []
    for layerwise, dimwise in (("fed-lamb", "fed-ams"), ("mime-lamb", "mime")):
        rtts = []
        for seed in BENCH_SEEDS:
            target = run_single(bench_config(dimwise, seed), seed)[-1].test_accuracy
            history = run_single(bench_config(layerwise, seed), seed)
            rtts.append(rounds_to_target(history, target))
        med = statistics.median(rtts)
        lines.append(f"{layerwise} reaches {dimwise}'s round-40 accuracy in "
                     f"median {med} rounds (per-seed {rtts})")
        assert med <= 20, (layerwise, rtts)
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    print(f"\ncriterion 8 PASS: {'; '.join(lines)} ({elapsed:.1f}s)")


def test_criterion_9_determinism_under_execution_order(tmp_path, monkeypatch):
    t0 = time.monotonic()
    ascending = federation.sample_clients

    def rows_without_wall_time(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    for protocol in ("fed-lamb", "fed-ams", "mime", "mime-lamb"):
        outputs = []
        for order in ("ascending", "reversed"):
            step = 1 if order == "ascending" else -1
            # the sampled clients' local rounds run in this order
            monkeypatch.setattr(
                federation, "sample_clients", lambda *args, step=step: ascending(*args)[::step]
            )
            out = tmp_path / f"{protocol}_{order}.csv"
            run_experiment(bench_config(protocol, 0), out=out)
            outputs.append(rows_without_wall_time(out))
        assert outputs[0] == outputs[1], protocol
    elapsed = time.monotonic() - t0
    assert elapsed < 1200
    print(f"\ncriterion 9 PASS: benchmark runs with the clients' local rounds in "
          f"ascending and in reversed id order emit byte-identical metrics "
          f"excluding wall time ({elapsed:.1f}s)")
