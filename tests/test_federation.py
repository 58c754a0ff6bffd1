import copy
import dataclasses
import inspect
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fedlamb import blocks, federation, models
from fedlamb.blocks import BlockVector, lin_comb, norm_sq
from fedlamb.data import ClientShard, Dataset, gen_blobs, partition_iid
from fedlamb.federation import (
    PROTOCOLS,
    TABLE,
    ProtocolError,
    RoundError,
    RunConfig,
    ServerState,
    UploadFold,
    aggregate_vhat_fedlamb,
    comm_account,
    init_run,
    lazy_sync_gate,
    local_round,
    mime_vhat_update,
    run_round,
    sample_clients,
)
from fedlamb.models import ModelSpec, NumericOverflowError, backward, forward_loss
from fedlamb.optim import clipped

import oracles
from helpers import epoch_batches


def bv(*pairs):
    return BlockVector.of(list(pairs))


def random_bv(rng, sizes=(5, 3)):
    return BlockVector.of(
        [(f"blk{i}", rng.standard_normal(s)) for i, s in enumerate(sizes)]
    )


def dist(a, b):
    return math.sqrt(norm_sq(lin_comb(1.0, a, -1.0, b)))


def fold_params(xs):
    """The round fold's mean of the models `xs`, uploaded by clients 0, 1, ... in turn."""
    fold = UploadFold(range(len(xs)), ("params",), xs[0].layout if xs else None)
    for i, x in enumerate(xs):
        fold.add([i], {"params": x.data[None]})
    return fold.mean()["params"]


SPEC = ModelSpec("mlp", input_dim=4, hidden=(6,), classes=3)


def make_cfg(protocol, n=4, seed=0, rounds_data_seed=0, **kw):
    train = gen_blobs(3, 4, per_class=8 * n, separation=4.0, noise=1.0, seed=rounds_data_seed)
    test = gen_blobs(3, 4, per_class=8, separation=4.0, noise=1.0, seed=rounds_data_seed + 1)
    shards = partition_iid(train, n, seed=seed)
    defaults = dict(
        protocol=protocol,
        spec=SPEC,
        train=train,
        test=test,
        shards=shards,
        alpha=0.05,
        local_epochs=1,
        batch_size=16,
        seed=seed,
    )
    if protocol == "adp-fed":
        defaults.update(eta_global=0.05)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestSampleClients:
    def test_full_participation(self):
        assert sample_clients(4, 1.0, r=1, seed=0).tolist() == [0, 1, 2, 3]

    def test_half_of_fifty(self):
        ids = sample_clients(50, 0.5, r=3, seed=7)
        assert len(ids) == 25
        assert len(set(ids.tolist())) == 25
        assert all(0 <= i < 50 for i in ids)

    def test_replay_and_round_keying(self):
        a = sample_clients(50, 0.5, r=3, seed=7)
        b = sample_clients(50, 0.5, r=3, seed=7)
        np.testing.assert_array_equal(a, b)
        c = sample_clients(50, 0.5, r=4, seed=7)
        assert not np.array_equal(a, c)

    def test_at_least_one(self):
        assert len(sample_clients(10, 0.01, r=1, seed=0)) == 1


class TestAggregateParams:
    def test_two_point_mean(self):
        out = fold_params([bv(("a", [1.0, 2.0])), bv(("a", [3.0, 4.0]))])
        assert out.blocks[0].tolist() == [2.0, 3.0]

    def test_single_identity(self):
        x = bv(("a", [1.5, -2.5]))
        out = fold_params([x])
        assert out.blocks[0].tolist() == [1.5, -2.5]

    def test_seven_clients_scalar_oracle(self):
        rng = np.random.default_rng(0)
        xs = [random_bv(rng) for _ in range(7)]
        got = fold_params(xs)
        lists = [oracles.to_lists(x) for x in xs]
        for bi, block in enumerate(oracles.to_lists(got)):
            for j, val in enumerate(block):
                want = sum(l[bi][j] for l in lists) / 7
                assert abs(val - want) <= 1e-12 * max(1.0, abs(want))

    def test_empty_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            fold_params([])

    def test_missing_upload_is_protocol_error(self):
        # client 1 was sampled but never uploaded: client 2's upload waits and
        # the fold refuses to average an incomplete round
        fold = UploadFold([0, 1, 2], ("params",), bv(("a", [0.0])).layout)
        for i in (0, 2):
            fold.add([i], {"params": bv(("a", [float(i)])).data[None]})
        with pytest.raises(ProtocolError, match="sampled client 1"):
            fold.mean()


class TestAggregateVhat:
    def test_direct(self):
        out = aggregate_vhat_fedlamb(
            bv(("a", [1.0, 1.0])), blocks.mean([bv(("a", [0.0, 4.0])), bv(("a", [2.0, 0.0]))])
        )
        assert out.blocks[0].tolist() == [1.0, 2.0]

    def test_all_zero_received(self):
        prev = bv(("a", [0.3, 0.7]))
        out = aggregate_vhat_fedlamb(prev, blocks.mean([blocks.zeros_like(prev)] * 3))
        assert out.blocks[0].tolist() == [0.3, 0.7]

    def test_nondecreasing_over_random_rounds(self):
        rng = np.random.default_rng(1)
        vhat = blocks.full_like(random_bv(rng), 1e-8)
        for _ in range(50):
            received = [blocks.square(random_bv(rng)) for _ in range(4)]
            new = aggregate_vhat_fedlamb(vhat, blocks.mean(received))
            for a, b in zip(new.blocks, vhat.blocks):
                assert np.all(a >= b)
            vhat = new


class TestMimeVhatUpdate:
    def test_single_client_direct(self):
        v = np.array([0.0])
        vhat_prev = bv(("a", [1e-8]))
        vhat = mime_vhat_update(v, vhat_prev, blocks.mean([bv(("a", [0.2]))]), 0.999)
        assert v[0] == pytest.approx(4e-5, rel=1e-12)
        assert vhat.blocks[0][0] == pytest.approx(4e-5, rel=1e-12)

    def test_zero_gradients_decay_only(self):
        v = np.array([0.4, 0.8])
        vhat_prev = bv(("a", [1.0, 1.0]))
        vhat = mime_vhat_update(
            v, vhat_prev, blocks.mean([blocks.zeros_like(vhat_prev)] * 2), 0.9
        )
        np.testing.assert_allclose(v, [0.36, 0.72], rtol=1e-15)
        assert vhat.blocks[0].tolist() == [1.0, 1.0]

    def test_five_round_scalar_oracle(self):
        rng = np.random.default_rng(2)
        vhat = blocks.full_like(random_bv(rng), 1e-8)
        v = np.zeros(vhat.dim)
        ov, ovhat = oracles.to_lists(BlockVector(vhat.layout, v.copy())), oracles.to_lists(vhat)
        for _ in range(5):
            grads = [random_bv(rng) for _ in range(3)]
            vhat = mime_vhat_update(v, vhat, blocks.mean(grads), 0.99)
            ov, ovhat = oracles.o_mime_vhat(ov, ovhat, [oracles.to_lists(g) for g in grads], 0.99)
        oracles.assert_close(oracles.to_lists(BlockVector(vhat.layout, v.copy())), ov, label="mime v")
        oracles.assert_close(oracles.to_lists(vhat), ovhat, label="mime vhat")


class TestAdpFedServer:
    def _server(self, params, eps=1e-8):
        return ServerState(
            params=params,
            m=np.zeros(params.dim),
            v=np.full(params.dim, eps),
        )

    def test_degenerate_sign_step(self):
        # beta1 = beta2 = 0 collapses the server step to a sign update
        theta = bv(("a", [1.0, -2.0, 0.5]))
        server = self._server(theta)
        delta = bv(("a", [0.3, -0.1, 0.7]))
        server.adam({"params": blocks.mean([delta])}, SimpleNamespace(eta_global=0.25, beta1=0.0, beta2=0.0))
        want = theta.blocks[0] + 0.25 * np.sign(delta.blocks[0])
        np.testing.assert_allclose(server.params.blocks[0], want, rtol=1e-12)

    def test_zero_deltas_decay(self):
        theta = bv(("a", [1.0]))
        server = self._server(theta)
        server.m = np.array([0.4])
        server.v = np.array([0.04])
        server.adam({"params": blocks.mean([blocks.zeros_like(theta)])},
                    SimpleNamespace(eta_global=1.0, beta1=0.9, beta2=0.99))
        # m -> 0.36, v -> 0.0396, theta += m/sqrt(v)
        assert server.m[0] == pytest.approx(0.36, rel=1e-14)
        assert server.v[0] == pytest.approx(0.0396, rel=1e-14)
        want = 1.0 + 0.36 / math.sqrt(0.0396)
        assert server.params.blocks[0][0] == pytest.approx(want, rel=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_zero_over_zero_names_the_server_step(self):
        # feature 3 is 0 in every training row, so its weight's mean delta is
        # exactly 0; at beta2 = 0 its v is 0 too and the step is 0/0
        rng = np.random.default_rng(5)
        features = rng.standard_normal((16, 4))
        features[:, 3] = 0.0
        train = Dataset(features, (features[:, 0] > 0).astype(int), 2)
        shards = [ClientShard(0, np.arange(8)), ClientShard(1, np.arange(8, 16))]

        def run(beta2):
            cfg = RunConfig(protocol="adp-fed", spec=ModelSpec("logistic", input_dim=4), train=train, test=train,
                            shards=shards, alpha=0.1, eta_global=0.01, beta2=beta2, batch_size=4, seed=0)
            server, clients = init_run(cfg)
            return [run_round(server, clients, cfg)[0] for _ in range(2)]

        assert all(math.isfinite(m.train_loss) for m in run(0.5))
        with pytest.raises(NumericOverflowError) as info:
            run(0.0)
        assert str(info.value) == "round 1: server adam step: non-finite parameters at block 'w'"

    def test_two_round_transcription_oracle(self):
        # full protocol run vs an explicit flat-array rewrite of the server
        # Adam on averaged deltas
        cfg = make_cfg("adp-fed", n=3, batch_size=8, local_epochs=2, seed=4)
        server, clients = init_run(cfg)
        theta = [np.array(b) for b in server.params.blocks]
        m = [np.zeros_like(b) for b in theta]
        v = [np.full_like(b, cfg.eps) for b in theta]
        for r in (1, 2):
            deltas = []
            for shard in cfg.shards:
                local = [np.array(b) for b in theta]
                for e in range(cfg.local_epochs):
                    epoch = (r - 1) * cfg.local_epochs + e
                    for batch in epoch_batches(cfg.train, shard, cfg.batch_size, epoch, cfg.seed):
                        cur = BlockVector.of(zip(server.params.names, (np.array(b) for b in local)))
                        g = backward(cfg.spec, cur, batch)
                        local = [p - cfg.alpha * gb for p, gb in zip(local, g.blocks)]
                deltas.append([p - t for p, t in zip(local, theta)])
            dbar = [np.mean([d[i] for d in deltas], axis=0) for i in range(len(theta))]
            b1, b2 = cfg.beta1, cfg.beta2
            m = [b1 * mm + (1 - b1) * db for mm, db in zip(m, dbar)]
            v = [b2 * vv + (1 - b2) * db * db for vv, db in zip(v, dbar)]
            theta = [t + cfg.eta_global * mm / np.sqrt(vv) for t, mm, vv in zip(theta, m, v)]
            run_round(server, clients, cfg)
            for got, want in zip(server.params.blocks, theta):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestLocalRound:
    def test_fed_sgd_zero_gradient_fixed_point(self):
        spec = ModelSpec("linear-regression", input_dim=3)
        train = Dataset(np.ones((8, 3)), np.zeros(8), 2)
        shard = ClientShard(0, np.arange(8))
        cfg = RunConfig(
            protocol="fed-sgd", spec=spec, train=train, test=train,
            shards=[shard], alpha=0.5, batch_size=8, seed=0,
        )
        server, clients = init_run(cfg)
        theta0 = blocks.zeros_like(server.params)
        [row] = local_round([clients[0]], theta0, cfg, r=1, alpha_r=0.5, denoms={})["params"]
        assert all(np.array_equal(a, b) for a, b in zip(BlockVector(theta0.layout, row).blocks, theta0.blocks))

    @pytest.mark.parametrize("proto,rows", [("fed-lamb", 1), ("mime-lamb", 1), ("mime", 1), ("fed-ams", 3)])
    def test_only_fed_ams_copies_a_shared_denominator(self, proto, rows):
        # three clients holding one v-hat divide by its denominator as one
        # read-only (1, p) row; fed-ams raises its own copies to its v in place
        cfg = make_cfg(proto, n=3)
        server, clients = init_run(cfg)
        rule = TABLE[proto]
        s = federation._LocalRound(cfg, 0.01, server.params, clients, rule.local, "v" in rule.uplink, {})
        assert s.denom.shape == (rows, server.params.dim)
        assert s.denom.flags.writeable == (rows > 1)

    def test_fed_lamb_displacement_law(self, lamb_displacements):
        cfg = make_cfg("fed-lamb", n=2, batch_size=10_000)
        server, clients = init_run(cfg)
        run_round(server, clients, cfg)
        assert lamb_displacements
        for actual, bound, fallback in lamb_displacements:
            if not fallback:
                assert abs(actual - bound) <= 1e-9

    @pytest.mark.parametrize("size", (1, 3))
    @pytest.mark.parametrize("proto", ("mime", "mime-lamb"))
    def test_mime_reports_full_shard_gradient(self, proto, size, monkeypatch):
        # shards of 24 rows in batches of 8: each upload is the client's row of
        # the group's stacked pass over its shards at the global model, bit for
        # bit full_gradient's over the client's own shard, which is not called
        cfg = make_cfg(proto, n=3, batch_size=8, local_epochs=2)
        server, clients = init_run(cfg)
        full, calls = federation.full_gradient, []
        monkeypatch.setattr(federation, "full_gradient", lambda *args: calls.append(args) or full(*args))
        uploads = local_round(clients[:size], server.params, cfg, 1, 0.01, {})
        assert not calls
        for row, client in zip(uploads["full_grad"], clients):
            shard = cfg.shards[client.client_id]
            _, want = full(cfg.spec, server.params, cfg.train.take(shard.indices))
            assert np.array_equal(row, want.data)
        m, _ = run_round(server, clients, cfg)
        assert m.grad_evals == sum(cfg.local_epochs * len(shard) + len(shard) for shard in cfg.shards)

    @pytest.mark.parametrize("size", (1, 3))
    @pytest.mark.parametrize("proto", ("mime", "mime-lamb"))
    def test_one_batch_mime_uploads_its_first_step_gradient(self, proto, size, monkeypatch):
        # shards of 24 rows in batches of 24: each upload is the client's row of
        # the first step's gradient, bit for bit full_gradient's over the shard,
        # and no separate shard pass runs; the ledger still charges it
        cfg = make_cfg(proto, n=3, batch_size=24, local_epochs=2)
        server, clients = init_run(cfg)
        full, calls = federation.full_gradient, []
        monkeypatch.setattr(federation, "full_gradient", lambda *args: calls.append(args) or full(*args))
        uploads = local_round(clients[:size], server.params, cfg, 1, 0.01, {})
        assert not calls
        for row, client in zip(uploads["full_grad"], clients):
            shard = cfg.shards[client.client_id]
            _, want = full(cfg.spec, server.params, cfg.train.take(shard.indices))
            assert np.array_equal(row, want.data)
        m, _ = run_round(server, clients, cfg)
        assert m.grad_evals == sum(cfg.local_epochs * len(shard) + len(shard) for shard in cfg.shards)


class TestLazySync:
    def test_period_one_always_open(self):
        assert all(lazy_sync_gate(r, 1) for r in range(1, 20))

    def test_period_three(self):
        opened = [r for r in range(1, 10) if lazy_sync_gate(r, 3)]
        assert opened == [3, 6, 9]

    def test_gated_z1_matches_ungated_path(self, monkeypatch):
        trajs = []
        for gated in (True, False):
            if not gated:  # the ungated reference: a gate that is always open
                monkeypatch.setattr(federation, "lazy_sync_gate", lambda r, Z: True)
            cfg = make_cfg("fed-lamb", n=3, lazy_period=1)
            server, clients = init_run(cfg)
            rows = []
            for _ in range(5):
                m, _ = run_round(server, clients, cfg)
                rows.append((m.train_loss, m.test_accuracy, m.grad_norm_sq))
            trajs.append((rows, server.params))
        assert trajs[0][0] == trajs[1][0]
        assert all(
            np.array_equal(a, b)
            for a, b in zip(trajs[0][1].blocks, trajs[1][1].blocks)
        )

    def test_stale_vhat_reused_between_syncs(self):
        cfg = make_cfg("fed-lamb", n=3, lazy_period=3)
        server, clients = init_run(cfg)
        run_round(server, clients, cfg)  # r=1, gate closed
        run_round(server, clients, cfg)  # r=2, gate closed
        eps = cfg.eps
        for c in clients:
            assert all(np.all(b == eps) for b in c.vhat.blocks)
        run_round(server, clients, cfg)  # r=3, gate open
        assert any(np.any(b > eps) for b in server.vhat.blocks)


class TestCommAccount:
    def test_fed_lamb_two_tensor_counts(self):
        e = comm_account("fed-lamb", p=1000, participants=10, r=1, Z=1)
        assert e.uplink_total == 20000
        assert e.downlink_total == 20000

    def test_fed_sgd_one_tensor_counts(self):
        e = comm_account("fed-sgd", p=1000, participants=10, r=1, Z=1)
        assert e.uplink_total == 10000
        assert e.downlink_total == 10000

    def test_mime_uplink_is_model_plus_gradient(self):
        e = comm_account("mime", p=500, participants=4, r=2, Z=1)
        assert e.uplink_model == 2000
        assert e.uplink_gradient == 2000
        assert e.uplink_moment == 0

    def test_lazy_period_divides_moment_downlink(self):
        total_z1 = sum(
            comm_account("fed-lamb", 1000, 10, r, 1).downlink_moment
            for r in range(1, 101)
        )
        total_z5 = sum(
            comm_account("fed-lamb", 1000, 10, r, 5).downlink_moment
            for r in range(1, 101)
        )
        assert total_z5 * 5 == total_z1

    def test_adp_fed_single_tensor_each_way(self):
        e = comm_account("adp-fed", p=100, participants=3, r=7, Z=4)
        assert e.uplink_total == 300
        assert e.downlink_total == 300


class TestRunRound:
    def test_zero_heterogeneity_consensus(self, uploaded_params):
        # identical shards, full batches, full participation: every client
        # computes the same trajectory, so consensus error is exactly zero
        train = gen_blobs(3, 4, per_class=10, separation=4.0, noise=1.0, seed=0)
        test = gen_blobs(3, 4, per_class=5, separation=4.0, noise=1.0, seed=1)
        shards = [ClientShard(i, np.arange(train.n)) for i in range(3)]
        for proto in PROTOCOLS:
            kw = dict(eta_global=0.05) if proto == "adp-fed" else {}
            cfg = RunConfig(
                protocol=proto, spec=SPEC, train=train, test=test, shards=shards,
                alpha=0.05, batch_size=10_000, seed=0, **kw,
            )
            server, clients = init_run(cfg)
            for _ in range(3):
                uploaded_params.clear()
                run_round(server, clients, cfg)
                mean_params = blocks.mean(uploaded_params)
                for theta_i in uploaded_params:
                    assert dist(mean_params, theta_i) <= 1e-12, proto

    def test_single_round_consensus_bound(self, uploaded_params):
        phi = clipped(0.5, 1.0)
        alpha = 0.05
        cfg = make_cfg("fed-lamb", n=4, batch_size=10_000, phi=phi,
                       alpha=alpha)
        server, clients = init_run(cfg)
        # start from a point with no zero-norm blocks so every block obeys
        # the trust-ratio displacement law (zero-norm blocks fall back to an
        # unnormalized step that the bound does not cover)
        rng = np.random.default_rng(21)
        server.params = BlockVector.of(zip(
            server.params.names,
            (rng.standard_normal(b.shape) for b in server.params.blocks),
        ))
        run_round(server, clients, cfg)
        assert len(uploaded_params) == cfg.n
        h = len(server.params.blocks)
        bound = 2 * alpha * 1.0 * math.sqrt(h)
        for theta_i in uploaded_params:
            assert dist(server.params, theta_i) <= bound + 1e-12

    def test_client_order_invariance(self, monkeypatch):
        # the sampled clients' local rounds run in ascending, then in reversed
        # id order; the reduction order, and so every number, stays the same
        ascending = federation.sample_clients
        finals = []
        for order in (1, -1):
            monkeypatch.setattr(
                federation, "sample_clients", lambda *args, order=order: ascending(*args)[::order]
            )
            cfg = make_cfg("fed-lamb", n=6, participation=0.5)
            server, clients = init_run(cfg)
            rows = []
            for _ in range(4):
                m, _ = run_round(server, clients, cfg)
                rows.append((m.train_loss, m.test_accuracy, m.grad_norm_sq,
                             m.uplink_floats, m.downlink_floats, m.grad_evals))
            finals.append((rows, server.params))
        assert finals[0][0] == finals[1][0]
        assert all(
            np.array_equal(a, b)
            for a, b in zip(finals[0][1].blocks, finals[1][1].blocks)
        )

    def test_vhat_monotone_and_floored(self):
        for proto in ("fed-lamb", "fed-ams", "mime", "mime-lamb"):
            cfg = make_cfg(proto, n=3, batch_size=8)
            server, clients = init_run(cfg)
            prev = server.vhat
            for _ in range(6):
                run_round(server, clients, cfg)
                for a, b in zip(server.vhat.blocks, prev.blocks):
                    assert np.all(a >= b)
                    assert np.all(a >= cfg.eps)
                prev = server.vhat

    def test_unsampled_client_state_untouched(self):
        cfg = make_cfg("fed-lamb", n=4, participation=0.5, seed=3)
        server, clients = init_run(cfg)
        before = {
            c.client_id: (copy.deepcopy(c.m), copy.deepcopy(c.vhat)) for c in clients
        }
        r = server.round_index + 1
        sampled = set(sample_clients(cfg.n, cfg.participation, r, cfg.seed).tolist())
        run_round(server, clients, cfg)
        for c in clients:
            if c.client_id in sampled:
                continue
            m0, vhat0 = before[c.client_id]
            assert np.array_equal(c.m, m0)
            assert all(np.array_equal(a, b) for a, b in zip(c.vhat.blocks, vhat0.blocks))

    def test_errors_tagged_with_round(self, monkeypatch):
        def fail(*args):
            raise ValueError("bad milestones")

        monkeypatch.setattr(federation, "milestone_lr", fail)
        cfg = make_cfg("fed-lamb", n=2)
        server, clients = init_run(cfg)
        with pytest.raises(ValueError, match="round 1"):
            run_round(server, clients, cfg)

    def test_error_without_single_message_constructor_tagged(self, monkeypatch):
        # UnicodeDecodeError's constructor takes five arguments
        original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        def fail(*args, **kwargs):
            raise original

        monkeypatch.setattr(federation, "local_round", fail)
        cfg = make_cfg("fed-lamb", n=2)
        server, clients = init_run(cfg)
        with pytest.raises(UnicodeDecodeError, match="round 1: 'utf-8' codec") as info:
            run_round(server, clients, cfg)
        assert isinstance(info.value, RoundError)
        assert info.value.__cause__ is original

    def test_metric_pass_errors_tagged_with_round(self, monkeypatch):
        original = ValueError("boom")

        def fail(*args, **kwargs):
            raise original

        monkeypatch.setattr(federation, "evaluate", fail)
        cfg = make_cfg("fed-lamb", n=2)
        server, clients = init_run(cfg)
        with pytest.raises(ValueError) as info:
            run_round(server, clients, cfg)
        assert isinstance(info.value, RoundError)
        assert str(info.value) == "round 1: boom"
        assert info.value.__cause__ is original

    def test_metric_pass_one_forward_per_dataset(self, monkeypatch):
        for proto in PROTOCOLS:
            cfg = make_cfg(proto, n=3, batch_size=8)
            server, clients = init_run(cfg)
            seen = {"train": 0, "test": 0}
            forward = models._stack_forward

            def counting(spec, params, X):
                if X is cfg.train.features:
                    seen["train"] += 1
                elif X is cfg.test.features:
                    seen["test"] += 1
                return forward(spec, params, X)

            monkeypatch.setattr(models, "_stack_forward", counting)
            run_round(server, clients, cfg)
            monkeypatch.undo()
            assert seen == {"train": 1, "test": 1}, proto

    def test_metrics_match_separate_passes_at_final_params(self):
        cfg = make_cfg("fed-lamb", n=3, batch_size=8)
        server, clients = init_run(cfg)
        for _ in range(3):
            m, _ = run_round(server, clients, cfg)
        train = Dataset(cfg.train.features, cfg.train.labels, cfg.train.classes)
        assert m.train_loss == forward_loss(cfg.spec, server.params, train)
        assert m.grad_norm_sq == norm_sq(backward(cfg.spec, server.params, train))

    def test_init_run_allocates_only_read_buffers(self):
        for proto in PROTOCOLS:
            server, clients = init_run(make_cfg(proto, n=3))
            for c in clients:
                assert c.vhat is server.vhat
                assert (c.m is not None) == (proto != "adp-fed")
            bufs = [c.m for c in clients if c.m is not None]
            assert len({id(b) for b in bufs}) == (0 if proto == "adp-fed" else 1)
            assert all(np.all(b == 0.0) and not b.flags.writeable for b in bufs)

    def test_wrapped_public_names_change_nothing(self, monkeypatch):
        # a tracer replaces federation's public functions by wrappers; the
        # protocol rules must reach the helpers through the module namespace
        # at call time, never by holding or comparing their function objects
        def three_rounds():
            rows = {}
            for proto in TABLE:
                cfg = make_cfg(proto, n=3, batch_size=8)
                server, clients = init_run(cfg)
                rows[proto] = [
                    dataclasses.replace(run_round(server, clients, cfg)[0], wall_time=0.0)
                    for _ in range(3)
                ]
            return rows

        def pass_through(fn):
            return lambda *args, **kwargs: fn(*args, **kwargs)

        plain = three_rounds()
        public = [
            (name, obj) for name, obj in vars(federation).items()
            if not name.startswith("_") and inspect.isfunction(obj)
        ]
        assert {
            "aggregate_vhat_fedlamb", "mime_vhat_update", "lamb_step", "local_round", "lazy_sync_gate",
        } <= {name for name, _ in public}
        for name, fn in public:
            monkeypatch.setattr(federation, name, pass_through(fn))
        assert three_rounds() == plain

    def test_uploads_match_ledger_and_clients_keep_their_buffers(self, monkeypatch):
        def held(client):
            return {k for k in ("m", "vhat") if getattr(client, k) is not None}

        local = federation.local_round
        for proto in TABLE:
            seen = []
            monkeypatch.setattr(federation, "local_round", lambda *args: seen.append(local(*args)) or seen[-1])
            cfg = make_cfg(proto, n=3, batch_size=8)
            server, clients = init_run(cfg)
            given = [held(c) for c in clients]
            _, comm = run_round(server, clients, cfg)
            monkeypatch.undo()
            assert sum(len(res["params"]) for res in seen) == 3, proto
            for res in seen:
                assert ("v" in res) == (comm.uplink_moment > 0), proto
                assert ("full_grad" in res) == (comm.uplink_gradient > 0), proto
            # at lazy_period = 1 every round syncs, so no client keeps the v-hat it was sent
            assert [held(c) for c in clients] == [h - {"vhat"} for h in given], proto
            assert all((c.m is not None) == (proto != "adp-fed") for c in clients), proto

    @pytest.mark.parametrize("order", (1, -1))
    @pytest.mark.parametrize("proto", list(TABLE))
    def test_in_place_local_rounds_leave_shared_vectors_unchanged(self, proto, order, monkeypatch, uploaded_params):
        # local rounds write only into buffers they own: after each round the
        # previous global model, the broadcast v-hat, the shared init zeros,
        # the round's unsampled clients' buffers and earlier rounds' uploads
        # are bit-unchanged; and each client's first moment is its own buffer,
        # sharing memory with no other client's and with nothing the server
        # holds or the clients were sent
        ascending = federation.sample_clients
        monkeypatch.setattr(federation, "sample_clients", lambda *args: ascending(*args)[::order])
        cfg = make_cfg(proto, n=4, participation=0.5, batch_size=8, alpha=0.05, lam=0.01)
        server, clients = init_run(cfg)
        zeros = clients[0].m
        watched = [x.data for x in (server.params, server.vhat) if x is not None]
        if zeros is not None:
            watched.append(zeros)

        def check_ownership():
            owned = [c.m for c in clients if c.m is not None and c.m is not zeros]
            assert all(not np.shares_memory(a, b) for i, a in enumerate(owned) for b in owned[i + 1:])
            others = [x for x in (server.m, server.v, zeros) if x is not None]
            others += [x.data for x in (server.params, server.vhat, *uploaded_params) if x is not None]
            others += [c.vhat.data for c in clients if c.vhat is not None]
            assert all(not np.shares_memory(m, x) for m in owned for x in others)
            # the server rules write server.m and server.v in place
            assert all(not np.shares_memory(c.vhat.data, x) for c in clients if c.vhat is not None
                       for x in (server.m, server.v) if x is not None)
            if zeros is not None:
                assert not zeros.flags.writeable and not zeros.any()

        check_ownership()
        for r in range(1, 5):
            sampled = set(ascending(cfg.n, cfg.participation, r, cfg.seed).tolist())
            watched += [x.data for x in (server.params, server.vhat) if x is not None]
            watched += [x.data for x in uploaded_params]
            # a client's own m changes only in the rounds it takes part in
            unsampled = [b for c in clients if c.client_id not in sampled
                         for b in (c.m, None if c.vhat is None else c.vhat.data) if b is not None]
            bits = [(x, x.tobytes()) for x in watched + unsampled]
            run_round(server, clients, cfg)
            assert all(x.tobytes() == b for x, b in bits), (proto, r)
            check_ownership()

    @pytest.mark.parametrize("lone", (True, False), ids=("lone", "stacked"))
    @pytest.mark.parametrize("proto", ("fed-sgd", "fed-lamb"))
    def test_client_steps_its_own_first_moment_in_place(self, proto, lone, monkeypatch):
        # a client owns its m from its first round on: a lone client's group
        # steps that buffer in place as its (1, p) row, the same buffer from
        # round to round; a larger group steps a stacked copy and hands each
        # client its row in a fresh buffer
        if lone:
            monkeypatch.setattr(federation, "_STACK_FLOATS", 1)
        cfg = make_cfg(proto, n=3, batch_size=8)
        server, clients = init_run(cfg)
        zeros = clients[0].m
        run_round(server, clients, cfg)
        assert not zeros.flags.writeable and not zeros.any()
        before = [(c.m, c.m.copy()) for c in clients]
        assert all(m.flags.writeable for m, _ in before)
        s = federation._LocalRound(cfg, 0.01, server.params, clients[:1] if lone else clients,
                                   TABLE[proto].local, False, {})
        assert np.shares_memory(s.m, clients[0].m) == lone
        run_round(server, clients, cfg)
        for c, (m, bits) in zip(clients, before):
            assert np.shares_memory(c.m, m) == lone
            assert c.m.flags.writeable and c.m.shape == m.shape and not np.array_equal(c.m, bits)

    def test_grad_evals_double_for_mime(self):
        shared = dict(n=2, batch_size=8, seed=6)
        counts = {}
        for proto in ("fed-lamb", "mime-lamb"):
            cfg = make_cfg(proto, **shared)
            server, clients = init_run(cfg)
            m, _ = run_round(server, clients, cfg)
            counts[proto] = m.grad_evals
        assert counts["mime-lamb"] == 2 * counts["fed-lamb"]


class TestLockstepGroups:
    """Sampled clients whose shards have one size step as one group; how they
    are grouped, and in which order, moves no bit."""

    @staticmethod
    def _uneven_cfg(proto, batch_size):
        # 5000 IID rows over 7 clients: shards of 715 and 714 rows; with half of
        # them sampled and v-hat synced every other round, the rows of one group
        # carry different v-hats. A batch of 1000 makes every epoch one batch.
        train = gen_blobs(10, 20, per_class=500, separation=6.0, noise=1.5, seed=3)
        test = gen_blobs(10, 20, per_class=20, separation=6.0, noise=1.5, seed=4)
        kw = dict(eta_global=0.01) if proto == "adp-fed" else {}
        return RunConfig(
            protocol=proto, spec=ModelSpec("mlp", input_dim=20, hidden=(16,), classes=10),
            train=train, test=test, shards=partition_iid(train, 7, seed=3), alpha=0.01,
            batch_size=batch_size, participation=0.5, lazy_period=2, seed=3, **kw,
        )

    @classmethod
    def _run(cls, proto, batch_size, rounds=5):
        cfg = cls._uneven_cfg(proto, batch_size)
        server, clients = init_run(cfg)
        rows = [dataclasses.replace(run_round(server, clients, cfg)[0], wall_time=0.0) for _ in range(rounds)]
        return rows, [x.data.tobytes() for x in (server.params, server.vhat) if x is not None]

    @pytest.mark.parametrize("proto,batch_size", [*((p, 128) for p in PROTOCOLS), ("mime-lamb", 1000)],
                             ids=[*PROTOCOLS, "mime-lamb-one-batch"])
    def test_grouping_moves_no_bit(self, proto, batch_size, monkeypatch):
        local, groups = federation.local_round, []

        def spy(group, *args):
            groups.append(group)
            return local(group, *args)

        monkeypatch.setattr(federation, "local_round", spy)
        default = self._run(proto, batch_size)
        assert any(len({id(c.vhat) for c in g}) > 1 for g in groups) == TABLE[proto].vhat
        assert max(map(len, groups)) > 1
        monkeypatch.undo()

        monkeypatch.setattr(federation, "_STACK_FLOATS", 1)
        assert self._run(proto, batch_size) == default  # every group one client
        monkeypatch.undo()

        ascending = federation.sample_clients
        monkeypatch.setattr(federation, "sample_clients", lambda *args: ascending(*args)[::-1])
        assert self._run(proto, batch_size) == default

    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_uploads_fold_in_ascending_id_whatever_order_groups_finish(self, proto, monkeypatch):
        # shards of 30 and 36 rows interleave: the groups [0, 2, 3, 5] and
        # [1, 4, 6] return their uploads as 0, 2, 3, 5, 1, 4, 6, and in
        # reversed sampling order as 6, 4, 1, 5, 3, 2, 0; the fold holds the
        # early ones and adds 0, 1, ..., 6 either way. Two sums commute, so it
        # takes seven uploads for the order to show in the bits.
        train = gen_blobs(3, 4, per_class=76, separation=4.0, noise=1.0, seed=5)
        test = gen_blobs(3, 4, per_class=8, separation=4.0, noise=1.0, seed=6)
        ends = np.cumsum([30, 36, 30, 30, 36, 30, 36])
        shards = [ClientShard(i, np.arange(hi - n, hi)) for i, (n, hi) in enumerate(zip(np.diff(ends, prepend=0), ends))]
        kw = dict(eta_global=0.05) if proto == "adp-fed" else {}
        local, arrivals = federation.local_round, []

        def spy(group, *args):
            arrivals.append([c.client_id for c in group])
            return local(group, *args)

        monkeypatch.setattr(federation, "local_round", spy)
        ascending = federation.sample_clients
        runs = []
        for order in (1, -1):
            monkeypatch.setattr(federation, "sample_clients", lambda *args, order=order: ascending(*args)[::order])
            cfg = RunConfig(protocol=proto, spec=SPEC, train=train, test=test, shards=shards, alpha=0.05,
                            batch_size=16, lazy_period=2, seed=5, **kw)
            server, clients = init_run(cfg)
            arrivals.clear()
            rows = [dataclasses.replace(run_round(server, clients, cfg)[0], wall_time=0.0) for _ in range(4)]
            assert arrivals[:2] == ([[0, 2, 3, 5], [1, 4, 6]] if order == 1 else [[6, 4, 1], [5, 3, 2, 0]])
            runs.append((rows, [x.data.tobytes() for x in (server.params, server.vhat, server.m, server.v)
                                if x is not None]))
        assert runs[0] == runs[1]

    def test_groups_split_by_shard_size_and_cut_at_the_stack_bound(self):
        shards = [ClientShard(i, np.arange(n)) for i, n in enumerate((3, 4, 3, 3, 4, 3))]
        assert federation._lockstep_groups([0, 1, 2, 3, 4, 5], shards, 1 << 14) == [[0, 2, 3, 5], [1, 4]]
        assert federation._lockstep_groups([5, 4, 3, 2, 1, 0], shards, 1 << 15) == [[5, 3], [2, 0], [4, 1]]
        assert federation._lockstep_groups([0, 1], shards, 1 << 17) == [[0], [1]]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_names_client_and_step(self):
        # two clients with 8-row shards in one group; only client 1's rows overflow
        features = np.ones((16, 4))
        features[8:] = np.inf
        train = Dataset(features, np.arange(16) % 3, 3)
        shards = [ClientShard(0, np.arange(8)), ClientShard(1, np.arange(8, 16))]
        cfg = RunConfig(protocol="fed-lamb", spec=SPEC, train=train, test=train, shards=shards,
                        batch_size=4, seed=0)
        server, clients = init_run(cfg)
        with pytest.raises(NumericOverflowError) as info:
            run_round(server, clients, cfg)
        assert str(info.value) == "round 1: client 1, local step 1: non-finite activations at block 'W1'"
        local = info.value.__cause__
        assert type(local) is NumericOverflowError
        assert str(local.__cause__) == "non-finite activations at block 'W1'"
        assert local.__cause__.rows == (1,)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("proto,batch_size,where", [
        ("mime", 4, "full-shard gradient"),  # the separate pass of a shard that takes two batches
        ("mime-lamb", 8, "local step 1"),    # a one-batch shard's pass is its first step
    ])
    def test_mime_overflow_names_client_and_pass(self, proto, batch_size, where):
        features = np.ones((16, 4))
        features[8:] = np.inf
        train = Dataset(features, np.arange(16) % 3, 3)
        shards = [ClientShard(0, np.arange(8)), ClientShard(1, np.arange(8, 16))]
        cfg = RunConfig(protocol=proto, spec=SPEC, train=train, test=train, shards=shards,
                        batch_size=batch_size, seed=0)
        server, clients = init_run(cfg)
        with pytest.raises(NumericOverflowError) as info:
            run_round(server, clients, cfg)
        assert str(info.value) == f"round 1: client 1, {where}: non-finite activations at block 'W1'"
        local = info.value.__cause__
        assert type(local) is NumericOverflowError
        assert str(local.__cause__) == "non-finite activations at block 'W1'"


class TestRoundMemory:
    """A round holds one running sum per payload and the clients' carried
    state, not one vector per participant. Measured with tracemalloc, which
    sees numpy's buffers, on an MLP 20-3500-10 (p = 108,510, so every
    lockstep group is one client) with 16 clients of 20 rows."""

    @staticmethod
    def _cfg(proto, participants, **kw):
        train = gen_blobs(10, 20, per_class=32, separation=6.0, noise=1.5, seed=8)
        test = gen_blobs(10, 20, per_class=4, separation=6.0, noise=1.5, seed=9)
        if proto == "adp-fed":
            kw.update(eta_global=0.01)
        return RunConfig(protocol=proto, spec=ModelSpec("mlp", input_dim=20, hidden=(3500,), classes=10),
                         train=train, test=test, shards=partition_iid(train, 16, seed=8), alpha=0.01,
                         batch_size=20, participation=participants / 16, seed=8, **kw)

    @classmethod
    def _peak_vectors(cls, proto, participants):
        cfg = cls._cfg(proto, participants)
        server, clients = init_run(cfg)
        tracemalloc.start()
        try:
            run_round(server, clients, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (8 * server.params.dim)

    def test_peak_does_not_grow_with_participants(self):
        # adp-fed carries nothing on its clients
        few, many = self._peak_vectors("adp-fed", 4), self._peak_vectors("adp-fed", 16)
        assert abs(many - few) <= 1.0, (few, many)

    def test_mime_lamb_grows_only_by_its_carried_moment(self):
        # each first-time participant keeps its own first moment m afterwards;
        # half a vector allows for the Python objects of twelve more clients
        few, many = self._peak_vectors("mime-lamb", 4), self._peak_vectors("mime-lamb", 16)
        assert many - few <= 16 - 4 + 0.5, (few, many)

    @pytest.mark.parametrize("lazy_period", (1, 3))
    def test_clients_keep_vhat_only_under_lazy_sync(self, lazy_period):
        # what is live after six mime-lamb rounds of 8 of 16 clients, counted from
        # before init_run: each client that took part keeps its m; at Z = 1 every
        # round sends v-hat afresh, so nothing else outlives a round but the
        # server's vectors, while at Z = 3 clients keep the stale v-hats that
        # the rounds between syncs read
        cfg = self._cfg("mime-lamb", 8, lazy_period=lazy_period)
        tracemalloc.start()
        try:
            server, clients = init_run(cfg)
            for _ in range(6):
                run_round(server, clients, cfg)
            live = tracemalloc.get_traced_memory()[0] / (8 * server.params.dim)
        finally:
            tracemalloc.stop()
        took = set().union(*(sample_clients(cfg.n, cfg.participation, r, cfg.seed).tolist() for r in range(1, 7)))
        held = len(took) + sum(x is not None for x in (server.params, server.vhat, server.m, server.v))
        if lazy_period == 1:
            assert live <= held + 0.5, (live, held)  # half a vector for the Python objects
        else:
            assert live >= held + 1, (live, held)


class TestReductionIdentity:
    """With one client, one local epoch, full batches, and every-round sync,
    the federated loop must reproduce a single-machine run of the same
    per-step rule."""

    def _setup(self, protocol, rounds=100):
        train = gen_blobs(3, 4, per_class=8, separation=4.0, noise=1.0, seed=9)
        test = gen_blobs(3, 4, per_class=4, separation=4.0, noise=1.0, seed=10)
        shard = ClientShard(0, np.arange(train.n))
        cfg = RunConfig(
            protocol=protocol, spec=SPEC, train=train, test=test, shards=[shard],
            alpha=0.01, batch_size=10_000, local_epochs=1, seed=9,
        )
        batch_seq = []
        for r in range(1, rounds + 1):
            batch_seq.extend(epoch_batches(train, shard, cfg.batch_size, r - 1, cfg.seed))
        return cfg, batch_seq

    def test_fed_lamb_matches_single_machine(self):
        cfg, batch_seq = self._setup("fed-lamb")
        server, clients = init_run(cfg)
        params0 = server.params
        want = oracles.reference_lamb_single(
            cfg.spec, params0, batch_seq, cfg.alpha, cfg.beta1, cfg.beta2, cfg.lam, cfg.eps,
            lambda a: a,
        )
        for step in range(len(batch_seq)):
            run_round(server, clients, cfg)
            for got, ref in zip(server.params.blocks, want[step]):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_fed_ams_matches_single_machine(self):
        cfg, batch_seq = self._setup("fed-ams")
        server, clients = init_run(cfg)
        want = oracles.reference_amsgrad_single(
            cfg.spec, server.params, batch_seq, cfg.alpha, cfg.beta1, cfg.beta2, cfg.eps
        )
        for step in range(len(batch_seq)):
            run_round(server, clients, cfg)
            for got, ref in zip(server.params.blocks, want[step]):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
