import numpy as np
import pytest

from fedlamb.blocks import BlockVector, zeros_like
from fedlamb.federation import RunSettings
from fedlamb.optim import (
    IDENTITY,
    RangeError,
    amsgrad_step,
    check_ranges,
    clipped,
    denominator,
    lamb_step,
    milestone_lr,
    moment_update,
    sgd_step,
)

import oracles


def bv(*pairs):
    return BlockVector.of(list(pairs))


def random_bv(rng, sizes=(5, 3)):
    return BlockVector.of(
        [(f"blk{i}", rng.standard_normal(s)) for i, s in enumerate(sizes)]
    )


# The steps work in place on flat buffers; these run them on copies of block
# vectors and return block vectors, leaving the inputs as they were.

def sgd(p, g, alpha, buf=None, mu=0.0):
    theta, buf = p.data.copy(), None if buf is None else buf.data.copy()
    sgd_step(theta, g.data, alpha, buf, mu, tmp=np.empty(p.dim))
    return BlockVector(p.layout, theta), None if buf is None else BlockVector(p.layout, buf)


def moments(m, v, g, beta1=0.9, beta2=0.999):
    m, v = m.data.copy(), v.data.copy()
    moment_update(m, v, g.data, beta1, beta2, tmp=np.empty(m.size))
    return BlockVector(g.layout, m), BlockVector(g.layout, v)


def amsgrad(p, m, vhat, alpha, eps):
    theta = p.data.copy()
    denom = denominator(vhat.data, eps, out=np.empty(p.dim))
    amsgrad_step(theta, m.data, denom, alpha, tmp=np.empty(p.dim))
    return BlockVector(p.layout, theta)


def lamb(p, psi, alpha, lam, phi):
    theta = p.data.copy()
    lamb_step(theta, psi.data.copy(), alpha, lam, phi, layout=p.layout, tmp=np.empty(p.dim))
    return BlockVector(p.layout, theta)


class TestSgdStep:
    def test_plain_step(self):
        out, _ = sgd(bv(("a", [1.0])), bv(("a", [0.5])), 0.1)
        assert out.blocks[0][0] == pytest.approx(0.95, rel=1e-15)

    def test_zero_gradient_fixed_point(self):
        p = bv(("a", [1.0, -2.0]))
        out, _ = sgd(p, zeros_like(p), 0.3)
        assert out.blocks[0].tolist() == [1.0, -2.0]

    def test_momentum_matches_scalar_recursion(self):
        rng = np.random.default_rng(0)
        p = random_bv(rng)
        buf = zeros_like(p)
        op, obuf = oracles.to_lists(p), oracles.to_lists(buf)
        for _ in range(10):
            g = random_bv(rng)
            p, buf = sgd(p, g, 0.05, buf, 0.9)
            op, obuf = oracles.o_sgd_step(op, oracles.to_lists(g), 0.05, obuf, 0.9)
        oracles.assert_close(oracles.to_lists(p), op, label="sgd momentum")


class TestMomentUpdate:
    def test_zero_init_step(self):
        p = bv(("a", [0.0]))
        m, v = moments(zeros_like(p), zeros_like(p), bv(("a", [1.0])))
        assert m.blocks[0][0] == pytest.approx(0.1, rel=1e-15)
        assert v.blocks[0][0] == pytest.approx(0.001, rel=1e-12)

    def test_pure_decay(self):
        m0 = bv(("a", [1.0, 2.0]))
        v0 = bv(("a", [3.0, 4.0]))
        m, v = moments(m0, v0, zeros_like(m0))
        np.testing.assert_allclose(m.blocks[0], 0.9 * m0.blocks[0], rtol=1e-15)
        np.testing.assert_allclose(v.blocks[0], 0.999 * v0.blocks[0], rtol=1e-15)

    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(1)
        p = random_bv(rng)
        m, v = zeros_like(p), zeros_like(p)
        om, ov = oracles.to_lists(m), oracles.to_lists(v)
        for _ in range(5):
            g = random_bv(rng)
            m, v = moments(m, v, g, 0.8, 0.95)
            om, ov = oracles.o_moment_update(om, ov, oracles.to_lists(g), 0.8, 0.95)
        oracles.assert_close(oracles.to_lists(m), om, label="m")
        oracles.assert_close(oracles.to_lists(v), ov, label="v")

    def test_v_stays_nonnegative(self):
        rng = np.random.default_rng(2)
        p = random_bv(rng)
        m, v = zeros_like(p), zeros_like(p)
        for _ in range(30):
            m, v = moments(m, v, random_bv(rng))
            assert all(np.all(b >= 0) for b in v.blocks)

    def test_untracked_v_updates_m_only(self):
        m, g = np.array([1.0, 2.0]), np.array([3.0, -1.0])
        moment_update(m, None, g, 0.5, 0.999, tmp=np.empty(2))
        assert m.tolist() == [2.0, 0.5]


class TestAmsgradStep:
    def test_direct(self):
        out = amsgrad(bv(("a", [1.0])), bv(("a", [0.2])), bv(("a", [0.04])), 0.1, 1e-8)
        assert out.blocks[0][0] == pytest.approx(0.9, rel=1e-14)

    def test_zero_moment_fixed_point(self):
        p = bv(("a", [1.0, 2.0]))
        out = amsgrad(p, zeros_like(p), bv(("a", [1.0, 1.0])), 0.1, 1e-8)
        assert out.blocks[0].tolist() == [1.0, 2.0]

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(3)
        p, m = random_bv(rng), random_bv(rng)
        vhat = BlockVector.of(zip(m.names, (np.abs(b) for b in random_bv(rng).blocks)))
        got = amsgrad(p, m, vhat, 0.07, 1e-8)
        want = oracles.o_amsgrad_step(
            oracles.to_lists(p), oracles.to_lists(m), oracles.to_lists(vhat), 0.07, 1e-8
        )
        oracles.assert_close(oracles.to_lists(got), want, label="amsgrad")


class TestLambStep:
    def test_direct_evaluation(self):
        out = lamb(bv(("a", [3.0, 4.0])), bv(("a", [0.0, 2.0])), 0.1, 0.0, IDENTITY)
        np.testing.assert_allclose(out.blocks[0], [3.0, 3.5], rtol=1e-15)

    def test_zero_ratio_unchanged(self):
        p = bv(("a", [3.0, 4.0]))
        out = lamb(p, zeros_like(p), 0.5, 0.0, IDENTITY)
        assert out.blocks[0].tolist() == [3.0, 4.0]

    def test_weight_decay_only_step(self):
        out = lamb(bv(("a", [1.0, 0.0])), bv(("a", [0.0, 0.0])), 0.5, 1.0, IDENTITY)
        np.testing.assert_allclose(out.blocks[0], [0.5, 0.0], rtol=1e-15)

    def test_zero_norm_block_trust_factor_one(self):
        # zero-initialized bias blocks must stay trainable under identity phi
        out = lamb(bv(("b", [0.0, 0.0])), bv(("b", [1.0, 2.0])), 0.1, 0.0, IDENTITY)
        np.testing.assert_allclose(out.blocks[0], [-0.1, -0.2], rtol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p, psi = random_bv(rng), random_bv(rng)
            lam = float(rng.uniform(0, 0.2))
            got = lamb(p, psi, 0.05, lam, IDENTITY)
            want = oracles.o_lamb_step(
                oracles.to_lists(p), oracles.to_lists(psi), 0.05, lam, lambda a: a
            )
            oracles.assert_close(oracles.to_lists(got), want, label="lamb")

    def test_layer_displacement_law(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p, psi = random_bv(rng), random_bv(rng)
            lam = float(rng.choice([0.0, 0.01, 0.1]))
            alpha = float(rng.uniform(0.001, 0.5))
            out = lamb(p, psi, alpha, lam, IDENTITY)
            for theta, new in zip(p.blocks, out.blocks):
                disp = float(np.linalg.norm(new - theta))
                want = alpha * float(np.linalg.norm(theta))
                assert abs(disp - want) <= 1e-9

    def test_clipped_scaling_bounds(self):
        rng = np.random.default_rng(6)
        phi = clipped(0.1, 2.0)
        alpha = 0.05
        for _ in range(100):
            p, psi = random_bv(rng), random_bv(rng)
            out = lamb(p, psi, alpha, 0.0, phi)
            for theta, new in zip(p.blocks, out.blocks):
                disp = float(np.linalg.norm(new - theta))
                assert alpha * 0.1 - 1e-12 <= disp <= alpha * 2.0 + 1e-12

    def test_scale_direction_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p, psi = random_bv(rng), random_bv(rng)
            c = float(rng.uniform(0.1, 10.0))
            scaled = BlockVector.of(zip(psi.names, (c * b for b in psi.blocks)))
            a = lamb(p, psi, 0.05, 0.0, IDENTITY)
            b = lamb(p, scaled, 0.05, 0.0, IDENTITY)
            for x, y in zip(a.blocks, b.blocks):
                np.testing.assert_allclose(x, y, rtol=1e-10, atol=1e-12)


class TestMilestoneLr:
    def test_before_first_milestone(self):
        assert milestone_lr(0.1, 29, [30, 70], 0.1) == pytest.approx(0.1, rel=1e-15)

    def test_one_passed(self):
        assert milestone_lr(0.1, 30, [30, 70], 0.1) == pytest.approx(0.01, rel=1e-15)

    def test_two_passed(self):
        assert milestone_lr(0.1, 100, [30, 70], 0.1) == pytest.approx(0.001, rel=1e-15)


class TestScalingFn:
    def test_identity(self):
        assert IDENTITY(3.7) == 3.7

    def test_clipped(self):
        phi = clipped(0.5, 2.0)
        assert phi(0.1) == 0.5 and phi(1.0) == 1.0 and phi(5.0) == 2.0

    def test_invalid_clip(self):
        with pytest.raises(ValueError):
            clipped(2.0, 1.0)
        with pytest.raises(ValueError):
            clipped(0.0, 1.0)


class TestHyper:
    def test_validation(self):
        # the step hyperparameters' rules live on RunSettings; each bad value is
        # rejected under its own key
        for bad in ({"alpha": 0.0}, {"beta1": 1.0}, {"lam": 1.5}, {"eps": 0.0}):
            with pytest.raises(RangeError) as info:
                check_ranges(RunSettings(protocol="fed-lamb", **bad), RunSettings.RULES)
            assert info.value.key == next(iter(bad))
        check_ranges(RunSettings(protocol="fed-lamb"), RunSettings.RULES)
