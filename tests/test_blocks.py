import numpy as np
import pytest

from fedlamb.blocks import (
    BlockVector,
    CongruenceError,
    ew_max,
    lin_comb,
    mean,
    ratio_div,
    square,
    zeros_like,
)

import oracles
from helpers import block_norms


def bv(*pairs):
    return BlockVector.of(list(pairs))


def random_bv(rng, sizes=(7, 7, 7), scale=1.0, nonneg=False):
    pairs = []
    for i, size in enumerate(sizes):
        vals = rng.standard_normal(size) * scale
        if nonneg:
            vals = np.abs(vals)
        pairs.append((f"blk{i}", vals))
    return BlockVector.of(pairs)


class TestBlockNorms:
    def test_direct(self):
        x = bv(("a", [3.0, 4.0]), ("b", [0.0, 0.0]))
        assert block_norms(x).tolist() == [5.0, 0.0]

    def test_zero(self):
        x = bv(("a", np.zeros(5)), ("b", np.zeros(2)))
        assert block_norms(x).tolist() == [0.0, 0.0]

    def test_against_sum_of_squares_oracle(self):
        rng = np.random.default_rng(7)
        x = random_bv(rng)
        want = oracles.o_block_norms(oracles.to_lists(x))
        got = block_norms(x)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w))


class TestEwMax:
    def test_direct(self):
        a = bv(("a", [1.0, 3.0]))
        b = bv(("a", [2.0, 2.0]))
        assert ew_max(a, b).blocks[0].tolist() == [2.0, 3.0]

    def test_idempotent(self):
        a = bv(("a", [1.0, -2.0, 0.5]))
        out = ew_max(a, a)
        assert out.blocks[0].tolist() == a.blocks[0].tolist()

    def test_dominates_both_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = random_bv(rng), random_bv(rng)
            out = ew_max(a, b)
            for bo, ba, bb in zip(out.blocks, a.blocks, b.blocks):
                for x, y, z in zip(bo, ba, bb):
                    assert x >= y and x >= z

    def test_commutative_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a, b, c = (random_bv(rng) for _ in range(3))
            ab = ew_max(a, b)
            ba = ew_max(b, a)
            assert all(np.array_equal(x, y) for x, y in zip(ab.blocks, ba.blocks))
            left = ew_max(ew_max(a, b), c)
            right = ew_max(a, ew_max(b, c))
            assert all(np.array_equal(x, y) for x, y in zip(left.blocks, right.blocks))

    def test_structure_mismatch(self):
        with pytest.raises(CongruenceError):
            ew_max(bv(("a", [1.0])), bv(("a", [1.0, 2.0])))


class TestRatioDiv:
    def test_direct(self):
        out = ratio_div(bv(("a", [0.1])), bv(("a", [0.01])), 1e-8)
        assert out.blocks[0][0] == pytest.approx(1.0, rel=1e-15)

    def test_floor_engages(self):
        out = ratio_div(bv(("a", [1.0])), bv(("a", [0.0])), 1e-8)
        assert out.blocks[0][0] == pytest.approx(1e4, rel=1e-15)

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(3)
        m = random_bv(rng)
        v = random_bv(rng, nonneg=True)
        got = ratio_div(m, v, 1e-8)
        want = oracles.o_ratio_div(oracles.to_lists(m), oracles.to_lists(v), 1e-8)
        oracles.assert_close(oracles.to_lists(got), want, label="ratio_div")

    def test_always_finite(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = random_bv(rng, scale=1e6)
            v = random_bv(rng, nonneg=True, scale=1e-12)
            out = ratio_div(m, v, 1e-8)
            assert all(np.all(np.isfinite(b)) for b in out.blocks)

    def test_bad_floor(self):
        with pytest.raises(ValueError):
            ratio_div(bv(("a", [1.0])), bv(("a", [1.0])), 0.0)


class TestLinComb:
    def test_identity(self):
        x = bv(("a", [1.0, 2.0]))
        out = lin_comb(1.0, x, 0.0, zeros_like(x))
        assert out.blocks[0].tolist() == [1.0, 2.0]

    def test_mean(self):
        out = lin_comb(0.5, bv(("a", [2.0])), 0.5, bv(("a", [4.0])))
        assert out.blocks[0][0] == 3.0

    def test_against_scalar_oracle(self):
        rng = np.random.default_rng(5)
        x, y = random_bv(rng), random_bv(rng)
        a, b = rng.standard_normal(2)
        got = lin_comb(a, x, b, y)
        want = oracles.o_lin_comb(a, oracles.to_lists(x), b, oracles.to_lists(y))
        oracles.assert_close(oracles.to_lists(got), want, label="lin_comb")

    def test_structure_mismatch(self):
        with pytest.raises(CongruenceError):
            lin_comb(1.0, bv(("a", [1.0])), 1.0, bv(("b", [1.0])))


class TestProperties:
    def test_congruence_preserved(self):
        rng = np.random.default_rng(6)
        x, y = random_bv(rng), random_bv(rng)
        for out in (ew_max(x, y), lin_comb(0.3, x, 0.7, y),
                    ratio_div(x, ew_max(y, zeros_like(y)), 1e-8), square(x)):
            assert out.congruent(x)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = random_bv(rng)
            a = float(rng.standard_normal())
            scaled = lin_comb(a, x, 0.0, x)
            for got, base in zip(block_norms(scaled), block_norms(x)):
                assert abs(got - abs(a) * base) <= 1e-12 * max(1.0, abs(a) * base)

    def test_mean_matches_loop(self):
        rng = np.random.default_rng(9)
        xs = [random_bv(rng) for _ in range(7)]
        got = mean(xs)
        lists = [oracles.to_lists(x) for x in xs]
        for bi, block in enumerate(oracles.to_lists(got)):
            for j, val in enumerate(block):
                want = sum(l[bi][j] for l in lists) / len(xs)
                assert abs(val - want) <= 1e-12 * max(1.0, abs(want))

    def test_immutability(self):
        x = bv(("a", [1.0, 2.0]))
        with pytest.raises(ValueError):
            x.blocks[0][0] = 5.0

    def test_flat_data_read_only_and_sized_by_layout(self):
        x = bv(("a", [1.0, 2.0]), ("b", [3.0]))
        with pytest.raises(ValueError):
            x.blocks[1][0] = 5.0
        with pytest.raises(ValueError):
            x.data[0] = 5.0
        with pytest.raises(ValueError):
            BlockVector(x.layout, np.zeros(x.dim + 1))

    def test_empty_block_rejected(self):
        with pytest.raises(ValueError):
            bv(("a", []))
