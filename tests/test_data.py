import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedlamb.data import (
    ClientShard,
    DataFormatError,
    Dataset,
    PartitionError,
    gen_blobs,
    load_csv,
    minibatch_stream,
    partition_iid,
    partition_label_shards,
)

from helpers import epoch_batches, write_csv


class TestLoadCsv:
    def test_direct_parse(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,0,1\n0,1,0\n")
        ds = load_csv(f, d=2, k=2)
        assert ds.n == 2
        assert ds.labels.tolist() == [1, 0]
        assert ds.features[0].tolist() == [1.0, 0.0]

    def test_empty_file(self, tmp_path):
        f = tmp_path / "e.csv"
        f.write_text("")
        with pytest.raises(DataFormatError):
            load_csv(f, d=2, k=2)

    def test_malformed_row_reports_line(self, tmp_path):
        f = tmp_path / "m.csv"
        f.write_text("1,0,1\n1,zzz,0\n")
        with pytest.raises(DataFormatError, match=":2"):
            load_csv(f, d=2, k=2)

    def test_label_out_of_range(self, tmp_path):
        f = tmp_path / "l.csv"
        f.write_text("1,0,7\n")
        with pytest.raises(DataFormatError, match="label 7"):
            load_csv(f, d=2, k=2)

    def test_wrong_field_count(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("1,0\n")
        with pytest.raises(DataFormatError, match="expected 3 fields"):
            load_csv(f, d=2, k=2)

    @pytest.mark.parametrize("bad_row, line", [("nan,1,0", 3), ("1,-inf,0", 4)])
    def test_non_finite_feature_reports_line(self, tmp_path, bad_row, line):
        f = tmp_path / "n.csv"
        rows = ["1,0,1", "", "0,1,0"][: line - 1] + [bad_row, "1,1,1"]
        f.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=f"n.csv:{line}: non-finite"):
            load_csv(f, d=2, k=2)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((17, 5)), rng.integers(0, 3, 17), 3)
        f = tmp_path / "rt.csv"
        write_csv(ds, f)
        back = load_csv(f, d=5, k=3)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestGenBlobs:
    def test_zero_noise_collapses_to_means(self):
        ds = gen_blobs(3, 5, per_class=4, separation=2.0, noise=0.0, seed=0)
        for c in range(3):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])
            assert rows[0][c] == 2.0

    def test_deterministic(self):
        a = gen_blobs(2, 4, 10, 6.0, 1.0, seed=5)
        b = gen_blobs(2, 4, 10, 6.0, 1.0, seed=5)
        np.testing.assert_array_equal(a.features, b.features)
        c = gen_blobs(2, 4, 10, 6.0, 1.0, seed=6)
        assert not np.array_equal(a.features, c.features)

    def test_separable_blobs_are_learnable(self):
        from fedlamb.models import ModelSpec, backward, evaluate, init_params
        from fedlamb.blocks import BlockVector
        from fedlamb.optim import sgd_step

        ds = gen_blobs(2, 2, 100, separation=10.0, noise=0.5, seed=1)
        spec = ModelSpec("logistic", input_dim=2)
        init = init_params(spec, 0)
        theta, tmp = init.data.copy(), np.empty(init.dim)
        params = BlockVector(init.layout, theta.view())
        batch = Dataset(ds.features, ds.labels, ds.classes)
        for _ in range(300):
            sgd_step(theta, backward(spec, params, batch).data, 0.5, tmp=tmp)
        acc, _ = evaluate(spec, params, ds)
        assert acc == 1.0

    def test_requires_room_for_means(self):
        with pytest.raises(ValueError):
            gen_blobs(5, 3, 10, 1.0, 1.0, 0)


class TestPartitionIid:
    def test_exact_division(self):
        ds = gen_blobs(2, 2, 5, 1.0, 1.0, 0)  # N = 10
        shards = partition_iid(ds, 5, seed=0)
        assert [len(s) for s in shards] == [2] * 5
        all_idx = np.concatenate([s.indices for s in shards])
        assert sorted(all_idx.tolist()) == list(range(10))

    def test_remainder_rule(self):
        ds = Dataset(np.zeros((11, 2)), np.zeros(11, dtype=int), 2)
        shards = partition_iid(ds, 5, seed=1)
        assert sorted(len(s) for s in shards) == [2, 2, 2, 2, 3]

    def test_too_few_samples(self):
        ds = Dataset(np.zeros((3, 2)), np.zeros(3, dtype=int), 2)
        with pytest.raises(PartitionError):
            partition_iid(ds, 4, seed=0)

    def test_label_histogram_roughly_uniform(self):
        ds = gen_blobs(5, 5, 2000, 1.0, 1.0, seed=2)  # 10k samples, balanced
        shards = partition_iid(ds, 10, seed=3)
        for s in shards:
            counts = np.bincount(ds.labels[s.indices], minlength=5)
            # expected 200 per class per shard; chi-square sanity bound
            chi2 = float(((counts - 200.0) ** 2 / 200.0).sum())
            assert chi2 < 30.0


class TestPartitionLabelShards:
    def test_two_classes_per_client(self):
        ds = gen_blobs(10, 10, 50, 1.0, 1.0, seed=0)
        shards = partition_label_shards(ds, n=5, classes_per_client=2, seed=0)
        for s in shards:
            labels = set(ds.labels[s.indices].tolist())
            assert len(labels) == 2

    def test_degenerate_single_client(self):
        ds = gen_blobs(4, 4, 6, 1.0, 1.0, seed=0)
        shards = partition_label_shards(ds, n=1, classes_per_client=4, seed=0)
        assert len(shards) == 1
        assert sorted(shards[0].indices.tolist()) == list(range(ds.n))

    @pytest.mark.parametrize("n,c,k", [(5, 2, 10), (10, 1, 10), (7, 3, 4), (20, 2, 10)])
    def test_cover_and_disjoint(self, n, c, k):
        ds = gen_blobs(k, k, 40, 1.0, 1.0, seed=1)
        shards = partition_label_shards(ds, n=n, classes_per_client=c, seed=2)
        assert len(shards) == n
        all_idx = np.concatenate([s.indices for s in shards])
        assert len(all_idx) == ds.n
        assert sorted(all_idx.tolist()) == list(range(ds.n))

    def test_distinct_classes_when_feasible(self):
        ds = gen_blobs(4, 4, 40, 1.0, 1.0, seed=1)
        for seed in range(5):
            shards = partition_label_shards(ds, n=8, classes_per_client=2, seed=seed)
            for s in shards:
                assert len(set(ds.labels[s.indices].tolist())) == 2

    def test_infeasible_coverage(self):
        ds = gen_blobs(10, 10, 10, 1.0, 1.0, seed=0)
        with pytest.raises(PartitionError):
            partition_label_shards(ds, n=4, classes_per_client=2, seed=0)

    def test_class_too_small(self):
        # 3 samples of each of 2 classes cannot be cut into 4 chunks each
        ds = Dataset(np.zeros((6, 2)), np.array([0, 0, 0, 1, 1, 1]), 2)
        with pytest.raises(PartitionError):
            partition_label_shards(ds, n=4, classes_per_client=2, seed=0)

    def test_deterministic(self):
        ds = gen_blobs(10, 10, 30, 1.0, 1.0, seed=4)
        a = partition_label_shards(ds, 5, 2, seed=9)
        b = partition_label_shards(ds, 5, 2, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.indices, y.indices)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data(), st.integers(1, 5), st.integers(-1, 12), st.integers(0, 4), st.integers(0, 3))
def test_partitions_cover_disjointly_or_raise_partition_error(data, k, n, c, seed):
    """Both partitions return n disjoint, non-empty shards covering every
    sample when feasible, and otherwise raise PartitionError and nothing else."""
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=30)))
    ds = Dataset(np.zeros((labels.size, 2)), labels, k)
    counts = np.bincount(labels, minlength=k)
    label_sure = c >= 1 and n * c >= k and counts.min() >= -(-n * c // k)
    label_never = c < 1 or n * c < k or counts.min() < n * c // k
    cases = [(partition_iid, (n,), 1 <= n <= ds.n, not 1 <= n <= ds.n),
             (partition_label_shards, (n, c), label_sure, label_never)]
    for partition, args, feasible, infeasible in cases:
        try:
            shards = partition(ds, *args, seed=seed)
        except PartitionError:
            assert not feasible, partition.__name__
            continue
        assert not infeasible, partition.__name__
        assert [s.client_id for s in shards] == list(range(n))
        assert all(len(s) > 0 for s in shards)
        assert sorted(np.concatenate([s.indices for s in shards]).tolist()) == list(range(ds.n))


class TestMinibatchStream:
    def _shard(self, n):
        return ClientShard(0, np.arange(n))

    def _data(self, n):
        return Dataset(np.arange(n, dtype=float).reshape(n, 1), np.zeros(n, dtype=int), 2)

    def test_remainder_batch(self):
        batches = epoch_batches(self._data(5), self._shard(5), 2, epoch=0, seed=0)
        assert [b.n for b in batches] == [2, 2, 1]

    def test_batches_are_read_only_datasets(self):
        for batch in epoch_batches(self._data(5), self._shard(5), 2, epoch=0, seed=0):
            assert isinstance(batch, Dataset) and batch.classes == 2
            with pytest.raises(ValueError, match="read-only"):
                batch.features[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                batch.labels[0] = 1

    def test_full_batch_mode(self):
        batches = epoch_batches(self._data(4), self._shard(4), 10, epoch=0, seed=0)
        assert len(batches) == 1 and batches[0].n == 4

    def test_replay_and_epoch_keying(self):
        ds, sh = self._data(16), self._shard(16)
        a = epoch_batches(ds, sh, 4, epoch=3, seed=1)
        b = epoch_batches(ds, sh, 4, epoch=3, seed=1)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
        c = epoch_batches(ds, sh, 4, epoch=4, seed=1)
        assert any(
            not np.array_equal(x.features, y.features) for x, y in zip(a, c)
        )

    def test_stack_takes_each_rows_own_order(self):
        # a (K, n) stack of positions is ordered by one permutation, each row as
        # its own call orders it; one batch covering the shards keeps them as they are
        stack = np.stack([np.arange(10), np.arange(10, 20)[::-1], np.arange(0, 30, 3)])
        for epoch in (0, 5):
            got = minibatch_stream(stack, epoch, 4, 3)
            assert got.shape == stack.shape
            for row, want in zip(got, stack):
                np.testing.assert_array_equal(row, minibatch_stream(want, epoch, 4, 3))
        assert minibatch_stream(stack, 0, 4, 10) is stack

    def test_visits_every_index_once(self):
        ds, sh = self._data(13), self._shard(13)
        batches = epoch_batches(ds, sh, 3, epoch=0, seed=2)
        seen = np.concatenate([b.features[:, 0] for b in batches])
        assert sorted(seen.tolist()) == list(range(13))

    def test_empty_shard_rejected(self):
        with pytest.raises(PartitionError):
            ClientShard(0, np.array([], dtype=int))


class TestDataset:
    def test_caller_arrays_stay_writable(self):
        X, y = np.zeros((3, 2)), np.array([0, 1, 0])
        ds = Dataset(X, y, 2)
        X[0, 0] = 1.0
        y[0] = 1
        assert ds.features[0, 0] == 0.0 and ds.labels[0] == 0
        with pytest.raises(ValueError, match="read-only"):
            ds.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[0] = 1

    def test_read_only_slices_are_shared_not_copied(self):
        ds = gen_blobs(3, 4, per_class=10, separation=4.0, noise=1.0, seed=0)
        chunk = Dataset(ds.features[:8], ds.labels[:8], ds.classes)
        assert np.shares_memory(chunk.features, ds.features)
        assert np.shares_memory(chunk.labels, ds.labels)
