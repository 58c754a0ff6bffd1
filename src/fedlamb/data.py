"""The one sample container, dataset ingestion, synthetic blob generation,
client partitioning and minibatches.

All generators and partitioners are deterministic functions of their seed;
shards are index views into an immutable parent dataset. Every sample set a
model pass reads (a minibatch, a shard, a split) is a read-only `Dataset`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BLOB_TAG = 0xB10B
_IID_TAG = 0x11D
_SHARD_TAG = 0x5A4D
_BATCH_TAG = 0xBA7C


class PartitionError(ValueError):
    """A requested client partition is infeasible."""


class DataFormatError(ValueError):
    """A data file failed to parse or validate."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Marks an array nothing else holds read-only, so a Dataset shares it."""
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Dataset:
    """Samples with labels. A leading client axis stacks K same-sized sets, as a
    lockstep group's step reads them: features (K, N, d), labels (K, N)."""

    features: np.ndarray  # (..., N, d)
    labels: np.ndarray    # (..., N)
    classes: int

    def __post_init__(self):
        # A writable array is the caller's and is copied, so the caller keeps write access;
        # a read-only one (a slice of another set, or `_frozen`) is shared.
        for name, dtype in (("features", np.float64), ("labels", None)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            object.__setattr__(self, name, _frozen(arr.copy()) if arr.flags.writeable else arr)
        if self.features.ndim < 2 or self.features.shape[-2] < 1:
            raise DataFormatError("dataset needs at least one sample")
        if self.labels.shape != self.features.shape[:-1]:
            raise DataFormatError("labels must match the number of samples")

    @property
    def n(self) -> int:
        return self.features.shape[-2]

    @property
    def dim(self) -> int:
        return self.features.shape[-1]

    def take(self, idx: np.ndarray) -> "Dataset":
        """The samples at positions `idx`, read-only; an index array with a
        leading axis gathers that many sets at once."""
        return Dataset(_frozen(self.features[idx]), _frozen(self.labels[idx]), self.classes)


@dataclass(frozen=True)
class ClientShard:
    client_id: int
    indices: np.ndarray  # positions into the parent dataset

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.intp)
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)
        if idx.size == 0:
            raise PartitionError(f"client {self.client_id} got an empty shard")

    def __len__(self) -> int:
        return self.indices.size

    def view(self, dataset: Dataset) -> Dataset:
        return dataset.take(self.indices)


def load_csv(path, d: int, k: int) -> Dataset:
    """Parse `d` comma-separated features plus one integer label per line."""
    feats, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 1:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {d + 1} fields, got {len(parts)}"
                )
            try:
                row = [float(p) for p in parts[:d]]
                label = int(parts[d])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
            if not 0 <= label < k:
                raise DataFormatError(
                    f"{path}:{lineno}: label {label} outside [0, {k})"
                )
            feats.append(row)
            labels.append(label)
    if not feats:
        raise DataFormatError(f"{path}: no samples")
    features = np.array(feats)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():  # one vectorised check; the line is looked up on failure
        with open(path, "r", encoding="utf-8") as fh:
            lines = [lineno for lineno, line in enumerate(fh, start=1) if line.strip()]
        raise DataFormatError(f"{path}:{lines[np.argmin(finite)]}: non-finite feature value")
    return Dataset(_frozen(features), _frozen(np.array(labels, dtype=np.intp)), k)


def gen_blobs(
    k: int, d: int, per_class: int, separation: float, noise: float, seed: int
) -> Dataset:
    """Gaussian blobs with orthogonally placed class means.

    Class c's mean sits at `separation` along axis c, so d >= k is required.
    Samples are ordered class by class.
    """
    if k < 2:
        raise ValueError("need at least two classes")
    if d < k:
        raise ValueError("need d >= k for orthogonal mean placement")
    rng = np.random.default_rng([_BLOB_TAG, seed])
    feats = np.empty((k * per_class, d))
    labels = np.empty(k * per_class, dtype=np.intp)
    for c in range(k):
        block = noise * rng.standard_normal((per_class, d))
        block[:, c] += separation
        feats[c * per_class : (c + 1) * per_class] = block
        labels[c * per_class : (c + 1) * per_class] = c
    return Dataset(_frozen(feats), _frozen(labels), k)


def partition_iid(dataset: Dataset, n: int, seed: int, *stream: int) -> list[ClientShard]:
    """Seed-determined permutation split into n near-equal shards; extra
    `stream` ints (such as a round index) key a separate permutation."""
    if not 1 <= n <= dataset.n:
        raise PartitionError(f"cannot split {dataset.n} samples over {n} clients")
    perm = np.random.default_rng([_IID_TAG, seed, *stream]).permutation(dataset.n)
    base, extra = divmod(dataset.n, n)
    shards, start = [], 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        shards.append(ClientShard(i, perm[start : start + size]))
        start += size
    return shards


def partition_label_shards(
    dataset: Dataset, n: int, classes_per_client: int, seed: int, *stream: int
) -> list[ClientShard]:
    """Class-sharded non-IID split: each client gets `classes_per_client`
    contiguous chunks drawn from that many distinct classes; extra `stream`
    ints key a separate draw, as in `partition_iid`.

    Each class is cut into equal chunks (the last absorbs the remainder);
    chunk groups are dealt to a seed-permuted client order with stride n,
    which keeps the classes within one client distinct whenever feasible.
    """
    c = classes_per_client
    k = dataset.classes
    if c < 1:
        raise PartitionError("classes_per_client must be >= 1")
    if n * c < k:
        raise PartitionError(f"{n} clients x {c} chunks cannot cover {k} classes")
    rng = np.random.default_rng([_SHARD_TAG, seed, *stream])
    class_order = rng.permutation(k)
    client_order = rng.permutation(n)

    total_chunks = n * c
    base, extra = divmod(total_chunks, k)
    slots = []  # (class, chunk index range), grouped by class
    for pos, cls in enumerate(class_order):
        q = base + (1 if pos < extra else 0)
        idx = np.flatnonzero(dataset.labels == cls)
        if len(idx) < q:
            raise PartitionError(
                f"class {cls} has {len(idx)} samples, cannot cut {q} chunks"
            )
        size = len(idx) // q
        for j in range(q):
            lo = j * size
            hi = (j + 1) * size if j < q - 1 else len(idx)
            slots.append(idx[lo:hi])

    per_client = [[] for _ in range(n)]
    for pos, chunk in enumerate(slots):
        per_client[client_order[pos % n]].append(chunk)
    return [
        ClientShard(i, np.concatenate(chunks)) for i, chunks in enumerate(per_client)
    ]


def minibatch_stream(indices: np.ndarray, epoch: int, seed: int, batch_size: int) -> np.ndarray:
    """One local epoch of shards' sample positions in the parent dataset, shape
    (..., n): one fresh seed-and-epoch-keyed permutation of every row, which the
    caller cuts into consecutive minibatches of `batch_size` (the last may be
    short). An epoch that is one batch keeps the stored order, as a full-shard gradient does."""
    n = indices.shape[-1]
    if batch_size >= n:
        return indices
    return indices[..., np.random.default_rng([_BATCH_TAG, seed, epoch]).permutation(n)]
