"""Layered parameter containers and the blockwise arithmetic kernels.

A model's parameters, gradients and optimizer moments all share one
structure: an ordered list of named 1-D float64 blocks, one block per
parameter tensor. Layer-wise operations (trust ratios, per-layer norms)
act on blocks; dimension-wise operations act coordinatewise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CongruenceError(ValueError):
    """Raised when two block vectors do not share the same block structure."""


@dataclass(frozen=True)
class BlockVector:
    """Ordered list of named, non-empty 1-D float64 blocks.

    Immutable: the underlying arrays are marked read-only on construction,
    so values are safe to share across concurrently simulated clients.
    """

    names: tuple[str, ...]
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.names) != len(self.blocks) or not self.blocks:
            raise ValueError("names and blocks must be non-empty and aligned")
        frozen = []
        for name, block in zip(self.names, self.blocks):
            arr = np.ascontiguousarray(block, dtype=np.float64)
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(f"block {name!r} must be a non-empty 1-D vector")
            arr.flags.writeable = False
            frozen.append(arr)
        object.__setattr__(self, "blocks", tuple(frozen))
        object.__setattr__(self, "names", tuple(self.names))

    @classmethod
    def of(cls, pairs) -> "BlockVector":
        names, blocks = zip(*pairs)
        return cls(tuple(names), tuple(np.asarray(b, dtype=np.float64) for b in blocks))

    @property
    def dim(self) -> int:
        return sum(b.size for b in self.blocks)

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    def congruent(self, other: "BlockVector") -> bool:
        return self.names == other.names and self.block_sizes() == other.block_sizes()


# Type aliases marking intent: model parameters vs. optimizer statistics
# (gradient, moment, ratio) carried in the same container.
LayeredParams = BlockVector
FlatStat = BlockVector


def require_congruent(*xs: BlockVector):
    first = xs[0]
    for other in xs[1:]:
        if not first.congruent(other):
            raise CongruenceError(
                f"block structure mismatch: {first.names} {first.block_sizes()} "
                f"vs {other.names} {other.block_sizes()}"
            )


def _rebuild(template: BlockVector, blocks) -> BlockVector:
    return BlockVector(template.names, tuple(blocks))


def zeros_like(x: BlockVector) -> BlockVector:
    return _rebuild(x, (np.zeros(b.size) for b in x.blocks))


def full_like(x: BlockVector, value: float) -> BlockVector:
    return _rebuild(x, (np.full(b.size, float(value)) for b in x.blocks))


def block_norms(x: BlockVector) -> np.ndarray:
    """Euclidean norm of every block, in block order."""
    return np.array([np.linalg.norm(b) for b in x.blocks])


def ew_max(a: BlockVector, b: BlockVector) -> BlockVector:
    """Coordinatewise maximum."""
    require_congruent(a, b)
    return _rebuild(a, (np.maximum(x, y) for x, y in zip(a.blocks, b.blocks)))


def ratio_div(m: BlockVector, v: BlockVector, floor: float) -> BlockVector:
    """Coordinatewise m / sqrt(max(v, floor)).

    The floor sits inside the square root: with the capped second moment
    initialized at the floor and grown by max-aggregation, this reproduces
    m / sqrt(v-hat) exactly while still guarding every other caller.
    """
    require_congruent(m, v)
    if not floor > 0:
        raise ValueError("floor must be positive")
    return _rebuild(
        m, (x / np.sqrt(np.maximum(y, floor)) for x, y in zip(m.blocks, v.blocks))
    )


def lin_comb(a: float, x: BlockVector, b: float, y: BlockVector) -> BlockVector:
    """Coordinatewise a*x + b*y; shared kernel for averaging, decay and axpy."""
    require_congruent(x, y)
    return _rebuild(x, (a * u + b * w for u, w in zip(x.blocks, y.blocks)))


def square(x: BlockVector) -> BlockVector:
    """Coordinatewise x * x."""
    return _rebuild(x, (b * b for b in x.blocks))


def mean(xs: list[BlockVector]) -> BlockVector:
    """Unweighted coordinatewise mean, summed in list order."""
    if not xs:
        raise ValueError("mean of empty list")
    acc = xs[0]
    for x in xs[1:]:
        acc = lin_comb(1.0, acc, 1.0, x)
    return lin_comb(1.0 / len(xs), acc, 0.0, acc)


def norm_sq(x: BlockVector) -> float:
    """Squared Euclidean norm over all coordinates."""
    return float(sum(float(np.dot(b, b)) for b in x.blocks))
