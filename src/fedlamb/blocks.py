"""One flat parameter vector with a layered layout, and its arithmetic kernels.

A model's parameters, gradients and optimizer moments all share one
structure: an ordered list of named blocks, one block per parameter tensor.
A `BlockVector` stores them as one contiguous, read-only 1-D float64 `data`
vector plus a `Layout` (block names and sizes) that every vector derived
from it shares; `.blocks` are read-only views into `data`. Dimension-wise
kernels are one numpy expression on `data`; layer-wise operations (trust
ratios, per-layer norms) act on the views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class CongruenceError(ValueError):
    """Raised when two block vectors do not share the same block structure."""


@dataclass(frozen=True)
class Layout:
    """Block names and sizes; the slices of `data` follow from them."""

    names: tuple[str, ...]
    sizes: tuple[int, ...]
    slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.names or len(self.names) != len(self.sizes) or min(self.sizes) < 1:
            raise ValueError("names and sizes must be non-empty, aligned and positive")
        ends = np.cumsum(self.sizes).tolist()
        object.__setattr__(self, "slices", tuple(map(slice, [0, *ends[:-1]], ends)))
        object.__setattr__(self, "dim", ends[-1])


@dataclass(frozen=True, eq=False)
class BlockVector:
    """A layout and one contiguous 1-D float64 vector of `layout.dim` floats.

    Immutable: `data` is marked read-only on construction, so values are
    safe to share across concurrently simulated clients.
    """

    layout: Layout
    data: np.ndarray

    def __post_init__(self):
        d = self.data
        if not (isinstance(d, np.ndarray) and d.dtype == np.float64 and d.flags.c_contiguous
                and d.shape == (self.layout.dim,)):
            raise ValueError(f"data must be a contiguous float64 vector of {self.layout.dim} floats")
        d.flags.writeable = False

    @classmethod
    def of(cls, pairs) -> "BlockVector":
        names, blocks = zip(*pairs)
        blocks = [np.asarray(b, dtype=np.float64) for b in blocks]
        for name, b in zip(names, blocks):
            if b.ndim != 1 or b.size == 0:
                raise ValueError(f"block {name!r} must be a non-empty 1-D vector")
        return cls(Layout(tuple(names), tuple(b.size for b in blocks)), np.concatenate(blocks))

    @property
    def names(self) -> tuple[str, ...]:
        return self.layout.names

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(self.data[s] for s in self.layout.slices)

    @property
    def dim(self) -> int:
        return self.layout.dim

    def congruent(self, other: "BlockVector") -> bool:
        return self.layout is other.layout or self.layout == other.layout


def require_congruent(*xs: BlockVector):
    first = xs[0]
    for other in xs[1:]:
        if not first.congruent(other):
            raise CongruenceError(
                f"block structure mismatch: {first.names} {first.layout.sizes} "
                f"vs {other.names} {other.layout.sizes}"
            )


def zeros_like(x: BlockVector) -> BlockVector:
    return BlockVector(x.layout, np.zeros(x.dim))


def full_like(x: BlockVector, value: float) -> BlockVector:
    return BlockVector(x.layout, np.full(x.dim, float(value)))


_DOT_CHUNK = 8192


def dot(a: np.ndarray, b: np.ndarray):
    """a . b along the last axis, one float per row (a float for a lone row),
    summed over consecutive `_DOT_CHUNK`-float pieces in order: OpenBLAS splits
    a longer dot across threads, which moves its bits. A lone row takes
    `np.dot`, which costs less per call than `np.vecdot` for the same BLAS dot."""
    n, f = a.shape[-1], np.vecdot
    if a.size == n:
        a, b, f = a.reshape(n), b.reshape(n), np.dot
    total = f(a[..., :_DOT_CHUNK], b[..., :_DOT_CHUNK])
    for lo in range(_DOT_CHUNK, n, _DOT_CHUNK):
        total = total + f(a[..., lo : lo + _DOT_CHUNK], b[..., lo : lo + _DOT_CHUNK])
    return total


def ew_max(a: BlockVector, b: BlockVector) -> BlockVector:
    """Coordinatewise maximum."""
    require_congruent(a, b)
    return BlockVector(a.layout, np.maximum(a.data, b.data))


def ratio_div(m: BlockVector, v: BlockVector, floor: float) -> BlockVector:
    """Coordinatewise m / sqrt(max(v, floor)).

    The floor sits inside the square root: with the capped second moment
    initialized at the floor and grown by max-aggregation, this reproduces
    m / sqrt(v-hat) exactly while still guarding every other caller.
    """
    require_congruent(m, v)
    if not floor > 0:
        raise ValueError("floor must be positive")
    return BlockVector(m.layout, m.data / np.sqrt(np.maximum(v.data, floor)))


def lin_comb(a: float, x: BlockVector, b: float, y: BlockVector) -> BlockVector:
    """Coordinatewise a*x + b*y; shared kernel for averaging, decay and axpy."""
    require_congruent(x, y)
    return BlockVector(x.layout, a * x.data + b * y.data)


def square(x: BlockVector) -> BlockVector:
    """Coordinatewise x * x."""
    return BlockVector(x.layout, x.data * x.data)


def mean(xs: list[BlockVector]) -> BlockVector:
    """Unweighted coordinatewise mean, summed in place in list order."""
    if not xs:
        raise ValueError("mean of empty list")
    require_congruent(*xs)
    acc = xs[0].data.copy()
    for x in xs[1:]:
        acc += x.data
    acc *= 1.0 / len(xs)
    return BlockVector(xs[0].layout, acc)


def norm_sq(x: BlockVector) -> float:
    """Squared Euclidean norm over all coordinates, summed block by block."""
    return float(sum(dot(b, b) for b in x.blocks))
