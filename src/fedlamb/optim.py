"""Per-client optimizer step rules: SGD, the AMSGrad moment recursion and
the layer-wise trust-ratio step.

The steps update float64 buffers in place, using numpy `out=` operations;
`tmp` is caller-owned scratch of the same shape. A buffer is one vector or a
(K, p) stack of K clients' vectors, one per row, stepped at once. The steps
make, row by row, the same IEEE operations in the same order as the pure
`blocks` kernels, so a step gives the same bits as the kernel chain it
stands for.

No bias correction anywhere: the moment recursions are used exactly as
m <- b1*m + (1-b1)*g and v <- b2*v + (1-b2)*g^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# lin_comb, ratio_div and square, the pure kernels the steps reproduce, are kept under
# optim's names: perfbench's tracer reports those kernels only when it finds them here.
from .blocks import Layout, dot, lin_comb, ratio_div, square  # noqa: F401


class RangeError(ValueError):
    """A value of an engine type is out of range; `key` names it as the
    config file does."""

    def __init__(self, key: str, rule: str):
        super().__init__(f"{key} {rule}")
        self.key = key


def check_ranges(obj, rules) -> None:
    """Raise RangeError for the first (key, rule, test) whose test(obj) is false."""
    for key, rule, test in rules:
        if not test(obj):
            raise RangeError(key, rule)


@dataclass(frozen=True)
class ScalingFn:
    """Layer-norm scaling phi; identity in practice, clipped variant for
    testing the bounded-scaling regime."""

    kind: str = "identity"
    lo: float = 0.0
    hi: float = math.inf

    def __post_init__(self):
        if self.kind not in ("identity", "clipped"):
            raise ValueError(f"unknown scaling kind {self.kind!r}")
        if self.kind == "clipped" and not (0 < self.lo <= self.hi):
            raise ValueError("clipped scaling requires 0 < lo <= hi")

    def __call__(self, a: float) -> float:
        if self.kind == "identity":
            return a
        return min(max(a, self.lo), self.hi)


IDENTITY = ScalingFn()


def clipped(lo: float, hi: float) -> ScalingFn:
    return ScalingFn("clipped", lo, hi)


def sgd_step(theta, g, alpha: float, buf=None, mu: float = 0.0, *, tmp) -> None:
    """In place: buf <- mu*buf + g, then theta <- theta - alpha*buf. Without
    a buffer it is plain SGD: theta <- theta - alpha*g."""
    if buf is not None:
        buf *= mu
        g = np.add(buf, g, out=buf)
    np.multiply(g, -alpha, out=tmp)
    theta += tmp


def moment_update(m, v, g, beta1: float, beta2: float, *, tmp) -> None:
    """In place, one step of the moment recursion (no bias correction):
    m <- beta1*m + (1-beta1)*g and, unless v is None, v <- beta2*v + (1-beta2)*g^2."""
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=tmp)
    m += tmp
    if v is not None:
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - beta2
        v *= beta2
        v += tmp


def denominator(vhat, eps: float, *, out) -> np.ndarray:
    """out <- sqrt(max(vhat, eps)), the per-coordinate scale of the adaptive steps."""
    np.maximum(vhat, eps, out=out)
    return np.sqrt(out, out=out)


def amsgrad_step(theta, m, denom, alpha: float, *, tmp) -> None:
    """In place, the dimension-wise adaptive step theta <- theta - alpha * m / denom,
    where denom = sqrt(max(vhat, eps)) comes from `denominator`."""
    np.divide(m, denom, out=tmp)
    tmp *= -alpha
    theta += tmp


def lamb_step(theta, psi, alpha: float, lam: float, phi: ScalingFn, *, layout: Layout, tmp):
    """Layer-wise normalized step, in place on theta; psi is overwritten.

    Per block of each row: u = psi + lam*theta; theta' = theta - alpha*phi(|theta|)*u/|u|.
    Degenerate blocks: |u| = 0 gives coefficient 0 and leaves the block
    unchanged (a -0.0 coordinate may become 0.0); |theta| = 0
    replaces the trust factor phi(|theta|)/|u| by 1 so zero-initialized
    bias blocks stay trainable under the identity scaling. The norms of all
    rows come first (`blocks.dot`: for a stack, one `np.vecdot` per block and
    8,192-float piece), then a (K, L) array of coefficients. Returns the
    (|theta|, |u|) pair each block's coefficient came from: a list per block
    for a vector, one such list per row for a stack.
    """
    u = psi
    if lam:  # u = psi + 0*theta differs from psi only in the sign of zeros, which theta - c*u drops
        np.multiply(theta, lam, out=tmp)
        np.add(psi, tmp, out=psi)
    L = len(layout.slices)
    norms = np.sqrt([dot(x[..., s], x[..., s]) for x in (theta, u) for s in layout.slices])
    pairs = [list(zip(row[:L], row[L:])) for row in norms.reshape(2 * L, -1).T.tolist()]
    coef = np.array([[0.0 if un == 0.0 else alpha if tn == 0.0 else alpha * phi(tn) / un for tn, un in row]
                     for row in pairs]).reshape(*theta.shape[:-1], L)
    for j, s in enumerate(layout.slices):
        u[..., s] *= coef[..., j, None]
    theta -= u
    return pairs if theta.ndim > 1 else pairs[0]


def milestone_lr(alpha0: float, r: int, milestones, factor: float) -> float:
    """alpha0 * factor^(number of milestones at or before round r)."""
    return alpha0 * factor ** sum(1 for m in milestones if m <= r)
