"""Optimizer step rules, the clients' and the server's: SGD, the AMSGrad
moment recursion and the layer-wise trust-ratio step.

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
    """Layer-norm scaling phi(a) = min(max(a, lo), hi), elementwise; the
    identity (0, inf) keeps every norm >= 0 as it is, and `clipped` bounds
    it for testing the bounded-scaling regime."""

    lo: float = 0.0
    hi: float = math.inf

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi:
            raise ValueError("scaling requires 0 <= lo <= hi")

    def __call__(self, a):
        return np.minimum(np.maximum(a, self.lo), self.hi)


IDENTITY = ScalingFn()


def clipped(lo: float, hi: float) -> ScalingFn:
    if not 0 < lo:
        raise ValueError("clipped scaling requires 0 < lo <= hi")
    return ScalingFn(lo, hi)


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
    m <- beta1*m + (1-beta1)*g and v <- beta2*v + (1-beta2)*g^2, each unless it is None."""
    if m is not None:
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
    bias blocks stay trainable under the identity scaling. A vector is
    stepped as a one-row stack. The norms of all rows come first as one
    (2, L, K) array (`blocks.dot`: for a stack, one `np.vecdot` per block and
    8,192-float piece), then the (L, K) coefficients as one array expression.
    Returns (|theta|, |u|), the (L, K) norms each block's coefficient came from.
    """
    theta, u, tmp = np.atleast_2d(theta, psi, tmp)  # views, so the steps land in the caller's buffers
    if lam:  # u = psi + 0*theta differs from psi only in the sign of zeros, which theta - c*u drops
        np.multiply(theta, lam, out=tmp)
        u += tmp
    t_norm, u_norm = np.sqrt([[dot(x[:, s], x[:, s]) for s in layout.slices] for x in (theta, u)]).reshape(
        2, len(layout.slices), -1)
    coef = np.divide(alpha * phi(t_norm), u_norm, out=np.where(u_norm == 0.0, 0.0, alpha),
                     where=(t_norm != 0.0) & (u_norm != 0.0))
    for s, c in zip(layout.slices, coef):
        u[:, s] *= c[:, None]
    theta -= u
    return t_norm, u_norm


def milestone_lr(alpha0: float, r: int, milestones, factor: float) -> float:
    """alpha0 * factor^(number of milestones at or before round r)."""
    return alpha0 * factor ** sum(1 for m in milestones if m <= r)
