"""Per-client optimizer step rules: SGD, the AMSGrad moment recursion and
the layer-wise trust-ratio step.

No bias correction anywhere: the moment recursions are used exactly as
m <- b1*m + (1-b1)*g and v <- b2*v + (1-b2)*g^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockVector, block_norms, lin_comb, ratio_div, require_congruent, square


class HyperError(ValueError):
    """A hyperparameter is out of range; `key` names it."""

    def __init__(self, key: str, rule: str):
        super().__init__(f"{key} {rule}")
        self.key = key


@dataclass(frozen=True)
class Hyper:
    alpha: float
    beta1: float = 0.9
    beta2: float = 0.999
    lam: float = 0.0
    eps: float = 1e-8

    def __post_init__(self):
        for key, ok, rule in (
            ("alpha", self.alpha > 0, "must be positive"),
            ("beta1", 0 <= self.beta1 < 1, "must be in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "must be in [0, 1)"),
            ("lam", 0 <= self.lam <= 1, "must be in [0, 1]"),
            ("eps", self.eps > 0, "must be positive"),
        ):
            if not ok:
                raise HyperError(key, rule)


@dataclass
class OptState:
    """Per-client optimizer memory, carried across the rounds a client
    participates in."""

    m: BlockVector
    v: BlockVector
    hyper: Hyper


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


def sgd_step(
    params: BlockVector,
    g: BlockVector,
    alpha: float,
    momentum_buf: BlockVector | None = None,
    mu: float = 0.0,
) -> tuple[BlockVector, BlockVector]:
    """buf' = mu*buf + g; params' = params - alpha*buf'. mu=0 is plain SGD."""
    require_congruent(params, g)
    if momentum_buf is None:
        buf = g
    else:
        buf = lin_comb(mu, momentum_buf, 1.0, g)
    return lin_comb(1.0, params, -alpha, buf), buf


def moment_update(state: OptState, g: BlockVector) -> OptState:
    """One step of the first/second moment recursion (no bias correction)."""
    require_congruent(state.m, g)
    h = state.hyper
    m = lin_comb(h.beta1, state.m, 1.0 - h.beta1, g)
    v = lin_comb(h.beta2, state.v, 1.0 - h.beta2, square(g))
    return OptState(m, v, h)


def amsgrad_step(
    params: BlockVector, m: BlockVector, vhat: BlockVector, alpha: float, eps: float
) -> BlockVector:
    """Dimension-wise adaptive step params - alpha * m / sqrt(max(vhat, eps))."""
    return lin_comb(1.0, params, -alpha, ratio_div(m, vhat, eps))


def lamb_step(
    params: BlockVector,
    psi: BlockVector,
    alpha: float,
    lam: float = 0.0,
    phi: ScalingFn = IDENTITY,
) -> BlockVector:
    """Layer-wise normalized step.

    Per block: u = psi + lam*theta; theta' = theta - alpha*phi(|theta|)*u/|u|.
    One coefficient per block scales u on the whole vector.
    Degenerate blocks: |u| = 0 gives coefficient 0 and leaves the block
    unchanged (a -0.0 coordinate may become 0.0); |theta| = 0
    replaces the trust factor phi(|theta|)/|u| by 1 so zero-initialized
    bias blocks stay trainable under the identity scaling.
    """
    require_congruent(params, psi)
    u = BlockVector(params.layout, psi.data + lam * params.data)
    coef = [
        0.0 if u_norm == 0.0 else alpha if t_norm == 0.0 else alpha * phi(t_norm) / u_norm
        for u_norm, t_norm in zip(block_norms(u).tolist(), block_norms(params).tolist())
    ]
    return BlockVector(params.layout, params.data - np.repeat(coef, params.block_sizes()) * u.data)


def milestone_lr(alpha0: float, r: int, milestones, factor: float) -> float:
    """alpha0 * factor^(number of milestones at or before round r)."""
    ms = list(milestones)
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("milestones must be strictly increasing")
    return alpha0 * factor ** sum(1 for m in ms if m <= r)
