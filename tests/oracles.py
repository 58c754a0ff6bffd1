"""Independent scalar-loop reference implementations used as test oracles.

Everything here works on plain lists of per-block float lists and explicit
Python loops, deliberately sharing no code with the package's vectorized
implementations.
"""

import math

import numpy as np

from fedlamb.models import backward


def to_lists(bv):
    return [[float(x) for x in block] for block in bv.blocks]


def o_block_norms(blocks):
    out = []
    for block in blocks:
        s = 0.0
        for x in block:
            s += x * x
        out.append(math.sqrt(s))
    return out


def o_ew_max(a, b):
    return [[max(x, y) for x, y in zip(ba, bb)] for ba, bb in zip(a, b)]


def o_ratio_div(m, v, floor):
    return [
        [x / math.sqrt(max(y, floor)) for x, y in zip(bm, bv)]
        for bm, bv in zip(m, v)
    ]


def o_lin_comb(a, x, b, y):
    return [[a * u + b * w for u, w in zip(bx, by)] for bx, by in zip(x, y)]


def o_moment_update(m, v, g, beta1, beta2):
    m2 = [[beta1 * mm + (1 - beta1) * gg for mm, gg in zip(bm, bg)]
          for bm, bg in zip(m, g)]
    v2 = [[beta2 * vv + (1 - beta2) * gg * gg for vv, gg in zip(bv, bg)]
          for bv, bg in zip(v, g)]
    return m2, v2


def o_amsgrad_step(params, m, vhat, alpha, eps):
    return [
        [p - alpha * mm / math.sqrt(max(vv, eps)) for p, mm, vv in zip(bp, bm, bv)]
        for bp, bm, bv in zip(params, m, vhat)
    ]


def o_lamb_step(params, psi, alpha, lam, phi):
    out = []
    for bp, bpsi in zip(params, psi):
        u = [pp + lam * p for p, pp in zip(bp, bpsi)]
        u_norm = math.sqrt(sum(x * x for x in u))
        t_norm = math.sqrt(sum(x * x for x in bp))
        if u_norm == 0.0:
            out.append(list(bp))
        elif t_norm == 0.0:
            out.append([p - alpha * x for p, x in zip(bp, u)])
        else:
            scale = alpha * phi(t_norm) / u_norm
            out.append([p - scale * x for p, x in zip(bp, u)])
    return out


def o_sgd_step(params, g, alpha, buf, mu):
    buf2 = [[mu * bb + gg for bb, gg in zip(b, bg)] for b, bg in zip(buf, g)]
    params2 = [[p - alpha * bb for p, bb in zip(bp, b)] for bp, b in zip(params, buf2)]
    return params2, buf2


def assert_close(got, want, rel=1e-12, label=""):
    for bg, bw in zip(got, want):
        for x, y in zip(bg, bw):
            tol = rel * max(1.0, abs(y))
            assert abs(x - y) <= tol, f"{label}: {x} vs {y}"


def central_difference(loss_fn, params, block_i, coord_j, h=1e-5):
    """Two-point central difference of loss_fn at one coordinate."""
    def shifted(delta):
        blocks = [np.array(b, dtype=np.float64, copy=True) for b in params.blocks]
        blocks[block_i][coord_j] += delta
        return type(params).of(zip(params.names, blocks))

    return (loss_fn(shifted(h)) - loss_fn(shifted(-h))) / (2.0 * h)


def reference_lamb_single(spec, params0, batch_seq, alpha, beta1, beta2, lam, eps, phi):
    """Single-machine layer-wise adaptive run with the capped second moment
    as the carried state: each step seeds v from the cap, forms the ratio
    against the pre-step cap, then raises the cap. Flat per-block arrays,
    explicit block loops."""
    theta = [np.array(b, copy=True) for b in params0.blocks]
    m = [np.zeros_like(b) for b in theta]
    vhat = [np.full_like(b, eps) for b in theta]
    trajectory = []
    for batch in batch_seq:
        cur = type(params0).of(zip(params0.names, (np.array(b) for b in theta)))
        g = [np.asarray(b) for b in backward(spec, cur, batch).blocks]
        for i in range(len(theta)):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
            v_i = beta2 * vhat[i] + (1.0 - beta2) * g[i] * g[i]
            psi = m[i] / np.sqrt(np.maximum(vhat[i], eps))
            u = psi + lam * theta[i]
            u_norm = math.sqrt(float(np.dot(u, u)))
            t_norm = math.sqrt(float(np.dot(theta[i], theta[i])))
            if u_norm == 0.0:
                pass
            elif t_norm == 0.0:
                theta[i] = theta[i] - alpha * u
            else:
                theta[i] = theta[i] - (alpha * phi(t_norm) / u_norm) * u
            vhat[i] = np.maximum(vhat[i], v_i)
        trajectory.append([np.array(b) for b in theta])
    return trajectory


def reference_amsgrad_single(spec, params0, batch_seq, alpha, beta1, beta2, eps):
    """Single-machine dimension-wise adaptive run with the capped moment as
    the carried second-moment state."""
    theta = [np.array(b, copy=True) for b in params0.blocks]
    m = [np.zeros_like(b) for b in theta]
    vhat = [np.full_like(b, eps) for b in theta]
    trajectory = []
    for batch in batch_seq:
        cur = type(params0).of(zip(params0.names, (np.array(b) for b in theta)))
        g = [np.asarray(b) for b in backward(spec, cur, batch).blocks]
        for i in range(len(theta)):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
            v_i = beta2 * vhat[i] + (1.0 - beta2) * g[i] * g[i]
            vhat[i] = np.maximum(vhat[i], v_i)
            theta[i] = theta[i] - alpha * m[i] / np.sqrt(np.maximum(vhat[i], eps))
        trajectory.append([np.array(b) for b in theta])
    return trajectory


def o_mime_vhat(v_prev, vhat_prev, grads, beta2):
    n = len(grads)
    gbar = [
        [sum(g[bi][j] for g in grads) / n for j in range(len(v_prev[bi]))]
        for bi in range(len(v_prev))
    ]
    v = [
        [beta2 * vv + (1 - beta2) * gg * gg for vv, gg in zip(bv, bg)]
        for bv, bg in zip(v_prev, gbar)
    ]
    vhat = o_ew_max(vhat_prev, v)
    return v, vhat
