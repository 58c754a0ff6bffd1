"""Property tests: every flat kernel equals a per-block numpy reference bit for
bit, keeps its input's layout object and leaves its inputs untouched; every
in-place local step rule and server rule equals the chain of those kernels
bit for bit.

The references are the per-block loops the kernels replaced: one numpy
expression per block, the same arithmetic in the same order.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedlamb.blocks import BlockVector, ew_max, lin_comb, mean, ratio_div, square
from fedlamb.federation import ClientState, ServerState, UploadFold, _LocalRound, mime_vhat_update
from fedlamb.models import NumericOverflowError
from fedlamb.optim import IDENTITY, clipped, lamb_step

from helpers import block_norms

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
SCALAR = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
SIZES = st.lists(st.integers(1, 40), min_size=1, max_size=6)


@st.composite
def vectors(draw, count):
    """`count` vectors sharing one random layout (1-6 blocks of 1-40 floats)."""
    sizes = draw(SIZES)
    names = [f"blk{i}" for i in range(len(sizes))]
    x = BlockVector.of(zip(names, (draw(st.lists(FINITE, min_size=s, max_size=s)) for s in sizes)))
    out = [x]
    for _ in range(count - 1):
        values = draw(st.lists(FINITE, min_size=x.dim, max_size=x.dim))
        out.append(BlockVector(x.layout, np.array(values, dtype=np.float64)))
    return out


def equal_blocks(got, want):
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def check(kernel, xs, want):
    """Run `kernel` on `xs`, then check bits, layout object and inputs."""
    before = [x.data.copy() for x in xs]
    out = kernel()
    assert out.layout is xs[0].layout
    assert equal_blocks(out.blocks, want)
    assert all(np.array_equal(x.data, b) for x, b in zip(xs, before))


@SETTINGS
@given(vectors(2), SCALAR, SCALAR)
def test_lin_comb(xs, a, b):
    x, y = xs
    check(lambda: lin_comb(a, x, b, y), xs, [a * u + b * w for u, w in zip(x.blocks, y.blocks)])


@SETTINGS
@given(vectors(2), st.sampled_from([1e-8, 1e-4, 1.0]))
def test_ratio_div(xs, floor):
    m, v = xs
    want = [p / np.sqrt(np.maximum(q, floor)) for p, q in zip(m.blocks, v.blocks)]
    check(lambda: ratio_div(m, v, floor), xs, want)


@SETTINGS
@given(vectors(1))
def test_square(xs):
    (x,) = xs
    check(lambda: square(x), xs, [b * b for b in x.blocks])


@SETTINGS
@given(vectors(2))
def test_ew_max(xs):
    a, b = xs
    check(lambda: ew_max(a, b), xs, [np.maximum(p, q) for p, q in zip(a.blocks, b.blocks)])


@SETTINGS
@given(st.integers(1, 5).flatmap(vectors))
def test_mean(xs):
    acc = list(xs[0].blocks)
    for x in xs[1:]:
        acc = [1.0 * p + 1.0 * q for p, q in zip(acc, x.blocks)]
    want = [(1.0 / len(xs)) * p + 0.0 * p for p in acc]
    check(lambda: mean(xs), xs, want)


@SETTINGS
@given(st.integers(1, 8).flatmap(lambda k: vectors(3 * k + 1)), st.data(), st.booleans(), st.booleans())
def test_upload_fold_is_the_ascending_id_mean(xs, data, gate, delta):
    """Uploads from 1-8 sampled ids, arriving in any order and grouping, fold
    to blocks.mean of each payload's list in ascending id, bit for bit; the
    model as its lin_comb(1, x, -1, base) delta when the fold has a base."""
    base, xs = xs[0], xs[1:]
    k = len(xs) // 3
    ids = sorted(data.draw(st.lists(st.integers(0, 30), min_size=k, max_size=k, unique=True)))
    uploads = [SimpleNamespace(client_id=i, params=xs[j], v=xs[k + j], full_grad=xs[2 * k + j])
               for j, i in enumerate(ids)]
    arrival = data.draw(st.permutations(uploads))
    cuts = [0, *sorted(data.draw(st.sets(st.integers(1, k)))), k]
    fields = ("params", "v", "full_grad") if gate else ("params",)
    fold = UploadFold(ids[::-1], fields, base.layout, base if delta else None)
    for lo, hi in zip(cuts, cuts[1:]):
        group = arrival[lo:hi]
        fold.add([u.client_id for u in group],
                 {name: np.array([getattr(u, name).data for u in group]) for name in ("params", "v", "full_grad")})
    got = fold.mean()
    models = [lin_comb(1.0, u.params, -1.0, base) if delta else u.params for u in uploads]
    want = {"params": mean(models)}
    if gate:
        want.update(v=mean([u.v for u in uploads]), full_grad=mean([u.full_grad for u in uploads]))
    assert {name: x.data.tobytes() for name, x in got.items()} == {name: x.data.tobytes() for name, x in want.items()}
    assert all(x.layout is base.layout for x in got.values())


@SETTINGS
@given(vectors(1))
def test_block_norms(xs):
    (x,) = xs
    before = x.data.copy()
    got = block_norms(x)
    assert np.array_equal(got, [np.linalg.norm(b) for b in x.blocks])
    assert np.array_equal(x.data, before)


def reference_lamb(theta_blocks, psi_blocks, alpha, lam, phi):
    out = []
    for theta, p in zip(theta_blocks, psi_blocks):
        u = p + lam * theta
        u_norm = float(np.linalg.norm(u))
        t_norm = float(np.linalg.norm(theta))
        if u_norm == 0.0:
            out.append(theta)
        elif t_norm == 0.0:
            out.append(theta - alpha * u)
        else:
            out.append(theta - (alpha * phi(t_norm) / u_norm) * u)
    return out


PHIS = st.sampled_from([IDENTITY, clipped(0.5, 2.0), clipped(1e-3, 1e-2), clipped(1e3, 1e4)])


@SETTINGS
@given(vectors(2), st.data(), st.floats(1e-4, 1.0), st.sampled_from([0.0, 0.01, 0.1]), PHIS)
def test_lamb_step(xs, data, alpha, lam, phi):
    """In place on copies: blocks with |theta| = 0 and with |u| = 0 included,
    phi clipped or not; returns the norms the coefficients came from."""
    theta, psi = xs
    n = len(theta.blocks)
    zero_theta = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    zero_u = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    t_blocks = [np.zeros_like(t) if z else t for t, z in zip(theta.blocks, zero_theta)]
    p_blocks = [-(lam * t) if z else p for t, p, z in zip(t_blocks, psi.blocks, zero_u)]
    theta = BlockVector(theta.layout, np.concatenate(t_blocks))
    psi = BlockVector(theta.layout, np.concatenate(p_blocks))
    want = reference_lamb(theta.blocks, psi.blocks, alpha, lam, phi)
    got = theta.data.copy()
    t_norms, u_norms = lamb_step(got, psi.data.copy(), alpha, lam, phi, layout=theta.layout, tmp=np.empty(theta.dim))
    assert equal_blocks(BlockVector(theta.layout, got).blocks, want)
    assert t_norms.tolist() == [[np.linalg.norm(t)] for t in theta.blocks]
    assert u_norms.tolist() == [[np.linalg.norm(p + lam * t)] for t, p in zip(theta.blocks, psi.blocks)]


@SETTINGS
@given(vectors(2), st.data(), st.floats(1e-4, 1.0), PHIS)
def test_lamb_step_without_decay_keeps_the_decay_formula_bytes(xs, data, alpha, phi):
    """At lam = 0 the step skips lam*theta: with +0.0 and -0.0 planted in theta
    and psi, theta' and the norms are those of the step on u = psi + 0*theta,
    byte for byte, though u's zeros may differ in sign."""
    theta, psi = (x.data.copy() for x in xs)
    for x in (theta, psi):
        planted = data.draw(st.lists(st.sampled_from([None, 0.0, -0.0]), min_size=x.size, max_size=x.size))
        for i, z in enumerate(planted):
            if z is not None:
                x[i] = z
    layout, tmp = xs[0].layout, np.empty(theta.size)
    want = theta.copy()
    want_norms = lamb_step(want, psi + theta * 0.0, alpha, 0.0, phi, layout=layout, tmp=tmp)
    got = theta.copy()
    assert np.array_equal(lamb_step(got, psi.copy(), alpha, 0.0, phi, layout=layout, tmp=tmp), want_norms)
    assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@SETTINGS
@given(st.integers(2, 4).flatmap(lambda k: vectors(2 * k)), st.data(), st.floats(1e-4, 1.0),
       st.sampled_from([0.0, 0.1]), PHIS)
def test_lamb_step_on_a_stack_is_each_rows_own_step(xs, data, alpha, lam, phi):
    """A (K, p) stack steps, row by row, to the bytes and norms of K one-row
    calls, with blocks of |theta| = 0 and of |u| = 0 planted in every row,
    and warns of no division by zero."""
    layout, k = xs[0].layout, len(xs) // 2
    theta, psi = np.array([x.data for x in xs[:k]]), np.array([x.data for x in xs[k:]])
    for t, p in zip(theta, psi):
        for s in layout.slices:
            if data.draw(st.booleans()):
                t[s] = 0.0
            if data.draw(st.booleans()):
                p[s] = -(lam * t[s])
    got = theta.copy()
    t_norms, u_norms = lamb_step(got, psi.copy(), alpha, lam, phi, layout=layout, tmp=np.empty_like(got))
    assert t_norms.shape == u_norms.shape == (len(layout.slices), k)
    for j, (row, p) in enumerate(zip(theta, psi)):
        t_row, u_row = lamb_step(row, p.copy(), alpha, lam, phi, layout=layout, tmp=np.empty(row.size))
        assert got[j].tobytes() == row.tobytes()
        assert t_norms[:, j].tobytes() == t_row[:, 0].tobytes()
        assert u_norms[:, j].tobytes() == u_row[:, 0].tobytes()


def kernel_chain(rule, s, g, cfg, lr):
    """One step of `rule` as the pure kernels compute it, on the block vectors in `s`."""
    if rule in ("sgd", "momentum_sgd"):
        if rule == "momentum_sgd":
            s["m"] = lin_comb(cfg.momentum, s["m"], 1.0, g)
        s["theta"] = lin_comb(1.0, s["theta"], -lr, s["m"] if rule == "momentum_sgd" else g)
        return
    s["m"] = lin_comb(cfg.beta1, s["m"], 1.0 - cfg.beta1, g)
    if s["v"] is not None:
        s["v"] = lin_comb(cfg.beta2, s["v"], 1.0 - cfg.beta2, square(g))
    if rule == "amsgrad":
        if s["v"] is not None:
            s["vhat"] = ew_max(s["vhat"], s["v"])
        s["theta"] = lin_comb(1.0, s["theta"], -lr, ratio_div(s["m"], s["vhat"], cfg.eps))
    else:
        psi = ratio_div(s["m"], s["vhat"], cfg.eps)
        new = reference_lamb(s["theta"].blocks, psi.blocks, lr, cfg.lam, cfg.phi)
        s["theta"] = BlockVector(g.layout, np.concatenate(new))


@pytest.mark.parametrize("rule,track_v", [
    ("sgd", False), ("momentum_sgd", False), ("amsgrad", False), ("amsgrad", True),
    ("lamb", False), ("lamb", True),
])
@settings(SETTINGS, max_examples=40)
@given(st.integers(3, 8).flatmap(vectors), st.data(), st.floats(1e-4, 1.0),
       st.sampled_from([0.0, 0.01, 0.1]), PHIS, st.sampled_from([1e-8, 1e-4]))
def test_local_rule_matches_kernel_chain(rule, track_v, xs, data, lr, lam, phi, eps):
    """Over several steps, a local rule on its in-place buffers gives the same
    bits as the kernel chain, row by row of a two-client group whose v-hats
    differ, and the broadcast vectors it started from stay as they were. Zero
    blocks in theta, m and the gradients make |theta| = 0 and |u| = 0 blocks,
    and v-hat coordinates below the eps floor."""
    n = len(xs[0].blocks)
    zero = [data.draw(st.lists(st.booleans(), min_size=n, max_size=n)) for _ in xs]

    def masked(x, mask):
        return BlockVector(x.layout, np.concatenate(
            [np.zeros_like(b) if z else b for b, z in zip(x.blocks, mask)]))

    theta, m, *grads = (masked(x, z) for x, z in zip(xs, zero))
    # zero blocks sit below eps
    vhats = [BlockVector(theta.layout, np.abs(x.data)) for x in (grads[0], theta)]
    cfg = SimpleNamespace(beta1=0.9, beta2=0.999, lam=lam, eps=eps, phi=phi, momentum=0.9)
    group = [ClientState(i, m, vhat) for i, vhat in enumerate(vhats)]
    s = _LocalRound(cfg, lr, theta, group, rule, track_v, {})
    wants = [dict(theta=theta, m=m, v=vhat if track_v else None, vhat=vhat) for vhat in vhats]
    inputs = [x.data.tobytes() for x in (theta, m, *vhats)]
    rule_fn = getattr(_LocalRound, rule)
    for g in grads:
        rule_fn(s, np.stack([g.data, g.data]))
        for k, want in enumerate(wants):
            kernel_chain(rule, want, g, cfg, lr)
            assert np.array_equal(s.theta[k], want["theta"].data)
    for k, want in enumerate(wants):
        if rule in ("amsgrad", "lamb"):
            assert np.array_equal(s.m[k], want["m"].data)
            assert np.array_equal(s.denom[k], np.sqrt(np.maximum(want["vhat"].data, eps)))
            assert track_v == (s.v is not None) and (not track_v or np.array_equal(s.v[k], want["v"].data))
        if rule == "momentum_sgd":
            assert np.array_equal(s.m[k], want["m"].data)
    assert [x.data.tobytes() for x in (theta, m, *vhats)] == inputs


UNIT = st.floats(0.0, 1.0, exclude_max=True)
MOMENT = st.floats(1e-12, 1e2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@SETTINGS
@given(vectors(4), st.data(), UNIT, UNIT, st.floats(1e-6, 10.0))
def test_server_rules_match_kernel_chain(xs, data, beta1, beta2, eta):
    """The server rules on their in-place buffers give the bits of the kernel
    chain they stand for: adam's moments and theta + eta*m/sqrt(v), and mime's
    decayed v and its cap by v-hat, as fresh vectors in the input's layout. v
    spans 1e-12 to 1e2, below and above any eps floor; where the chain's
    theta is not finite (0/0 at beta2 = 0) adam raises instead."""
    theta, m, d, g = xs
    v, vhat = (BlockVector(theta.layout, np.array(data.draw(st.lists(MOMENT, min_size=theta.dim, max_size=theta.dim))))
               for _ in range(2))
    want_m, want_v = lin_comb(beta1, m, 1.0 - beta1, d), lin_comb(beta2, v, 1.0 - beta2, square(d))
    want = lin_comb(1.0, theta, eta, BlockVector(theta.layout, want_m.data / np.sqrt(want_v.data)))
    server = ServerState(theta, m=m.data.copy(), v=v.data.copy())
    step = lambda: server.adam({"params": d}, SimpleNamespace(eta_global=eta, beta1=beta1, beta2=beta2, eps=1e-8))
    if np.isfinite(want.data).all():
        step()
        assert server.params.data.tobytes() == want.data.tobytes() and server.params.layout is theta.layout
    else:
        with pytest.raises(NumericOverflowError, match="server adam step"):
            step()
    assert server.m.tobytes() == want_m.data.tobytes() and server.v.tobytes() == want_v.data.tobytes()

    mime_v = v.data.copy()
    got = mime_vhat_update(mime_v, vhat, g, beta2)
    want_v = lin_comb(beta2, v, 1.0 - beta2, square(g))
    assert mime_v.tobytes() == want_v.data.tobytes()
    assert got.data.tobytes() == ew_max(vhat, want_v).data.tobytes() and got.layout is vhat.layout
