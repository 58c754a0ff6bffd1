"""Round-structured federated protocol engine. Each protocol is one record in
TABLE, read by initialization, local training, aggregation and the ledger
alike. Its rules are named; they look up the public helpers in this module's
namespace when they run, so wrapping those names (tracing) changes nothing.

Determinism contract: every emitted number is a pure function of
(config, seed); client RNG streams are keyed, client work is independent,
and each upload is folded into the server's running sums in ascending
client-id order whatever order the local rounds ran in.

Sampled clients with equal shard sizes (so equal minibatch schedules) train
in lockstep groups whose buffers are rows of (K, p) arrays; each row's
arithmetic is a lone client's, so the grouping changes no bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import blocks
from .blocks import BlockVector, lin_comb, ew_max, ratio_div, square
from .data import ClientShard, Dataset, minibatch_stream
# lin_comb, square, ratio_div and forward_loss are not called here, but perfbench's tracer reports
# those kernels and the metric pass only when it finds them under federation's names.
from .models import (
    ModelSpec, NumericOverflowError, Stack, backward, evaluate, forward_loss, full_gradient, init_params,
)
from .optim import (
    IDENTITY, ScalingFn, amsgrad_step, check_ranges, denominator, lamb_step, milestone_lr,
    moment_update, sgd_step,
)


@dataclass(frozen=True)
class Protocol:
    """A protocol as the rules it composes and the payloads it uploads."""

    local: str                    # local step rule: a method of _LocalRound
    server: str                   # server rule: a method of ServerState
    uplink: tuple[str, ...] = ()  # payloads besides the model: "v", "full_grad"
    vhat: bool = False            # keeps a v-hat, broadcast on sync rounds
    delta: bool = False           # the server averages each model's change from theta_bar


TABLE = {
    "fed-sgd": Protocol("momentum_sgd", "average"),
    "adp-fed": Protocol("sgd", "adam", delta=True),
    "fed-ams": Protocol("amsgrad", "max_mean_v", ("v",), vhat=True),
    "fed-lamb": Protocol("lamb", "max_mean_v", ("v",), vhat=True),
    "mime": Protocol("amsgrad", "full_grad_v", ("full_grad",), vhat=True),
    "mime-lamb": Protocol("lamb", "full_grad_v", ("full_grad",), vhat=True),
}
PROTOCOLS = tuple(TABLE)

_SAMPLE_TAG = 0x5E1
# Floats one (K, p) buffer of a lockstep group may hold: groups are cut to
# max(1, _STACK_FLOATS // p) clients (512 KiB per buffer).
_STACK_FLOATS = 1 << 16


class ProtocolError(ValueError):
    """A protocol-level contract was violated (empty round, bad state)."""


class RoundError(Exception):
    """Mixed into an error run_round re-raises with its round number. It is an
    instance of the original's type too, has the original as `__cause__`, and
    skips that type's constructor, which may not take a single message."""

    def __init__(self, message: str):
        Exception.__init__(self, message)

    def __str__(self) -> str:
        return self.args[0]


def _round_error(exc: Exception, r: int) -> RoundError:
    cls = type(exc)
    return type(cls.__name__, (RoundError, cls), {"__module__": cls.__module__})(f"round {r}: {exc}")


@dataclass
class RunSettings:
    """The run settings the config file and the engine share, each declared
    once with its default and its range rule, under its config-file key."""

    protocol: str = ""
    alpha: float = 0.01       # the local rate of every protocol
    eta_global: float = 0.0   # the adam server rule's rate
    beta1: float = 0.9
    beta2: float = 0.999
    lam: float = 0.0
    eps: float = 1e-8
    local_epochs: int = 1
    batch_size: int = 64
    participation: float = 1.0
    seed: int = 0
    lazy_period: int = 1
    milestones: tuple[int, ...] = ()
    lr_factor: float = 0.1
    momentum: float = 0.0

    # (key, rule, test); RunConfig applies them when built, and the config
    # parser to the file's values
    RULES = (
        ("protocol", f"must be one of {', '.join(TABLE)}", lambda c: c.protocol in TABLE),
        ("participation", "must be in (0, 1]", lambda c: 0 < c.participation <= 1),
        ("lazy_period", "must be >= 1", lambda c: c.lazy_period >= 1),
        ("local_epochs", "must be >= 1", lambda c: c.local_epochs >= 1),
        ("batch_size", "must be >= 1", lambda c: c.batch_size >= 1),
        ("seed", "must be >= 0", lambda c: c.seed >= 0),
        ("milestones", "must be strictly increasing",
         lambda c: all(a < b for a, b in zip(c.milestones, c.milestones[1:]))),
        ("lr_factor", "must be > 0", lambda c: c.lr_factor > 0),
        ("momentum", "must be in [0, 1)", lambda c: 0 <= c.momentum < 1),
        ("eta_global", "must be > 0 for the adam server rule",
         lambda c: TABLE[c.protocol].server != "adam" or c.eta_global > 0),
        ("alpha", "must be positive", lambda c: c.alpha > 0),
        ("beta1", "must be in [0, 1)", lambda c: 0 <= c.beta1 < 1),
        ("beta2", "must be in [0, 1)", lambda c: 0 <= c.beta2 < 1),
        ("lam", "must be in [0, 1]", lambda c: 0 <= c.lam <= 1),
        ("eps", "must be positive", lambda c: c.eps > 0),
    )


@dataclass(kw_only=True)
class RunConfig(RunSettings):
    spec: ModelSpec
    train: Dataset
    test: Dataset
    shards: list[ClientShard]
    phi: ScalingFn = IDENTITY

    def __post_init__(self):
        check_ranges(self, self.RULES)

    @property
    def n(self) -> int:
        return len(self.shards)


@dataclass
class ServerState:
    """The global model and server statistics. Its methods are the server
    rules; each takes the round's mean uploads by payload name (see
    `UploadFold`): "params" always, the protocol's uplink on sync rounds.
    They replace `params` and `vhat` with fresh read-only vectors, since
    clients keep what they were sent, and update `m` and `v` in place."""

    params: BlockVector
    vhat: BlockVector | None = None  # adaptive protocols
    m: np.ndarray | None = None      # adp-fed server Adam
    v: np.ndarray | None = None      # adp-fed server Adam / mime moment
    round_index: int = 0

    def average(self, mean: dict[str, BlockVector], cfg: RunConfig) -> None:
        self.params = mean["params"]

    def adam(self, mean: dict[str, BlockVector], cfg: RunConfig) -> None:
        """Server Adam on the mean model delta (folded from theta_bar, `Protocol.delta`):
        theta' = theta + eta_g * m / sqrt(v), the adaptive step at rate -eta_g, whose
        plus sign is correct because each delta accumulates negative local gradient
        steps. No floor is applied beyond v's positive initialization."""
        theta, tmp = self.params.data.copy(), np.empty(self.params.dim)
        moment_update(self.m, self.v, mean["params"].data, cfg.beta1, cfg.beta2, tmp=tmp)
        amsgrad_step(theta, self.m, np.sqrt(self.v), -cfg.eta_global, tmp=tmp)
        if not np.isfinite(theta).all():  # e.g. 0/0 where a coordinate's deltas and v are all 0
            names, slices = self.params.names, self.params.layout.slices
            block = next(n for n, s in zip(names, slices) if not np.isfinite(theta[s]).all())
            raise NumericOverflowError(f"server adam step: non-finite parameters at block {block!r}")
        self.params = BlockVector(self.params.layout, theta)

    def max_mean_v(self, mean: dict[str, BlockVector], cfg: RunConfig) -> None:
        self.average(mean, cfg)
        if "v" in mean:
            self.vhat = aggregate_vhat_fedlamb(self.vhat, mean["v"])

    def full_grad_v(self, mean: dict[str, BlockVector], cfg: RunConfig) -> None:
        self.average(mean, cfg)
        if "full_grad" in mean:
            self.vhat = mime_vhat_update(self.v, self.vhat, mean["full_grad"], cfg.beta2)


@dataclass
class ClientState:
    client_id: int                           # position of its shard in cfg.shards
    m: BlockVector | None = None             # carried first moment (fed-sgd's momentum)
    vhat: BlockVector | None = None          # last received global v-hat


@dataclass(frozen=True)
class CommEntry:
    """Exact per-round float counts, split by payload."""

    round: int
    uplink_model: int
    uplink_moment: int
    uplink_gradient: int
    downlink_model: int
    downlink_moment: int

    @property
    def uplink_total(self) -> int:
        return self.uplink_model + self.uplink_moment + self.uplink_gradient

    @property
    def downlink_total(self) -> int:
        return self.downlink_model + self.downlink_moment


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    train_loss: float
    test_accuracy: float
    grad_norm_sq: float
    uplink_floats: int
    downlink_floats: int
    grad_evals: int
    wall_time: float


def init_run(cfg: RunConfig) -> tuple[ServerState, list[ClientState]]:
    """Common initialization: shared model init, v-hat = eps everywhere. Clients
    hold only the buffers their protocol reads, shared: block vectors are read-only."""
    proto = TABLE[cfg.protocol]
    params = init_params(cfg.spec, cfg.seed)
    zeros = blocks.zeros_like(params)
    server = ServerState(params=params)
    if proto.vhat:
        server.vhat = blocks.full_like(params, cfg.eps)
    if proto.server == "full_grad_v":
        server.v = np.zeros(params.dim)
    elif proto.server == "adam":
        server.m, server.v = np.zeros(params.dim), np.full(params.dim, cfg.eps)
    m = None if proto.local == "sgd" else zeros
    clients = [ClientState(i, m, server.vhat) for i in range(cfg.n)]
    return server, clients


def sample_clients(n: int, participation: float, r: int, seed: int) -> np.ndarray:
    """Uniform subset of size max(1, round(participation*n)), keyed by
    (seed, r); returned in ascending order."""
    if n < 1:
        raise ValueError("need at least one client")
    size = max(1, int(round(participation * n)))
    rng = np.random.default_rng([_SAMPLE_TAG, seed, r])
    return np.sort(rng.choice(n, size=size, replace=False))


def lazy_sync_gate(r: int, Z: int) -> bool:
    """True iff round r is a v-hat synchronization round."""
    if Z < 1:
        raise ValueError("lazy period must be >= 1")
    return r % Z == 0


def _lockstep_groups(ids, shards: list[ClientShard], p: int) -> list[list[int]]:
    """The sampled ids, in their order, split by shard size (which fixes the
    minibatch schedule) and cut so that a group's (K, p) buffer holds at most
    `_STACK_FLOATS` floats."""
    by_size, cap = {}, max(1, _STACK_FLOATS // p)
    for i in ids:
        by_size.setdefault(len(shards[i]), []).append(i)
    return [same[lo : lo + cap] for same in by_size.values() for lo in range(0, len(same), cap)]


def local_round(
    group: list[ClientState],
    theta_bar: BlockVector,
    cfg: RunConfig,
    r: int,
    alpha_r: float,
    denoms: dict,
) -> dict[str, np.ndarray]:
    """One lockstep group's local training for round r: T epochs of the
    protocol's local step rule from the broadcast model, each client against
    its own v-hat, all clients stepping at once. The group's shards have one
    size. Returns its uploads ("params" and the protocol's uplink) as (K, p)
    buffers, one row per client; carried buffers stay on the clients. `denoms`
    holds each v-hat's denominator by id for the round's groups to share."""
    proto = TABLE[cfg.protocol]
    T, b = cfg.local_epochs, cfg.batch_size
    idx = np.stack([cfg.shards[c.client_id].indices for c in group])  # (K, n) sample positions
    n = idx.shape[1]
    uploads_grad = "full_grad" in proto.uplink
    s = _LocalRound(cfg, alpha_r, theta_bar, group, proto.local, "v" in proto.uplink, denoms)
    stack = Stack(cfg.spec, s.layout, s.theta)

    def grad(rows: np.ndarray, what: str) -> np.ndarray:  # one stacked pass, into stack.grad
        try:
            return backward(cfg.spec, stack, cfg.train.take(rows))
        except NumericOverflowError as exc:
            first = min(group[k].client_id for k in exc.rows)
            raise NumericOverflowError(f"client {first}, {what}: {exc}") from exc

    # the upload: a pass over the shards at theta_bar, which step 1 is when one batch covers them
    upload = grad(idx, "full-shard gradient").copy() if uploads_grad and b < n else None
    rule = getattr(_LocalRound, proto.local)
    step = 0
    for e in range(T):
        order = minibatch_stream(idx, (r - 1) * T + e, cfg.seed, b)
        for lo in range(0, n, b):
            step += 1
            g = grad(order[:, lo : lo + b], f"local step {step}")
            if uploads_grad and upload is None:  # copied before the rule overwrites g
                upload = g.copy()
            rule(s, g)

    if s.m is not None:  # copied out of a shared stack, or an unsampled client would keep it alive
        for k, client in enumerate(group):
            client.m = BlockVector(s.layout, s.m[k].copy() if len(group) > 1 else s.m[k])
    payloads = {"params": s.theta, "v": s.v, "full_grad": upload}
    return {name: payloads[name] for name in ("params", *proto.uplink)}


class _LocalRound:
    """One lockstep group's local round in progress; its methods are the local
    step rules. It owns mutable (K, p) buffers, one row per client, copied once
    from the broadcast read-only vectors and updated in place by every step;
    local_round hands them out by payload name at round end."""

    def __init__(self, cfg, lr, theta_bar, group: list[ClientState], rule: str, track_v: bool, denoms: dict):
        self.cfg, self.lr, self.layout = cfg, lr, theta_bar.layout

        def rows(vectors):  # np.array copies a little faster than np.stack
            return None if vectors[0] is None else np.array([x.data for x in vectors])

        # the model, carried first moment, local second moment (v0 = v-hat) if uploaded
        self.theta = rows([theta_bar] * len(group))
        self.m = rows([c.m for c in group])
        self.v = rows([c.vhat for c in group]) if track_v else None
        # sqrt(max(v-hat, eps)), the scale the adaptive steps divide by, computed
        # read-only once per v-hat into `denoms` by id (clients hold theirs all round);
        # a group that shares one divides by a (1, p) row, unless amsgrad raises its copies to v
        self.denom = None
        if group[0].vhat is not None:
            for c in group:
                if id(c.vhat) not in denoms:
                    d = denoms[id(c.vhat)] = denominator(c.vhat.data, cfg.eps, out=np.empty(theta_bar.dim))
                    d.flags.writeable = False
            ds = [denoms[id(c.vhat)] for c in group]
            shared = all(d is ds[0] for d in ds) and not (track_v and rule == "amsgrad")
            self.denom = ds[0][None] if shared else np.array(ds)
        self.tmp = np.empty_like(self.theta)

    def sgd(self, g: np.ndarray) -> None:
        sgd_step(self.theta, g, self.lr, tmp=self.tmp)

    def momentum_sgd(self, g: np.ndarray) -> None:
        sgd_step(self.theta, g, self.lr, self.m, self.cfg.momentum, tmp=self.tmp)

    def amsgrad(self, g: np.ndarray) -> None:
        """Dimension-wise step. A client that tracks its own v steps against
        the running cap max(v-hat, v) (fed-ams), kept as its denominator:
        sqrt is monotone, so max(sqrt(max(a, eps)), sqrt(max(b, eps))) is
        sqrt(max(max(a, b), eps)) bit for bit. Otherwise it steps against
        v-hat (mime)."""
        c = self.cfg
        moment_update(self.m, self.v, g, c.beta1, c.beta2, tmp=self.tmp)
        if self.v is not None:
            np.maximum(self.denom, denominator(self.v, c.eps, out=self.tmp), out=self.denom)
        amsgrad_step(self.theta, self.m, self.denom, self.lr, tmp=self.tmp)

    def lamb(self, g: np.ndarray) -> None:
        """Layer-wise trust-ratio step against v-hat, frozen for the round;
        psi = m / sqrt(max(v-hat, eps)) overwrites the spent gradient."""
        c = self.cfg
        moment_update(self.m, self.v, g, c.beta1, c.beta2, tmp=self.tmp)
        psi = np.divide(self.m, self.denom, out=g)
        lamb_step(self.theta, psi, self.lr, c.lam, c.phi, layout=self.layout, tmp=self.tmp)


class UploadFold:
    """A round's uploads, folded as their lockstep groups finish into one
    running sum per payload named in `fields`, in ascending sampled-id order,
    with `blocks.mean`'s operations (copy the first, add the rest in place,
    scale by 1/n), so each mean is its mean of the ascending-id list, bit for
    bit. A client's row that arrives before a lower sampled id waits in
    `held`. The model ("params") is folded as its delta x - base when a base
    is given (lin_comb(1.0, x, -1.0, base) bit for bit: IEEE subtraction adds
    the negation)."""

    def __init__(self, ids, fields: tuple[str, ...], layout, base: BlockVector | None = None):
        self.pending = sorted(map(int, ids), reverse=True)  # ids still to fold; the next is last
        self.fields, self.layout, self.base, self.held, self.sums, self.n = fields, layout, base, {}, {}, 0

    def add(self, group_ids, rows: dict[str, np.ndarray]) -> None:
        """Folds what it can of one group's (K, p) rows, row k group_ids[k]'s; the rest wait for lower ids."""
        for k, i in enumerate(group_ids):
            self.held[int(i)] = [rows[name][k] for name in self.fields]
        while self.pending and self.pending[-1] in self.held:
            for name, x in zip(self.fields, self.held.pop(self.pending.pop())):
                if name == "params" and self.base is not None:
                    x = x - self.base.data
                if name in self.sums:
                    self.sums[name] += x
                else:
                    self.sums[name] = x.copy()
            self.n += 1

    def mean(self) -> dict[str, BlockVector]:
        """The mean of every folded payload, once every sampled id is folded.
        The fold hands its sums over and keeps no vector afterwards."""
        if not self.n:
            raise ProtocolError("no client uploads to aggregate")
        if self.pending:
            raise ProtocolError(f"no upload from sampled client {self.pending[-1]}")
        sums, self.sums, self.base = self.sums, {}, None
        for acc in sums.values():
            acc *= 1.0 / self.n
        return {name: BlockVector(self.layout, acc) for name, acc in sums.items()}


def aggregate_vhat_fedlamb(vhat_prev: BlockVector, vbar: BlockVector) -> BlockVector:
    """v-hat' = max(v-hat, mean of the received local second moments)."""
    return ew_max(vhat_prev, vbar)


def mime_vhat_update(v: np.ndarray, vhat_prev: BlockVector, gbar: BlockVector, beta2: float) -> BlockVector:
    """Server-side moment update from the mean of the full-data gradients at the
    global model: decayed square accumulation into the server's v, in place, and
    the coordinatewise cap max(v-hat, v) as a fresh vector."""
    out = np.empty_like(v)  # the recursion's scratch, then the cap
    moment_update(None, v, gbar.data, 0.0, beta2, tmp=out)
    return BlockVector(vhat_prev.layout, np.maximum(vhat_prev.data, v, out=out))


def comm_account(protocol: str, p: int, participants: int, r: int, Z: int) -> CommEntry:
    """Closed-form float counts for one round. Per participant: the model
    each way, each of the protocol's uplink payloads up, and v-hat down on
    synchronization rounds if the protocol keeps one."""
    if protocol not in TABLE:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    proto = TABLE[protocol]
    tensors = p * participants
    return CommEntry(
        round=r,
        uplink_model=tensors,
        uplink_moment=tensors if "v" in proto.uplink else 0,
        uplink_gradient=tensors if "full_grad" in proto.uplink else 0,
        downlink_model=tensors,
        downlink_moment=tensors if proto.vhat and lazy_sync_gate(r, Z) else 0,
    )


def run_round(
    server: ServerState,
    clients: list[ClientState],
    cfg: RunConfig,
) -> tuple[RoundMetrics, CommEntry]:
    """One full round: sample, broadcast, local training, aggregate, account.
    Each group's uploads are folded into the server's running sums as the
    group finishes (`UploadFold`), so the round holds one sum per payload,
    not one vector per participant."""
    t0 = time.perf_counter()
    r = server.round_index + 1
    proto = TABLE[cfg.protocol]
    try:
        ids = sample_clients(cfg.n, cfg.participation, r, cfg.seed)
        gate = lazy_sync_gate(r, cfg.lazy_period)

        if proto.vhat and gate:
            for i in ids:
                clients[i].vhat = server.vhat

        alpha_r = milestone_lr(cfg.alpha, r, cfg.milestones, cfg.lr_factor)
        fields = ("params", *proto.uplink) if gate else ("params",)
        fold, denoms = UploadFold(ids, fields, server.params.layout, server.params if proto.delta else None), {}
        for group in _lockstep_groups(ids, cfg.shards, server.params.dim):
            fold.add(group, local_round([clients[i] for i in group], server.params, cfg, r, alpha_r, denoms))
        getattr(server, proto.server)(fold.mean(), cfg)
        server.round_index = r

        comm = comm_account(cfg.protocol, server.params.dim, len(ids), r, cfg.lazy_period)
        train_loss, grad = full_gradient(cfg.spec, server.params, cfg.train)
        test_acc, _ = evaluate(cfg.spec, server.params, cfg.test)
    except Exception as exc:
        raise _round_error(exc, r) from exc

    metrics = RoundMetrics(
        round=r,
        train_loss=train_loss,
        test_accuracy=test_acc,
        grad_norm_sq=blocks.norm_sq(grad),
        uplink_floats=comm.uplink_total,
        downlink_floats=comm.downlink_total,
        # T epochs over each sampled shard, and Mime's upload as one more pass
        grad_evals=(cfg.local_epochs + ("full_grad" in proto.uplink)) * sum(len(cfg.shards[i]) for i in ids),
        wall_time=time.perf_counter() - t0,
    )
    return metrics, comm
