"""Round-structured federated protocol engine. Each protocol is one record in
TABLE, read by initialization, local training, aggregation and the ledger
alike. Its rules are named; they look up the public helpers in this module's
namespace when they run, so wrapping those names (tracing) changes nothing.

Determinism contract: every emitted number is a pure function of
(config, seed); client RNG streams are keyed, client work is independent,
and reductions run in ascending client-id order whatever order the local
rounds ran in.

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
# ratio_div and forward_loss are not called here, but perfbench's tracer reports
# blocks.ratio_div and the metric pass only when it finds them under federation's names.
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
    uplink: tuple[str, ...] = ()  # payloads besides the model: "moment", "gradient"
    vhat: bool = False            # keeps a v-hat, broadcast on sync rounds


TABLE = {
    "fed-sgd": Protocol("momentum_sgd", "average"),
    "adp-fed": Protocol("sgd", "adam"),
    "fed-ams": Protocol("amsgrad", "max_mean_v", ("moment",), vhat=True),
    "fed-lamb": Protocol("lamb", "max_mean_v", ("moment",), vhat=True),
    "mime": Protocol("amsgrad", "full_grad_v", ("gradient",), vhat=True),
    "mime-lamb": Protocol("lamb", "full_grad_v", ("gradient",), vhat=True),
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
    rules; each folds one round's local results (ascending client id) in."""

    params: BlockVector
    vhat: BlockVector | None = None  # adaptive protocols
    m: BlockVector | None = None     # adp-fed server Adam
    v: BlockVector | None = None     # adp-fed server Adam / mime moment
    round_index: int = 0

    def average(self, results: list[LocalResult], cfg: RunConfig, gate: bool) -> None:
        self.params = aggregate_params([res.params for res in results])

    def adam(self, results: list[LocalResult], cfg: RunConfig, gate: bool) -> None:
        deltas = [lin_comb(1.0, res.params, -1.0, self.params) for res in results]
        adp_fed_server_update(self, deltas, cfg.eta_global, cfg.beta1, cfg.beta2)

    def max_mean_v(self, results: list[LocalResult], cfg: RunConfig, gate: bool) -> None:
        self.average(results, cfg, gate)
        if gate:
            self.vhat = aggregate_vhat_fedlamb(self.vhat, [res.v for res in results])

    def full_grad_v(self, results: list[LocalResult], cfg: RunConfig, gate: bool) -> None:
        self.average(results, cfg, gate)
        if gate:
            grads = [res.full_grad for res in results]
            self.v, self.vhat = mime_vhat_update(self.v, self.vhat, grads, cfg.beta2)


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


@dataclass
class LocalResult:
    client_id: int
    params: BlockVector
    v: BlockVector | None = None
    full_grad: BlockVector | None = None
    grad_evals: int = 0


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
        server.v = zeros
    elif proto.server == "adam":
        server.m, server.v = zeros, blocks.full_like(params, cfg.eps)
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
) -> list[LocalResult]:
    """One lockstep group's local training for round r: T epochs of the
    protocol's local step rule from the broadcast model, each client against
    its own v-hat, all clients stepping at once. The group's shards have one
    size. Returns, per client, exactly the payloads the protocol uploads;
    carried buffers stay on the clients. `denoms` holds each v-hat's
    denominator by id for the round's groups to share."""
    proto = TABLE[cfg.protocol]
    T, b = cfg.local_epochs, cfg.batch_size
    idx = np.stack([cfg.shards[c.client_id].indices for c in group])  # (K, n) sample positions
    n = idx.shape[1]
    uploads_grad = "gradient" in proto.uplink  # charged as one more pass over the shard
    results = [LocalResult(c.client_id, theta_bar, grad_evals=(T + uploads_grad) * n) for c in group]
    s = _LocalRound(cfg, alpha_r, theta_bar, group, "moment" in proto.uplink, denoms)
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

    for k, (client, res) in enumerate(zip(group, results)):
        if s.m is not None:  # copied out of a shared stack, or an unsampled client would keep it alive
            client.m = BlockVector(s.layout, s.m[k].copy() if len(group) > 1 else s.m[k])
        res.params = BlockVector(s.layout, s.theta[k])
        if s.v is not None:
            res.v = BlockVector(s.layout, s.v[k])
        if upload is not None:
            res.full_grad = BlockVector(s.layout, upload[k])
    return results


class _LocalRound:
    """One lockstep group's local round in progress; its methods are the local
    step rules. It owns mutable (K, p) buffers, one row per client, copied once
    from the broadcast read-only vectors and updated in place by every step;
    local_round hands out their rows at round end."""

    def __init__(self, cfg, lr, theta_bar, group: list[ClientState], track_v: bool, denoms: dict):
        self.cfg, self.lr, self.layout = cfg, lr, theta_bar.layout

        def rows(vectors):  # np.array copies a little faster than np.stack
            return None if vectors[0] is None else np.array([x.data for x in vectors])

        # the model, carried first moment, local second moment (v0 = v-hat) if uploaded
        self.theta = rows([theta_bar] * len(group))
        self.m = rows([c.m for c in group])
        self.v = rows([c.vhat for c in group]) if track_v else None
        # sqrt(max(v-hat, eps)), the scale the adaptive steps divide by, computed
        # read-only once per v-hat into `denoms` by id (clients hold theirs all round);
        # a group that shares one divides by a (1, p) row, fed-ams raises its own copy
        self.denom = None
        if group[0].vhat is not None:
            for c in group:
                if id(c.vhat) not in denoms:
                    d = denoms[id(c.vhat)] = denominator(c.vhat.data, cfg.eps, out=np.empty(theta_bar.dim))
                    d.flags.writeable = False
            ds = [denoms[id(c.vhat)] for c in group]
            self.denom = ds[0][None] if not track_v and all(d is ds[0] for d in ds) else np.array(ds)
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


def aggregate_params(received: list[BlockVector]) -> BlockVector:
    """Unweighted coordinatewise mean, summed in received (ascending id) order."""
    if not received:
        raise ProtocolError("no client models to aggregate")
    return blocks.mean(received)


def aggregate_vhat_fedlamb(vhat_prev: BlockVector, received_v: list[BlockVector]) -> BlockVector:
    """v-hat' = max(v-hat, mean of received local second moments)."""
    if not received_v:
        raise ProtocolError("no client moments to aggregate")
    return ew_max(vhat_prev, blocks.mean(received_v))


def mime_vhat_update(
    v_prev: BlockVector, vhat_prev: BlockVector, full_grads: list[BlockVector], beta2: float
) -> tuple[BlockVector, BlockVector]:
    """Server-side moment update from full-data gradients at the global model:
    mean, decayed square accumulation, coordinatewise cap."""
    if not full_grads:
        raise ProtocolError("no full gradients received")
    gbar = blocks.mean(full_grads)
    v = lin_comb(beta2, v_prev, 1.0 - beta2, square(gbar))
    return v, ew_max(vhat_prev, v)


def adp_fed_server_update(
    server: ServerState, deltas: list[BlockVector], eta_g: float, beta1: float, beta2: float
) -> None:
    """Server Adam step on the averaged model deltas.

    theta' = theta + eta_g * m / sqrt(v): the plus sign is correct because
    each delta accumulates negative local gradient steps. No floor is
    applied beyond v's positive initialization.
    """
    if not deltas:
        raise ProtocolError("no client deltas received")
    dbar = blocks.mean(deltas)
    server.m = lin_comb(beta1, server.m, 1.0 - beta1, dbar)
    server.v = lin_comb(beta2, server.v, 1.0 - beta2, square(dbar))
    update = BlockVector(server.m.layout, server.m.data / np.sqrt(server.v.data))
    server.params = lin_comb(1.0, server.params, eta_g, update)


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
        uplink_moment=tensors if "moment" in proto.uplink else 0,
        uplink_gradient=tensors if "gradient" in proto.uplink else 0,
        downlink_model=tensors,
        downlink_moment=tensors if proto.vhat and lazy_sync_gate(r, Z) else 0,
    )


def run_round(
    server: ServerState,
    clients: list[ClientState],
    cfg: RunConfig,
) -> tuple[RoundMetrics, CommEntry]:
    """One full round: sample, broadcast, local training, aggregate, account.
    Local results are reduced in ascending client-id order."""
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
        results, denoms = [], {}
        for group in _lockstep_groups(ids, cfg.shards, server.params.dim):
            results += local_round([clients[i] for i in group], server.params, cfg, r, alpha_r, denoms)
        results.sort(key=lambda res: res.client_id)
        getattr(server, proto.server)(results, cfg, gate)
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
        grad_evals=sum(res.grad_evals for res in results),
        wall_time=time.perf_counter() - t0,
    )
    return metrics, comm
