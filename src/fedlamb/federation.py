"""Round-structured federated protocol engine. Each protocol is one record in
TABLE, read by initialization, local training, aggregation and the ledger
alike. Its rules are named; they look up the public helpers in this module's
namespace when they run, so wrapping those names (tracing) changes nothing.

Determinism contract: every emitted number is a pure function of
(config, seed); client RNG streams are keyed, client work is independent,
and reductions run in ascending client-id order whatever order the local
rounds ran in.
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
from .models import ModelSpec, NumericOverflowError, backward, evaluate, forward_loss, full_gradient, init_params
from .optim import (
    IDENTITY, Hyper, ScalingFn, amsgrad_step, check_ranges, denominator, lamb_step, milestone_lr,
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
ADAPTIVE = frozenset(name for name, proto in TABLE.items() if proto.vhat)

_SAMPLE_TAG = 0x5E1


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
class RunConfig:
    protocol: str
    spec: ModelSpec
    train: Dataset
    test: Dataset
    shards: list[ClientShard]
    hyper: Hyper
    eta_global: float = 0.0   # the adam server rule's rate
    local_epochs: int = 1
    batch_size: int = 64
    participation: float = 1.0
    seed: int = 0
    lazy_period: int = 1
    milestones: tuple[int, ...] = ()
    lr_factor: float = 0.1
    phi: ScalingFn = IDENTITY
    momentum: float = 0.0

    # (key, rule, test) over the fields named as in the config file, whose
    # parser checks the file's values with this same list
    RULES = (
        ("protocol", f"must be one of {', '.join(TABLE)}", lambda c: c.protocol in TABLE),
        ("participation", "must be in (0, 1]", lambda c: 0 < c.participation <= 1),
        ("lazy_period", "must be >= 1", lambda c: c.lazy_period >= 1),
        ("local_epochs", "must be >= 1", lambda c: c.local_epochs >= 1),
        ("batch_size", "must be >= 1", lambda c: c.batch_size >= 1),
        ("seed", "must be >= 0", lambda c: c.seed >= 0),
        ("lr_factor", "must be > 0", lambda c: c.lr_factor > 0),
        ("momentum", "must be in [0, 1)", lambda c: 0 <= c.momentum < 1),
        ("eta_global", "must be > 0 for the adam server rule",
         lambda c: TABLE[c.protocol].server != "adam" or c.eta_global > 0),
    )

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
        adp_fed_server_update(self, deltas, cfg.eta_global, cfg.hyper.beta1, cfg.hyper.beta2)

    def max_mean_v(self, results: list[LocalResult], cfg: RunConfig, gate: bool) -> None:
        self.average(results, cfg, gate)
        if gate:
            self.vhat = aggregate_vhat_fedlamb(self.vhat, [res.v for res in results])

    def full_grad_v(self, results: list[LocalResult], cfg: RunConfig, gate: bool) -> None:
        self.average(results, cfg, gate)
        if gate:
            grads = [res.full_grad for res in results]
            self.v, self.vhat = mime_vhat_update(self.v, self.vhat, grads, cfg.hyper.beta2)


@dataclass
class ClientState:
    client_id: int
    shard: ClientShard
    m: BlockVector | None = None             # carried first moment
    momentum_buf: BlockVector | None = None  # fed-sgd momentum
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
        server.vhat = blocks.full_like(params, cfg.hyper.eps)
    if proto.server == "full_grad_v":
        server.v = zeros
    elif proto.server == "adam":
        server.m, server.v = zeros, blocks.full_like(params, cfg.hyper.eps)
    m = zeros if proto.vhat else None
    buf = zeros if proto.local == "momentum_sgd" else None
    clients = [ClientState(s.client_id, s, m, buf, server.vhat) for s in cfg.shards]
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


def local_round(
    client: ClientState,
    theta_bar: BlockVector,
    vhat: BlockVector | None,
    cfg: RunConfig,
    r: int,
    alpha_r: float,
) -> LocalResult:
    """One client's local training for round r: T epochs of the protocol's
    local step rule from the broadcast model and v-hat. Returns exactly the
    payloads the protocol uploads; carried buffers stay on the client."""
    proto = TABLE[cfg.protocol]
    T = cfg.local_epochs
    result = LocalResult(client_id=client.client_id, params=theta_bar)
    if "gradient" in proto.uplink:
        shard_data = client.shard.view(cfg.train)
        _, result.full_grad = full_gradient(cfg.spec, theta_bar, shard_data)
        result.grad_evals += shard_data.n

    v0 = vhat if "moment" in proto.uplink else None  # line "v0 = v-hat"
    s = _LocalRound(cfg, alpha_r, theta_bar, client.m, v0, vhat, client.momentum_buf)
    rule = getattr(_LocalRound, proto.local)
    step = 0
    for e in range(T):
        epoch_id = (r - 1) * T + e
        for batch in minibatch_stream(cfg.train, client.shard, cfg.batch_size, epoch_id, cfg.seed):
            step += 1
            try:
                g = backward(cfg.spec, s.view, batch)
            except NumericOverflowError as exc:
                raise NumericOverflowError(
                    f"client {client.client_id}, local step {step}: {exc}"
                ) from exc
            result.grad_evals += batch.n
            rule(s, g.data)

    client.m, client.momentum_buf, result.params, result.v = (
        None if a is None else BlockVector(s.layout, a) for a in (s.m, s.buf, s.theta, s.v))
    return result


class _LocalRound:
    """One client's local round in progress; its methods are the local step
    rules. It owns mutable flat buffers, copied once from the broadcast
    read-only vectors and updated in place by every step; local_round freezes
    them into block vectors at round end. `view` is the read-only block vector
    over theta that backward reads within a step."""

    def __init__(self, cfg, lr, theta_bar, m, v, vhat, buf):
        self.cfg, self.lr, self.layout = cfg, lr, theta_bar.layout
        # the model, carried first moment, local second moment if uploaded, momentum buffer
        self.theta, self.m, self.v, self.buf = (None if x is None else x.data.copy() for x in (theta_bar, m, v, buf))
        self.view = BlockVector(self.layout, self.theta.view())
        # v-hat, copied where the client tracks v and may raise it, and the
        # sqrt(max(v-hat, eps)) the adaptive steps divide by
        self.vhat = None if vhat is None else vhat.data.copy() if v is not None else vhat.data
        self.denom = None if vhat is None else denominator(self.vhat, cfg.hyper.eps, out=np.empty_like(self.theta))
        self.tmp, self.psi = np.empty_like(self.theta), np.empty_like(self.theta)

    def sgd(self, g: np.ndarray) -> None:
        sgd_step(self.theta, g, self.lr, tmp=self.tmp)

    def momentum_sgd(self, g: np.ndarray) -> None:
        sgd_step(self.theta, g, self.lr, self.buf, self.cfg.momentum, tmp=self.tmp)

    def amsgrad(self, g: np.ndarray) -> None:
        """Dimension-wise step. A client that tracks its own v steps against
        the running cap max(v-hat, v) (fed-ams); otherwise against v-hat (mime)."""
        h = self.cfg.hyper
        moment_update(self.m, self.v, g, h.beta1, h.beta2, tmp=self.tmp)
        if self.v is not None:
            np.maximum(self.vhat, self.v, out=self.vhat)
            denominator(self.vhat, h.eps, out=self.denom)
        amsgrad_step(self.theta, self.m, self.denom, self.lr, tmp=self.tmp)

    def lamb(self, g: np.ndarray) -> None:
        """Layer-wise trust-ratio step against v-hat, frozen for the round."""
        h = self.cfg.hyper
        moment_update(self.m, self.v, g, h.beta1, h.beta2, tmp=self.tmp)
        np.divide(self.m, self.denom, out=self.psi)
        lamb_step(self.theta, self.psi, self.lr, h.lam, self.cfg.phi, layout=self.layout, tmp=self.tmp)


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

        alpha_r = milestone_lr(cfg.hyper.alpha, r, cfg.milestones, cfg.lr_factor)
        results = [local_round(clients[i], server.params, clients[i].vhat, cfg, r, alpha_r) for i in ids]
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
