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
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .blocks import BlockVector, block_norms, lin_comb, ew_max, ratio_div, square
from .data import ClientShard, Dataset, minibatch_stream
# forward_loss is not called here, but perfbench's tracer reports the metric
# pass only when it finds all three model passes under federation's names.
from .models import ModelSpec, NumericOverflowError, backward, evaluate, forward_loss, full_gradient, init_params
from .optim import IDENTITY, Hyper, ScalingFn, amsgrad_step, lamb_step, milestone_lr, sgd_step


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
    eta_local: float | None = None    # adp-fed only
    eta_global: float | None = None   # adp-fed only
    local_epochs: int = 1
    batch_size: int = 64
    participation: float = 1.0
    seed: int = 0
    lazy_period: int = 1
    milestones: tuple[int, ...] = ()
    lr_factor: float = 0.1
    phi: ScalingFn = IDENTITY
    momentum: float = 0.0
    lazy_gating: bool = True          # False = ungated reference path
    track_displacement: bool = False

    def __post_init__(self):
        if self.protocol not in TABLE:
            raise ProtocolError(f"unknown protocol {self.protocol!r}")
        if not 0 < self.participation <= 1:
            raise ValueError("participation must be in (0, 1]")
        if self.lazy_period < 1:
            raise ValueError("lazy_period must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if TABLE[self.protocol].server == "adam" and (
            self.eta_local is None or self.eta_global is None
        ):
            raise ValueError(f"{self.protocol} needs eta_local and eta_global")

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
    displacements: list = field(default_factory=list)


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
    s = _LocalRound(cfg, alpha_r, theta_bar, client.m, v0, vhat, client.momentum_buf, result.displacements)
    rule = getattr(_LocalRound, proto.local)
    step = 0
    for e in range(T):
        epoch_id = (r - 1) * T + e
        for batch in minibatch_stream(cfg.train, client.shard, cfg.batch_size, epoch_id, cfg.seed):
            step += 1
            try:
                g = backward(cfg.spec, s.params, batch)
            except NumericOverflowError as exc:
                raise NumericOverflowError(
                    f"client {client.client_id}, local step {step}: {exc}"
                ) from exc
            result.grad_evals += len(batch)
            rule(s, g)

    client.m, client.momentum_buf = s.m, s.buf
    result.params, result.v = s.params, s.v
    return result


@dataclass
class _LocalRound:
    """One client's local round in progress; its methods are the local step rules."""

    cfg: RunConfig
    lr: float
    params: BlockVector
    m: BlockVector | None     # carried first moment (adaptive rules)
    v: BlockVector | None     # local second moment, tracked only when uploaded
    vhat: BlockVector | None  # v-hat the adaptive rules divide by
    buf: BlockVector | None   # momentum buffer (momentum_sgd)
    displacements: list

    def sgd(self, g: BlockVector) -> None:
        self.params, _ = sgd_step(self.params, g, self.lr)

    def momentum_sgd(self, g: BlockVector) -> None:
        self.params, self.buf = sgd_step(self.params, g, self.lr, self.buf, self.cfg.momentum)

    def amsgrad(self, g: BlockVector) -> None:
        """Dimension-wise step. A client that tracks its own v steps against
        the running cap max(v-hat, v) (fed-ams); otherwise against v-hat (mime)."""
        self._moments(g)
        if self.v is not None:
            self.vhat = ew_max(self.vhat, self.v)
        self.params = amsgrad_step(self.params, self.m, self.vhat, self.lr, self.cfg.hyper.eps)

    def lamb(self, g: BlockVector) -> None:
        """Layer-wise trust-ratio step against v-hat, frozen for the round. With
        track_displacement, records per block (actual displacement,
        alpha*phi(|theta|), fallback flag)."""
        h, phi = self.cfg.hyper, self.cfg.phi
        self._moments(g)
        psi = ratio_div(self.m, self.vhat, h.eps)
        before, self.params = self.params, lamb_step(self.params, psi, self.lr, h.lam, phi)
        if self.cfg.track_displacement:
            t_norms = block_norms(before)
            u_norms = block_norms(BlockVector(before.layout, psi.data + h.lam * before.data))
            disp = block_norms(BlockVector(before.layout, self.params.data - before.data))
            for d, t_norm, u_norm in zip(disp.tolist(), t_norms.tolist(), u_norms.tolist()):
                self.displacements.append((d, self.lr * phi(t_norm), u_norm == 0.0 or t_norm == 0.0))

    def _moments(self, g: BlockVector) -> None:
        h = self.cfg.hyper
        self.m = lin_comb(h.beta1, self.m, 1.0 - h.beta1, g)
        if self.v is not None:
            self.v = lin_comb(h.beta2, self.v, 1.0 - h.beta2, square(g))


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
    client_params_out: list | None = None,
    displacement_out: list | None = None,
) -> tuple[RoundMetrics, CommEntry]:
    """One full round: sample, broadcast, local training, aggregate, account.
    Local results are reduced in ascending client-id order."""
    t0 = time.perf_counter()
    r = server.round_index + 1
    proto = TABLE[cfg.protocol]
    try:
        ids = sample_clients(cfg.n, cfg.participation, r, cfg.seed)
        gate = (not cfg.lazy_gating) or lazy_sync_gate(r, cfg.lazy_period)

        if proto.vhat and gate:
            for i in ids:
                clients[i].vhat = server.vhat

        # the server-Adam protocol (adp-fed) steps locally at eta_local
        alpha0 = cfg.eta_local if proto.server == "adam" else cfg.hyper.alpha
        alpha_r = milestone_lr(alpha0, r, cfg.milestones, cfg.lr_factor)
        results = [local_round(clients[i], server.params, clients[i].vhat, cfg, r, alpha_r) for i in ids]
        results.sort(key=lambda res: res.client_id)

        if client_params_out is not None:
            client_params_out.append([res.params for res in results])
        if displacement_out is not None:
            for res in results:
                displacement_out.extend(res.displacements)

        getattr(server, proto.server)(results, cfg, gate)
        server.round_index = r
    except Exception as exc:
        raise _round_error(exc, r) from exc

    comm = comm_account(cfg.protocol, server.params.dim, len(ids), r, cfg.lazy_period)
    train_loss, grad = full_gradient(cfg.spec, server.params, cfg.train)
    test_acc, _ = evaluate(cfg.spec, server.params, cfg.test)
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
