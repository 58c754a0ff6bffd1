"""Round-structured federated protocol engine.

Implements six protocols over a shared round skeleton:

  fed-sgd    local SGD (optional momentum), server averages models
  adp-fed    local SGD, server runs an Adam step on the averaged deltas
  fed-ams    local AMSGrad with per-client capping, server max-aggregates v
  fed-lamb   local layer-wise adaptive steps, server max-aggregates v
  mime       local dimension-wise adaptive steps, server tracks v from
             full-data gradients at the global model
  mime-lamb  layer-wise variant of mime

Determinism contract: every emitted number is a pure function of
(config, seed); client RNG streams are keyed, client work is independent,
and reductions run in ascending client-id order regardless of worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import blocks
from .blocks import BlockVector, FlatStat, LayeredParams, lin_comb, ew_max, ratio_div, square
from .data import ClientShard, Dataset, minibatch_stream
# forward_loss is not called here, but perfbench's tracer reports the metric
# pass only when it finds all three model passes under federation's names.
from .models import ModelSpec, NumericOverflowError, backward, evaluate, forward_loss, full_gradient, init_params
from .optim import IDENTITY, Hyper, ScalingFn, amsgrad_step, lamb_step, milestone_lr, sgd_step

PROTOCOLS = ("fed-sgd", "adp-fed", "fed-ams", "fed-lamb", "mime", "mime-lamb")
ADAPTIVE = frozenset({"fed-ams", "fed-lamb", "mime", "mime-lamb"})
LAMB_PROTOCOLS = frozenset({"fed-lamb", "mime-lamb"})
MIME_PROTOCOLS = frozenset({"mime", "mime-lamb"})

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
    workers: int = 1
    lazy_gating: bool = True          # False = ungated reference path
    track_displacement: bool = False

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ProtocolError(f"unknown protocol {self.protocol!r}")
        if not 0 < self.participation <= 1:
            raise ValueError("participation must be in (0, 1]")
        if self.lazy_period < 1:
            raise ValueError("lazy_period must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.protocol == "adp-fed" and (
            self.eta_local is None or self.eta_global is None
        ):
            raise ValueError("adp-fed needs eta_local and eta_global")

    @property
    def n(self) -> int:
        return len(self.shards)


@dataclass
class ServerState:
    params: LayeredParams
    vhat: FlatStat | None = None     # adaptive protocols
    m: FlatStat | None = None        # adp-fed server Adam
    v: FlatStat | None = None        # adp-fed server Adam / mime moment
    round_index: int = 0


@dataclass
class ClientState:
    client_id: int
    shard: ClientShard
    m: FlatStat | None = None            # carried first moment
    momentum_buf: FlatStat | None = None  # fed-sgd momentum
    vhat: FlatStat | None = None          # last received global v-hat


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
    params: LayeredParams
    v: FlatStat | None = None
    full_grad: FlatStat | None = None
    grad_evals: int = 0
    displacements: list = field(default_factory=list)


def init_run(cfg: RunConfig) -> tuple[ServerState, list[ClientState]]:
    """Common initialization: shared model init, v-hat = eps everywhere. Clients
    hold only the buffers their protocol reads, shared: block vectors are read-only."""
    params = init_params(cfg.spec, cfg.seed)
    eps = cfg.hyper.eps
    zeros = blocks.zeros_like(params)
    server = ServerState(params=params)
    if cfg.protocol in ADAPTIVE:
        server.vhat = blocks.full_like(params, eps)
        if cfg.protocol in MIME_PROTOCOLS:
            server.v = zeros
    elif cfg.protocol == "adp-fed":
        server.m = zeros
        server.v = blocks.full_like(params, eps)
    m = zeros if cfg.protocol in ADAPTIVE else None
    buf = zeros if cfg.protocol == "fed-sgd" else None
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
    theta_bar: LayeredParams,
    vhat: FlatStat | None,
    cfg: RunConfig,
    r: int,
    alpha_r: float,
) -> LocalResult:
    """One client's local training for round r.

    Resets the local model to the broadcast global model (and, on adaptive
    paths, the local second moment to the broadcast v-hat), runs T local
    epochs of mini-batch steps, and returns exactly the payloads the
    protocol uploads. The carried first moment is updated in place.
    """
    proto = cfg.protocol
    h = cfg.hyper
    spec = cfg.spec
    T = cfg.local_epochs
    result = LocalResult(client_id=client.client_id, params=theta_bar)

    params = theta_bar
    m = client.m
    v = vhat          # line "v0 = v-hat" on adaptive paths
    vhat_cap = vhat   # fed-ams per-client capped moment
    buf = client.momentum_buf
    lr = alpha_r  # run_round derives it from eta_local on the adp-fed path

    if proto in MIME_PROTOCOLS:
        shard_data = client.shard.view(cfg.train)
        _, result.full_grad = full_gradient(spec, theta_bar, shard_data)
        result.grad_evals += shard_data.n

    step = 0
    for e in range(T):
        epoch_id = (r - 1) * T + e
        for batch in minibatch_stream(cfg.train, client.shard, cfg.batch_size, epoch_id, cfg.seed):
            step += 1
            try:
                g = backward(spec, params, batch)
            except NumericOverflowError as exc:
                raise NumericOverflowError(
                    f"client {client.client_id}, local step {step}: {exc}"
                ) from exc
            result.grad_evals += len(batch)

            if proto == "fed-sgd":
                params, buf = sgd_step(params, g, lr, buf, cfg.momentum)
            elif proto == "adp-fed":
                params, _ = sgd_step(params, g, lr)
            elif proto in LAMB_PROTOCOLS:
                m = lin_comb(h.beta1, m, 1.0 - h.beta1, g)
                if proto == "fed-lamb":
                    v = lin_comb(h.beta2, v, 1.0 - h.beta2, square(g))
                psi = ratio_div(m, vhat, h.eps)  # v-hat frozen for the round
                before = params
                params = lamb_step(params, psi, alpha_r, h.lam, cfg.phi)
                if cfg.track_displacement:
                    _record_displacement(result, before, params, psi, alpha_r, h.lam, cfg.phi)
            elif proto == "mime":
                m = lin_comb(h.beta1, m, 1.0 - h.beta1, g)
                params = amsgrad_step(params, m, vhat, alpha_r, h.eps)
            elif proto == "fed-ams":
                m = lin_comb(h.beta1, m, 1.0 - h.beta1, g)
                v = lin_comb(h.beta2, v, 1.0 - h.beta2, square(g))
                vhat_cap = ew_max(vhat_cap, v)
                params = amsgrad_step(params, m, vhat_cap, alpha_r, h.eps)

    client.m = m
    client.momentum_buf = buf
    result.params = params
    if proto in ("fed-lamb", "fed-ams"):
        result.v = v
    return result


def _record_displacement(result, before, after, psi, alpha, lam, phi):
    """Per-block (actual displacement, alpha*phi(|theta|), fallback flag)."""
    for theta, new, p in zip(before.blocks, after.blocks, psi.blocks):
        u = p + lam * theta
        u_norm = float(np.linalg.norm(u))
        t_norm = float(np.linalg.norm(theta))
        fallback = u_norm == 0.0 or t_norm == 0.0
        disp = float(np.linalg.norm(new - theta))
        result.displacements.append((disp, alpha * phi(t_norm), fallback))


def aggregate_params(received: list[LayeredParams]) -> LayeredParams:
    """Unweighted coordinatewise mean, summed in received (ascending id) order."""
    if not received:
        raise ProtocolError("no client models to aggregate")
    return blocks.mean(received)


def aggregate_vhat_fedlamb(vhat_prev: FlatStat, received_v: list[FlatStat]) -> FlatStat:
    """v-hat' = max(v-hat, mean of received local second moments)."""
    if not received_v:
        raise ProtocolError("no client moments to aggregate")
    return ew_max(vhat_prev, blocks.mean(received_v))


def mime_vhat_update(
    v_prev: FlatStat, vhat_prev: FlatStat, full_grads: list[FlatStat], beta2: float
) -> tuple[FlatStat, FlatStat]:
    """Server-side moment update from full-data gradients at the global model:
    mean, decayed square accumulation, coordinatewise cap."""
    if not full_grads:
        raise ProtocolError("no full gradients received")
    gbar = blocks.mean(full_grads)
    v = lin_comb(beta2, v_prev, 1.0 - beta2, square(gbar))
    return v, ew_max(vhat_prev, v)


def adp_fed_server_update(
    server: ServerState, deltas: list[FlatStat], eta_g: float, beta1: float, beta2: float
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
    update = BlockVector(
        server.m.names,
        tuple(m / np.sqrt(v) for m, v in zip(server.m.blocks, server.v.blocks)),
    )
    server.params = lin_comb(1.0, server.params, eta_g, update)


def comm_account(protocol: str, p: int, participants: int, r: int, Z: int) -> CommEntry:
    """Closed-form float counts for one round.

    Uplink per participant: one tensor (model or delta) for fed-sgd and
    adp-fed; model plus moment for fed-ams/fed-lamb; model plus full
    gradient for the mime variants. Downlink per participant: the global
    model, plus v-hat on synchronization rounds for adaptive protocols.
    """
    if protocol not in PROTOCOLS:
        raise ProtocolError(f"unknown protocol {protocol!r}")
    up_moment = p * participants if protocol in ("fed-ams", "fed-lamb") else 0
    up_grad = p * participants if protocol in MIME_PROTOCOLS else 0
    down_moment = 0
    if protocol in ADAPTIVE and lazy_sync_gate(r, Z):
        down_moment = p * participants
    return CommEntry(
        round=r,
        uplink_model=p * participants,
        uplink_moment=up_moment,
        uplink_gradient=up_grad,
        downlink_model=p * participants,
        downlink_moment=down_moment,
    )


def run_round(
    server: ServerState,
    clients: list[ClientState],
    cfg: RunConfig,
    client_params_out: list | None = None,
    displacement_out: list | None = None,
) -> tuple[RoundMetrics, CommEntry]:
    """One full round: sample, broadcast, local training, aggregate, account.

    Local rounds for distinct clients may run on a thread pool; results are
    reduced in ascending client-id order so the trajectory is independent
    of the worker count.
    """
    t0 = time.perf_counter()
    r = server.round_index + 1
    proto = cfg.protocol
    try:
        ids = sample_clients(cfg.n, cfg.participation, r, cfg.seed)
        gate = (not cfg.lazy_gating) or lazy_sync_gate(r, cfg.lazy_period)

        if proto in ADAPTIVE and gate:
            for i in ids:
                clients[i].vhat = server.vhat

        alpha_r = milestone_lr(
            cfg.eta_local if proto == "adp-fed" else cfg.hyper.alpha,
            r,
            cfg.milestones,
            cfg.lr_factor,
        )
        theta_prev = server.params

        def work(i: int) -> LocalResult:
            return local_round(clients[i], theta_prev, clients[i].vhat, cfg, r, alpha_r)

        if cfg.workers > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                results = list(pool.map(work, ids))
        else:
            results = [work(i) for i in ids]
        results.sort(key=lambda res: res.client_id)

        if client_params_out is not None:
            client_params_out.append([res.params for res in results])
        if displacement_out is not None:
            for res in results:
                displacement_out.extend(res.displacements)

        if proto == "adp-fed":
            deltas = [lin_comb(1.0, res.params, -1.0, theta_prev) for res in results]
            adp_fed_server_update(
                server, deltas, cfg.eta_global, cfg.hyper.beta1, cfg.hyper.beta2
            )
        else:
            server.params = aggregate_params([res.params for res in results])
            if proto in ("fed-lamb", "fed-ams") and gate:
                server.vhat = aggregate_vhat_fedlamb(
                    server.vhat, [res.v for res in results]
                )
            elif proto in MIME_PROTOCOLS and gate:
                server.v, server.vhat = mime_vhat_update(
                    server.v, server.vhat, [res.full_grad for res in results], cfg.hyper.beta2
                )
        server.round_index = r
    except Exception as exc:
        raise _round_error(exc, r) from exc

    comm = comm_account(proto, server.params.dim, len(ids), r, cfg.lazy_period)
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
