"""Deterministic simulator for layer-wise adaptive federated optimization."""

from .blocks import (
    BlockVector,
    CongruenceError,
    block_norms,
    ew_max,
    lin_comb,
    ratio_div,
)
from .data import ClientShard, Dataset, gen_blobs, load_csv, minibatch_stream, partition_iid, partition_label_shards
from .federation import (
    ADAPTIVE,
    PROTOCOLS,
    ClientState,
    CommEntry,
    RoundMetrics,
    RunConfig,
    ServerState,
    comm_account,
    init_run,
    lazy_sync_gate,
    run_round,
    sample_clients,
)
from .models import Batch, ModelSpec, backward, evaluate, forward_loss, full_gradient, init_params
from .optim import Hyper, ScalingFn, amsgrad_step, clipped, lamb_step, milestone_lr, moment_update, sgd_step

__version__ = "0.1.0"
