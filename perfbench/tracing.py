"""Span tracing for the traced benchmark run, installed from outside the program.

Every public function named in PATCHES is replaced, in the namespace of the
module that calls it, by a wrapper that records a span (name, start, end,
parent) in memory. Federation imports its kernels and model passes by name,
so the wrapper goes into `federation`'s namespace (and `optim`'s, `blocks'`
and `runner`'s for the calls those modules make), not into the defining
module alone. Spans are reduced to per-layer metrics when the run ends.

A function that a later change renamed or removed is skipped, and every
metric built from it is reported as absent instead of failing the run.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module holding the name the caller looks up, attribute, span name).
# The span name is the layer and the public function.
PATCHES = (
    # federation: the round and its phases
    ("federation", "run_round", "federation.run_round"),
    ("federation", "local_round", "federation.local_round"),
    ("federation", "sample_clients", "federation.sample_clients"),
    ("federation", "aggregate_params", "federation.aggregate_params"),
    ("federation", "aggregate_vhat_fedlamb", "federation.aggregate_vhat_fedlamb"),
    ("federation", "mime_vhat_update", "federation.mime_vhat_update"),
    ("federation", "comm_account", "federation.comm_account"),
    ("federation", "init_run", "federation.init_run"),
    # models, as federation calls them
    ("federation", "backward", "models.backward"),
    ("federation", "full_gradient", "models.full_gradient"),
    ("federation", "forward_loss", "models.forward_loss"),
    ("federation", "evaluate", "models.evaluate"),
    # optim, as federation calls it
    ("federation", "lamb_step", "optim.lamb_step"),
    ("federation", "amsgrad_step", "optim.amsgrad_step"),
    ("federation", "sgd_step", "optim.sgd_step"),
    # blocks kernels, wherever another module calls them
    ("federation", "lin_comb", "blocks.lin_comb"),
    ("federation", "ratio_div", "blocks.ratio_div"),
    ("federation", "square", "blocks.square"),
    ("federation", "ew_max", "blocks.ew_max"),
    ("optim", "lin_comb", "blocks.lin_comb"),
    ("optim", "ratio_div", "blocks.ratio_div"),
    ("optim", "square", "blocks.square"),
    ("blocks", "lin_comb", "blocks.lin_comb"),
    ("blocks", "mean", "blocks.mean"),
    ("blocks", "norm_sq", "blocks.norm_sq"),
    # data, as federation and runner call it
    ("federation", "minibatch_stream", "data.minibatch_stream"),
    ("data", "ClientShard.view", "data.shard_view"),
    ("runner", "gen_blobs", "data.gen_blobs"),
    ("runner", "load_csv", "data.load_csv"),
    ("runner", "partition_iid", "data.partition_iid"),
    ("runner", "partition_label_shards", "data.partition_label_shards"),
    # runner
    ("runner", "build_run_config", "runner.build_run_config"),
)

# Metrics that sum the inclusive time of several spans.
GROUPS = {
    "federation.aggregate.ms": ("federation.aggregate_params",
                                "federation.aggregate_vhat_fedlamb",
                                "federation.mime_vhat_update"),
    "optim.step.ms": ("optim.lamb_step", "optim.amsgrad_step", "optim.sgd_step"),
    "data.client_data.ms": ("data.minibatch_stream", "data.shard_view"),
    "data.source.ms": ("data.gen_blobs", "data.load_csv"),
    "data.partition.ms": ("data.partition_iid", "data.partition_label_shards"),
    "runner.setup.ms": ("runner.build_run_config", "federation.init_run"),
}
# Model passes that run_round makes itself, outside local_round.
METRIC_PASS = ("models.full_gradient", "models.forward_loss", "models.evaluate")


class Tracer:
    """In-memory span recorder. `enabled` is switched off around warm-up."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.enabled = True
        self.constructed = 0
        self.absent = set()
        self.detail = {}  # span name -> (inclusive ms, calls), set by summary()

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self, modules):
        """Patch every PATCHES entry that exists; remember the missing ones."""
        for mod_name, attr, span in PATCHES:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not callable(getattr(owner, leaf, None)):
                self.absent.add(span)
                continue
            setattr(owner, leaf, self.wrap(span, getattr(owner, leaf)))
        bv = getattr(modules["blocks"], "BlockVector", None)
        post_init = getattr(bv, "__post_init__", None)
        if post_init is None:
            self.absent.add("blocks.construct")
            return

        def counted(obj):
            if self.enabled:
                self.constructed += 1
            post_init(obj)

        bv.__post_init__ = counted

    def summary(self) -> dict:
        """Per-layer metrics: inclusive ms and calls per span name, self ms of
        run_round, the metric-pass split and the construction count."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        incl_ms = defaultdict(float)
        calls = defaultdict(int)
        metric_pass = 0.0
        for name, t0, t1, parent in spans:
            dur = t1 - t0
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += dur
                pname = spans[parent][0]
                if name == pname:
                    continue  # already inside a span of the same name
                if name in METRIC_PASS and pname == "federation.run_round":
                    metric_pass += dur
            incl_ms[name] += dur * 1e3
        round_self = sum(
            (t1 - t0 - child_time[i]) * 1e3
            for i, (name, t0, t1, _) in enumerate(spans)
            if name == "federation.run_round"
        )

        out = {}

        def put(metric, value, *needs):
            if not any(n in self.absent for n in needs):
                out[metric] = value

        for name in ("models.forward_loss", "models.evaluate", "models.full_gradient",
                     "models.backward", "blocks.lin_comb", "blocks.ratio_div",
                     "blocks.square", "blocks.ew_max", "blocks.mean", "optim.lamb_step",
                     "data.minibatch_stream", "federation.local_round",
                     "federation.sample_clients"):
            put(f"{name}.ms", incl_ms[name], name)
        for name in ("models.full_gradient", "models.backward", "blocks.lin_comb",
                     "optim.lamb_step", "federation.local_round"):
            put(f"{name}.calls", calls[name], name)
        # Sums over functions that not every workload calls, so that each
        # reported time is measured on every workload; absent only when all
        # of its functions are.
        for metric, names in GROUPS.items():
            if not all(n in self.absent for n in names):
                out[metric] = sum(incl_ms[n] for n in names)
        put("federation.metric_pass.ms", metric_pass * 1e3,
            "federation.run_round", *METRIC_PASS)
        put("federation.run_round.self_ms", round_self, "federation.run_round")
        put("blocks.construct.count", self.constructed, "blocks.construct")
        self.detail = {name: (incl_ms[name], calls[name]) for name in sorted(calls)}
        return out
