"""End-to-end training loop and inference-time architecture optimization.

Each epoch alternates two phases: supernet updates on training batches over
uniformly sampled cells (skipped for the oracle provider, which has nothing
to train), then policy-gradient ascent on the controller using rewards from
the provider. Inference is a single policy application: encode the input
cell, read the per-edge distributions, pick actions by sampling or argmax,
and apply them. Because only rule-valid transitions carry probability, the
optimized cell never costs more than its input.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import gcnpolicy
from .archgraph import (
    CellGraph,
    EncodingConfig,
    apply_transitions,
    encode,
    sample_uniform,
)
from .evaluator import (
    OracleProvider,
    PlantedOracle,
    SharedWeights,
    SupernetProvider,
    SyntheticDataset,
    init_shared,
    make_dataset,
    make_oracle,
    supernet_train_step,
)
from .gcnpolicy import (
    PolicyParams,
    actions_to_ops,
    argmax_actions,
    forward,
    init_params,
    policy_gradient,
    sample_actions,
    total_entropy,
)
from .opspace import OperationKind, transition_mask


@dataclass(frozen=True)
class TrainConfig:
    mode: str = gcnpolicy.NATPP
    provider: str = "oracle"
    m: int = 1
    n: int = 1
    entropy_weight: float = 0.003
    eta_w: float = 0.05
    eta_theta: float = 0.01
    epochs: int = 200
    iters_w: int = 10
    iters_theta: int = 10
    seed: int = 0
    num_intermediate: int = 4
    hidden_dim: int = 64
    depth: int = 2
    i_max: int = 4
    train_batch: int = 64
    reward_batch: int = 256
    # Optional moving-average reward baseline; off by default.
    use_baseline: bool = False
    baseline_decay: float = 0.9

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if self.entropy_weight < 0:
            raise ValueError("entropy weight must be >= 0")
        if self.eta_w <= 0 or self.eta_theta <= 0:
            raise ValueError("learning rates must be positive")
        if self.provider not in ("oracle", "supernet"):
            raise ValueError(f"unknown provider {self.provider!r}")
        if self.num_intermediate > self.i_max:
            raise ValueError("num_intermediate exceeds i_max")

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class TrainLog:
    """Append-only per-iteration records with a monotone step counter."""

    records: list[dict] = field(default_factory=list)

    def append(self, record: dict) -> None:
        if self.records and record["iter"] <= self.records[-1]["iter"]:
            raise ValueError("log iterations must be strictly increasing")
        self.records.append(record)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r) + "\n" for r in self.records)

    def write(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(self.to_jsonl())
        os.replace(tmp, path)


@dataclass
class TrainResult:
    policy: PolicyParams
    log: TrainLog
    shared: SharedWeights | None = None
    oracle: PlantedOracle | None = None
    dataset: SyntheticDataset | None = None


def run(cfg: TrainConfig) -> TrainResult:
    """Alternating supernet / policy training, fully deterministic under the seed."""
    rng = np.random.default_rng(cfg.seed)
    layout = EncodingConfig(i_max=cfg.i_max)
    policy = init_params(
        cfg.mode,
        layout.feature_dim,
        rng,
        hidden_dim=cfg.hidden_dim,
        depth=cfg.depth,
        i_max=cfg.i_max,
    )

    shared = oracle = dataset = None
    if cfg.provider == "oracle":
        oracle = make_oracle(cfg.seed, num_edges=2 * cfg.num_intermediate)
        provider = OracleProvider(oracle)
    else:
        dataset = make_dataset(cfg.seed)
        shared = init_shared(rng, cfg.num_intermediate)
        x_val, y_val = dataset.val_batch(cfg.reward_batch)
        provider = SupernetProvider(shared, x_val, y_val)

    log = TrainLog()
    step = 0
    baseline = 0.0
    for _epoch in range(cfg.epochs):
        if cfg.provider == "supernet":
            for _ in range(cfg.iters_w):
                graphs = [sample_uniform(cfg.num_intermediate, rng) for _ in range(cfg.m)]
                x, y = dataset.train_batch(rng, cfg.train_batch)
                loss = supernet_train_step(shared, graphs, x, y, cfg.eta_w)
                step += 1
                log.append(
                    {
                        "iter": step,
                        "phase": "w",
                        "loss": loss,
                        "mean_reward": None,
                        "entropy": None,
                    }
                )

        for _ in range(cfg.iters_theta):
            total = None
            rewards = []
            entropies = []
            for _i in range(cfg.m):
                beta = sample_uniform(cfg.num_intermediate, rng)
                enc = encode(beta, layout)
                out = forward(enc, beta.ops(), policy)
                entropies.append(total_entropy(out))
                # Rewrites keep beta's topology, so each reward is
                # score(alpha) - score(beta) with beta scored once.
                base = provider.score(beta)
                for _j in range(cfg.n):
                    actions, _logp = sample_actions(out, rng)
                    alpha = apply_transitions(
                        beta, actions_to_ops(cfg.mode, beta.ops(), actions)
                    )
                    r = provider.score(alpha) - base
                    rewards.append(r)
                    r_eff = r - baseline if cfg.use_baseline else r
                    grads = policy_gradient(out, policy, actions, r_eff, cfg.entropy_weight)
                    if total is None:
                        total = grads
                    else:
                        total.add_(grads)
            total.scale_(1.0 / (cfg.m * cfg.n))
            if not all(np.isfinite(g).all() for g in total.gcn + [total.fc]):
                raise FloatingPointError(f"non-finite policy gradient at iteration {step + 1}")
            gcnpolicy.ascend_(policy, total, cfg.eta_theta)
            mean_reward = float(np.mean(rewards))
            mean_entropy = float(np.mean(entropies))
            if cfg.use_baseline:
                baseline = cfg.baseline_decay * baseline + (1 - cfg.baseline_decay) * mean_reward
            step += 1
            if not math.isfinite(mean_reward):
                raise FloatingPointError(f"non-finite reward at iteration {step}")
            log.append(
                {
                    "iter": step,
                    "phase": "theta",
                    "loss": -(mean_reward + cfg.entropy_weight * mean_entropy),
                    "mean_reward": mean_reward,
                    "entropy": mean_entropy,
                }
            )
    return TrainResult(policy=policy, log=log, shared=shared, oracle=oracle, dataset=dataset)


def infer(
    policy: PolicyParams,
    beta: CellGraph,
    decode: str = "sample",
    rng: np.random.Generator | None = None,
    layout: EncodingConfig | None = None,
) -> CellGraph:
    """Optimize one input cell with a single policy application."""
    if decode not in ("sample", "argmax"):
        raise ValueError(f"decode must be 'sample' or 'argmax', got {decode!r}")
    layout = layout or EncodingConfig(i_max=policy.i_max)
    enc = encode(beta, layout)
    out = forward(enc, beta.ops(), policy)
    if decode == "argmax":
        actions = argmax_actions(out)
    else:
        if rng is None:
            raise ValueError("sampling decode requires an rng")
        actions, _ = sample_actions(out, rng)
    return apply_transitions(beta, actions_to_ops(policy.mode, beta.ops(), actions))


def edge_match_rate(
    policy: PolicyParams,
    oracle: PlantedOracle,
    rng: np.random.Generator,
    num_graphs: int = 50,
    num_intermediate: int = 4,
    decode: str = "argmax",
) -> float:
    """Fraction of edges whose decoded transition hits the planted optimum.

    Argmax decode measures the policy's single best guess; sampling decode
    measures search behavior (the rate at which drawn transitions land on
    the optimum), which is the right comparison against random search.
    """
    matches = 0
    total = 0
    for _ in range(num_graphs):
        beta = sample_uniform(num_intermediate, rng)
        alpha = infer(policy, beta, decode=decode, rng=rng)
        for e, ea in enumerate(alpha.edges):
            if ea.op is oracle.planted_optimum(e):
                matches += 1
            total += 1
    return matches / total


def random_policy_match_rate() -> float:
    """Expected edge-match rate of uniform random valid transitions.

    The planted optimum is always inside the source's mask, so a uniform
    choice among valid targets hits it with probability 1/popcount(mask),
    averaged over the 13 source operations.
    """
    rates = [1.0 / transition_mask(op).popcount() for op in OperationKind]
    return float(np.mean(rates))


def uniform_policy_entropy(num_edges: int = 8) -> float:
    """Expected summed masked-uniform entropy over a random input cell."""
    per_source = [math.log(transition_mask(op).popcount()) for op in OperationKind]
    return num_edges * float(np.mean(per_source))
