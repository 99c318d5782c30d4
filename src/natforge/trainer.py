"""End-to-end training loop and inference-time architecture optimization.

Each epoch alternates two phases: supernet updates on training batches over
uniformly sampled cells (skipped for the oracle provider, which has nothing
to train), then policy-gradient ascent on the controller using rewards from
the provider. A θ phase does its θ-free work once, before its steps: it takes
all of its input cells and uniforms off the generator in the order the steps
use them, encodes the cells and takes the policy's θ-free stage
(``gcnpolicy._inputs``: op checks and the first ``a @ x``) in one
stacked call, and scores the cells in one ``score_many`` call, which is valid
because nothing writes the supernet during a θ phase. Each step then runs
only the policy's θ-dependent pass on its slice.

Inference is a single policy application per input cell: encode it, read the
per-edge distributions, pick actions by sampling or argmax, and apply them.
Cells do not depend on each other, so ``_infer_ops`` runs the policy once per
group of same-size cells of their flat form; ``natforge optimize`` calls it
directly, and ``infer`` is one cell through it.
Because only rule-valid transitions carry probability, the optimized cell
never costs more than its input.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gcnpolicy
from .archgraph import CellGraph, sample_uniform
from .archgraph import _cell, _checked_ops, _encode, _flat
from .evaluator import (
    OracleProvider,
    PlantedOracle,
    SharedWeights,
    SupernetProvider,
    init_shared,
    make_dataset,
    make_oracle,
    supernet_train_step,
)
from .gcnpolicy import (
    PolicyOutput,
    PolicyParams,
    _entropy_terms,
    _inputs,
    _pass,
    actions_to_ops,
    backprop,
    init_params,
    _reward_logit_grads,
    _sample_rows,
)
from .opspace import VALID


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
    seed: int = 0
    depth: int = 2
    # Optional moving-average reward baseline; off by default.
    use_baseline: bool = False

    # Constants of the one trained setting: un-annotated, so not fields.
    iters_w = 10
    iters_theta = 10
    num_intermediate = 4
    hidden_dim = 64
    train_batch = 64
    reward_batch = 256
    baseline_decay = 0.9

    def __post_init__(self) -> None:
        for name in ("m", "n", "epochs", "depth", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.mode not in (gcnpolicy.NAT, gcnpolicy.NATPP):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if not (0 <= self.entropy_weight < math.inf):
            raise ValueError("entropy weight must be finite and >= 0")
        if not (0 < self.eta_w < math.inf and 0 < self.eta_theta < math.inf):
            raise ValueError("learning rates must be finite and positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.provider not in ("oracle", "supernet"):
            raise ValueError(f"unknown provider {self.provider!r}")


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


@dataclass
class TrainResult:
    policy: PolicyParams
    log: TrainLog
    shared: SharedWeights | None = None
    oracle: PlantedOracle | None = None


def _per_draw(a: np.ndarray, n: int) -> np.ndarray:
    """A step's (m, K, ...) per-cell rows as (m·n·K, ...): each cell's K rows n times over.

    Row block i·n + j is draw j of cell i. With n = 1 this is a view.
    """
    if n > 1:
        a = np.repeat(a, n, axis=0)
    return a.reshape((-1,) + a.shape[2:])


def _mean(values: list[float]) -> float:
    """``float(np.mean(values))`` without its Python wrapper: the same sum and division.

    One value is its own mean; numpy's sum starts from +0.0, so ``+ 0.0`` gives
    its bits (-0.0 reads +0.0) without the array round trip."""
    if len(values) == 1:
        return float(values[0]) + 0.0
    return float(np.add.reduce(values) / len(values))


def _w_step(shared: SharedWeights, dataset, rng, cfg: TrainConfig, step: int) -> float:
    """One ``supernet_train_step`` on m uniform cells; a non-finite loss raises."""
    graphs = [sample_uniform(cfg.num_intermediate, rng) for _ in range(cfg.m)]
    x, y = dataset.train_batch(rng, cfg.train_batch)
    loss = supernet_train_step(shared, graphs, x, y, cfg.eta_w)
    if not math.isfinite(loss):
        raise FloatingPointError(f"non-finite supernet loss at iteration {step}")
    return loss


def _checked_output(out: PolicyOutput) -> PolicyOutput:
    """``out``; a non-finite output (the policy overflows) raises ``FloatingPointError``."""
    if not np.logical_and.reduce(np.isfinite(out.Z), axis=None):
        raise FloatingPointError("non-finite policy output")
    return out


def _draw_phase(cfg: TrainConfig, rng: np.random.Generator) -> tuple[list[CellGraph], list]:
    """A θ phase's input cells and uniforms, taken off the generator in the order its steps
    use them: per step, m ``sample_uniform`` calls, then one ``rng.random(m·n·K)``."""
    k = 2 * cfg.num_intermediate
    betas, u = [], []
    for _ in range(cfg.iters_theta):
        betas += [sample_uniform(cfg.num_intermediate, rng) for _ in range(cfg.m)]
        u.append(rng.random(cfg.m * cfg.n * k))
    return betas, u


class _Phase(NamedTuple):
    """The θ-free part of a θ phase: its same-size input cells, each step's uniforms, and
    the cells' ``gcnpolicy._inputs`` stage, stacked on one leading axis. Step s owns cells
    s·m … (s + 1)·m − 1, m = ``len(betas) // len(u)``."""

    betas: list[CellGraph]
    u: list[np.ndarray]
    a: np.ndarray  # (S·m, V, V) adjacencies
    ax: np.ndarray  # (S·m, V, F) first-layer products a @ x
    ops: np.ndarray  # (S·m, K) op rows


def _prepare(betas: list[CellGraph], u: list) -> _Phase:
    """One ``_encode`` and one ``_inputs`` (op checks and the stacked ``a @ x``) for all of
    a phase's cells."""
    ops = np.array([b.ops for b in betas])
    enc = _encode(betas[0].num_nodes, np.array([b.sources for b in betas]), ops)
    return _Phase(betas, u, *_inputs(enc, ops))


def _draw(
    phase: _Phase, s: int, policy: PolicyParams, n: int
) -> tuple[PolicyOutput, list[CellGraph], np.ndarray]:
    """Step s of a prepared phase: the θ-dependent ``_pass`` over its m cells (a non-finite
    output raises), one ``_sample_rows`` over each cell's rows repeated n times at the
    step's uniforms, and the rewrites checked against the phase's op rows in one
    ``_checked_ops``; rewrite i·n + j is cell i's draw j. With n = 1 it is
    ``_infer_ops``'s sampling decode.

    These are the step's only checks of its draws. ``_sample_rows`` is unchecked: it
    runs once ``_checked_output`` has shown Z finite, which is all a BMSoftmax output
    needs to be a valid distribution. ``actions_to_ops`` rejects a NAT action outside
    [0, 3) and ``_checked_ops`` every op out of range or not ``VALID`` from its source,
    so ``_reward_logit_grads`` gets only valid actions."""
    m = len(phase.betas) // len(phase.u)
    rows = slice(s * m, (s + 1) * m)
    inputs = [phase.a[rows], phase.ax[rows], phase.ops[rows]]
    out = _checked_output(_pass(inputs, policy, cache=True))
    k = phase.ops.shape[1]
    drawn = _sample_rows(_per_draw(out.Z, n), phase.u[s])
    current = _per_draw(phase.ops[rows], n)
    new = _checked_ops(current, actions_to_ops(policy.mode, current, drawn), [k] * (m * n))
    cells = [beta for beta in phase.betas[rows] for _j in range(n)]
    alphas = [_cell(b.num_nodes, b.sources, new[j * k : (j + 1) * k]) for j, b in enumerate(cells)]
    return out, alphas, drawn.reshape(m * n, k)


def _score(provider, base: list[float], alphas: list[CellGraph], n: int) -> list[float]:
    """Each rewrite's score minus its cell's ``base`` score, from one ``score_many`` call on
    the step's rewrites; the supernet provider keeps its weighted input-fed edge outputs for
    one θ phase and its weight-free ones for the run."""
    return [score - base[j // n] for j, score in enumerate(provider.score_many(alphas))]


def _logit_grads(
    out: PolicyOutput, actions: np.ndarray, rewards: list[float], baseline: float, cfg: TrainConfig
) -> tuple[np.ndarray, list[float]]:
    """The step's logit gradient and each cell's entropy. One pass per cell gives its entropy
    and entropy gradient, one ``_reward_logit_grads`` call its n draws' reward terms, and each
    term plus the weighted entropy gradient is added to the cell's row in draw order."""
    n = cfg.n
    g_u = np.zeros(out.Z.shape)
    entropies = []
    for i, z in enumerate(out.Z):
        entropy, h_grad = _entropy_terms(z)
        entropies.append(entropy)
        r_eff = rewards[i * n : (i + 1) * n]
        if cfg.use_baseline:
            r_eff = [r - baseline for r in r_eff]
        terms = _reward_logit_grads(z, actions[i * n : (i + 1) * n], r_eff)
        terms += cfg.entropy_weight * h_grad
        row = g_u[i]
        for term in terms:
            row += term
    return g_u, entropies


def _ascend(out: PolicyOutput, policy: PolicyParams, g_u, cfg: TrainConfig, step: int) -> None:
    """One ``backprop`` of ``g_u``, scaled by 1/(m·n), then ``ascend_``. Non-finite new weights,
    from a non-finite gradient or an overflowing step, raise ``FloatingPointError``."""
    total = backprop(out, policy, g_u)
    if cfg.m * cfg.n > 1:  # scaling by 1.0 would change no bit
        total.scale_(1.0 / (cfg.m * cfg.n))
    gcnpolicy.ascend_(policy, total, cfg.eta_theta)
    if not all(np.logical_and.reduce(np.isfinite(w), axis=None) for w in policy.gcn + [policy.fc]):
        raise FloatingPointError(f"non-finite policy weights at iteration {step}")


def run(cfg: TrainConfig) -> TrainResult:
    """Alternating supernet / policy training, fully deterministic under the seed.

    An epoch runs ``iters_w`` ``_w_step`` calls (supernet only), then a θ phase of
    ``iters_theta`` steps. The phase first takes its cells and uniforms off the one
    generator (``_draw_phase``, the order of a step at a time), prepares them
    (``_prepare``) and scores its input cells. Each step then runs ``_draw``,
    ``_score``, ``_logit_grads`` and ``_ascend`` on its m cells, whose docstrings say
    the rest. Same seed, same bits as a run that draws, encodes and scores per step.
    """
    rng = np.random.default_rng(cfg.seed)
    policy = init_params(cfg.mode, rng, hidden_dim=cfg.hidden_dim, depth=cfg.depth)

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
        for _ in range(cfg.iters_w if shared is not None else 0):
            step += 1
            loss = _w_step(shared, dataset, rng, cfg, step)
            log.append(
                {"iter": step, "phase": "w", "loss": loss, "mean_reward": None, "entropy": None}
            )
        # No w write happens in a θ phase, so its cells are scored once, before its steps.
        phase = _prepare(*_draw_phase(cfg, rng))
        base = provider.score_many(phase.betas)
        for s in range(cfg.iters_theta):
            step += 1
            out, alphas, actions = _draw(phase, s, policy, cfg.n)
            rewards = _score(provider, base[s * cfg.m : (s + 1) * cfg.m], alphas, cfg.n)
            g_u, entropies = _logit_grads(out, actions, rewards, baseline, cfg)
            _ascend(out, policy, g_u, cfg, step)
            mean_reward = _mean(rewards)
            mean_entropy = _mean(entropies)
            if cfg.use_baseline:
                baseline = cfg.baseline_decay * baseline + (1 - cfg.baseline_decay) * mean_reward
            loss = -(mean_reward + cfg.entropy_weight * mean_entropy)
            record = {"loss": loss, "mean_reward": mean_reward, "entropy": mean_entropy}
            log.append({"iter": step, "phase": "theta", **record})
    return TrainResult(policy=policy, log=log, shared=shared, oracle=oracle)


#: Cells per batched policy application in ``_infer_ops``. It bounds the
#: memory of one chunk's stacked encodings and activations.
INFER_CHUNK = 256


def _infer_ops(
    policy: PolicyParams, flat: tuple[np.ndarray, ...], decode: str, rng: np.random.Generator | None
) -> np.ndarray:
    """The new operations of cells in the flat form ``(nodes, bounds, sources, ops)``, checked
    for range and against ``VALID``; a non-finite policy output raises ``FloatingPointError``.

    The cells are taken in chunks of ``INFER_CHUNK``. Within a chunk, the cells
    of each node count share one batched ``gcnpolicy._inputs`` and ``_pass`` that
    keeps no backprop cache (the same ``Z`` bytes), and are decoded together; the
    group's encoding and output are freed before the next group allocates.
    A cell's rows do not depend on the other cells of its group, and one
    ``rng.random`` call per chunk draws one uniform per edge in input order, so
    the results and the generator stream are those of one call per cell.
    """
    if decode not in ("sample", "argmax"):
        raise ValueError(f"decode must be 'sample' or 'argmax', got {decode!r}")
    if decode == "sample" and rng is None:
        raise ValueError("sampling decode requires an rng")
    nodes, bounds, sources, ops = flat
    new = np.empty_like(ops)
    for start in range(0, len(nodes), INFER_CHUNK):
        chunk = nodes[start : start + INFER_CHUNK]
        first = bounds[start]
        if decode == "sample":
            u = rng.random(bounds[start + len(chunk)] - first)
        # Groups in order of first appearance; the peak heap depends on the order of sizes.
        _, at = np.unique(chunk, return_index=True)
        for n in chunk[np.sort(at)].tolist():
            k = 2 * (n - 3)
            edges = (bounds[start + np.flatnonzero(chunk == n)][:, None] + np.arange(k)).ravel()
            current = ops[edges].reshape(-1, k)
            enc = _encode(n, sources[edges].reshape(-1, k), current)
            out = _checked_output(_pass(_inputs(enc, current), policy, cache=False))
            if decode == "argmax":
                # Ties break toward the lowest action index.
                actions = out.Z.argmax(axis=-1).ravel()
            else:
                actions = _sample_rows(out.Z.reshape(-1, policy.num_actions), u[edges - first])
            # Freed before the next group allocates, so that group reuses these heap
            # pages rather than faulting in fresh ones after glibc trims the heap.
            del enc, out
            new[edges] = actions_to_ops(policy.mode, current.ravel(), actions)
    return _checked_ops(ops, new, np.diff(bounds))


def infer(
    policy: PolicyParams,
    beta: CellGraph,
    decode: str = "sample",
    rng: np.random.Generator | None = None,
) -> CellGraph:
    """Optimize one input cell with a single policy application: ``_infer_ops`` on its flat
    form, without a backprop cache; the result keeps the input's ``sources``."""
    return _cell(beta.num_nodes, beta.sources, _infer_ops(policy, _flat([beta]), decode, rng))


def edge_match_rate(
    policy: PolicyParams,
    oracle: PlantedOracle,
    rng: np.random.Generator,
    num_graphs: int = 50,
    decode: str = "argmax",
) -> float:
    """Fraction of edges whose decoded transition hits the planted optimum.

    The sampled cells have one intermediate node per two edges of the oracle.
    Argmax decode measures the policy's single best guess; sampling decode
    measures search behavior (the rate at which drawn transitions land on
    the optimum), which is the right comparison against random search.
    Raises ValueError unless ``num_graphs`` is at least 1.
    """
    if num_graphs < 1:
        raise ValueError(f"num_graphs must be at least 1, got {num_graphs}")
    optimum = oracle.table.argmax(axis=1)
    matches = 0
    total = 0
    for _ in range(num_graphs):
        beta = sample_uniform(oracle.num_edges // 2, rng)
        alpha = infer(policy, beta, decode=decode, rng=rng)
        matches += int((alpha.ops == optimum[: alpha.num_edges]).sum())
        total += alpha.num_edges
    return matches / total


def random_policy_match_rate() -> float:
    """Expected edge-match rate of uniform random valid transitions.

    The planted optimum is always inside the source's mask, so a uniform
    choice among valid targets hits it with probability one over the
    source's row sum of ``VALID``, averaged over the 13 source operations.
    """
    return float(np.mean(1.0 / VALID.sum(axis=1)))


def uniform_policy_entropy() -> float:
    """Expected summed masked-uniform entropy over a random input cell of the trained size."""
    per_source = [math.log(n) for n in VALID.sum(axis=1).tolist()]
    return 2 * TrainConfig.num_intermediate * float(np.mean(per_source))
