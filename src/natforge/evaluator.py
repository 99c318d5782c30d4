"""Reward providers: a planted deterministic oracle and a toy shared-weight supernet.

The supernet mirrors weight sharing at desk scale: one parameter bank covers
every (edge slot, operation) pair, features are plain vectors instead of
spatial tensors, and each operation keeps its character — convolutions are
dense mixes, separable convolutions factor into a learned diagonal followed
by a dense mix, dilated ones first rotate coordinates by the kernel size,
pooling takes max/mean over circular coordinate windows, skip is identity,
and null is zero. A node is tanh of the sum of its two incoming edges, and a
linear head classifies the concatenated intermediate nodes.

The planted oracle scores each (edge, operation) pair with a fixed random
table, so the best reachable transition for every edge is known exactly and
policy convergence can be measured against ground truth.

Both providers expose ``score(graph)`` and define the reward of a rewrite as
``score(alpha) - score(beta)``. Scores are pure, so a caller that draws many
rewrites of one input cell scores that cell once.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .archgraph import CellGraph, same_topology, validate
from .numkernel import (
    checkpoint_array,
    checkpoint_dim,
    checkpoint_fields,
    cross_entropy_logits,
    glorot_uniform,
)
from .opspace import (
    NUM_OPERATIONS,
    OPERATIONS,
    OperationKind,
    TypeClass,
    transition_mask,
)

_LEARNABLE = (TypeClass.CONV, TypeClass.SEP_CONV, TypeClass.DIL_SEP_CONV)


# ---------------------------------------------------------------------------
# Synthetic data


@dataclass(frozen=True)
class SyntheticDataset:
    """Seeded Gaussian-mixture classification data with balanced classes."""

    inputs: np.ndarray
    labels: np.ndarray
    split: int

    def train_batch(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        idx = rng.integers(0, self.split, size=size)
        return self.inputs[idx], self.labels[idx]

    def val_batch(self, size: int = 256) -> tuple[np.ndarray, np.ndarray]:
        """Fixed leading slice of the validation split."""
        stop = min(self.split + size, len(self.labels))
        return self.inputs[self.split : stop], self.labels[self.split : stop]


def make_dataset(
    seed: int,
    num_train: int = 2000,
    num_val: int = 1000,
    feature_dim: int = 16,
    num_classes: int = 8,
    radius: float = 3.0,
) -> SyntheticDataset:
    """Class means on a sphere of the given radius, unit-covariance clusters."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, feature_dim))
    means *= radius / np.linalg.norm(means, axis=1, keepdims=True)
    total = num_train + num_val
    labels = np.arange(total) % num_classes
    inputs = means[labels] + rng.standard_normal((total, feature_dim))
    return SyntheticDataset(inputs=inputs, labels=labels, split=num_train)


# ---------------------------------------------------------------------------
# Shared-weight supernet

# Circular window indices per kernel size, keyed by (feature_dim, k).
_WINDOW_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _windows(feature_dim: int, k: int) -> np.ndarray:
    key = (feature_dim, k)
    if key not in _WINDOW_CACHE:
        _WINDOW_CACHE[key] = np.array(
            [[(i + j) % feature_dim for j in range(k)] for i in range(feature_dim)]
        )
    return _WINDOW_CACHE[key]


@dataclass
class SharedWeights:
    """Parameter bank indexed by (edge slot index, operation) plus the head."""

    feature_dim: int
    num_intermediate: int
    num_classes: int
    bank: dict[tuple[int, OperationKind], dict[str, np.ndarray]]
    head_w: np.ndarray
    head_b: np.ndarray
    usage_counts: dict[tuple[int, OperationKind], int]

    @property
    def num_edges(self) -> int:
        return 2 * self.num_intermediate


def init_shared(
    rng: np.random.Generator,
    num_intermediate: int = 4,
    feature_dim: int = 16,
    num_classes: int = 8,
) -> SharedWeights:
    """Allocate one bank entry per (edge slot, learnable operation)."""
    bank: dict[tuple[int, OperationKind], dict[str, np.ndarray]] = {}
    usage = {}
    for e in range(2 * num_intermediate):
        for op in OPERATIONS:
            usage[(e, op)] = 0
            if op.type_class is TypeClass.CONV:
                bank[(e, op)] = {"mix": glorot_uniform(rng, feature_dim, feature_dim)}
            elif op.type_class in (TypeClass.SEP_CONV, TypeClass.DIL_SEP_CONV):
                bank[(e, op)] = {
                    "diag": np.ones(feature_dim),
                    "mix": glorot_uniform(rng, feature_dim, feature_dim),
                }
    head_w = glorot_uniform(rng, num_intermediate * feature_dim, num_classes)
    head_b = np.zeros(num_classes)
    return SharedWeights(
        feature_dim=feature_dim,
        num_intermediate=num_intermediate,
        num_classes=num_classes,
        bank=bank,
        head_w=head_w,
        head_b=head_b,
        usage_counts=usage,
    )


def _edge_forward(op: OperationKind, x: np.ndarray, entry: dict | None):
    """Apply one toy operation; returns (output, cache-for-backward)."""
    tc = op.type_class
    if tc is TypeClass.NULL:
        return np.zeros_like(x), None
    if tc is TypeClass.SKIP:
        return x, None
    if tc is TypeClass.CONV:
        return x @ entry["mix"], (x,)
    if tc is TypeClass.SEP_CONV:
        u = x * entry["diag"]
        return u @ entry["mix"], (x, u)
    if tc is TypeClass.DIL_SEP_CONV:
        xr = np.roll(x, op.kernel, axis=1)
        u = xr * entry["diag"]
        return u @ entry["mix"], (xr, u)
    win = _windows(x.shape[1], op.kernel)
    vals = x[:, win]  # (B, d, k)
    if tc is TypeClass.MAX_POOL:
        # The argmax is taken in backward, so a read-only forward skips it.
        return vals.max(axis=2), (win, vals)
    return vals.mean(axis=2), (win,)


def _edge_backward(
    op: OperationKind,
    gy: np.ndarray,
    entry: dict | None,
    cache,
    grad_entry: dict | None,
) -> np.ndarray:
    """Gradient of one toy operation; accumulates into grad_entry, returns dx."""
    tc = op.type_class
    if tc is TypeClass.NULL:
        return np.zeros_like(gy)
    if tc is TypeClass.SKIP:
        return gy
    if tc is TypeClass.CONV:
        (x,) = cache
        grad_entry["mix"] += x.T @ gy
        return gy @ entry["mix"].T
    if tc is TypeClass.SEP_CONV:
        x, u = cache
        grad_entry["mix"] += u.T @ gy
        gu = gy @ entry["mix"].T
        grad_entry["diag"] += (gu * x).sum(axis=0)
        return gu * entry["diag"]
    if tc is TypeClass.DIL_SEP_CONV:
        xr, u = cache
        grad_entry["mix"] += u.T @ gy
        gu = gy @ entry["mix"].T
        grad_entry["diag"] += (gu * xr).sum(axis=0)
        return np.roll(gu * entry["diag"], -op.kernel, axis=1)
    gx = np.zeros_like(gy)
    if tc is TypeClass.MAX_POOL:
        win, vals = cache
        cols = win[np.arange(win.shape[0])[None, :], vals.argmax(axis=2)]
        # One input coordinate can be the max of several windows: accumulate.
        np.add.at(gx, (np.arange(gy.shape[0])[:, None], cols), gy)
        return gx
    (win,) = cache
    k = win.shape[1]
    # Column j of the circular windows is a permutation of the coordinates,
    # so each fancy-indexed += touches every coordinate exactly once.
    g = gy / k
    for j in range(k):
        gx[:, win[:, j]] += g
    return gx


def _forward_graph(graph: CellGraph, w: SharedWeights, x: np.ndarray):
    """Supernet forward over a batch; returns (logits, caches)."""
    nodes: dict[int, np.ndarray] = {-2: x, -1: x}
    edge_caches: list = [None] * len(graph.edges)
    # Edges are in canonical (target, slot) order, so node l's edges are 2l
    # and 2l + 1, and sources precede targets, so their inputs are computed.
    for l in range(graph.num_intermediate):
        pre = np.zeros_like(x)
        for e_idx in (2 * l, 2 * l + 1):
            edge = graph.edges[e_idx]
            entry = w.bank.get((e_idx, edge.op))
            y, cache = _edge_forward(edge.op, nodes[edge.source_node], entry)
            edge_caches[e_idx] = cache
            pre = pre + y
        nodes[l] = np.tanh(pre)
    feats = np.concatenate([nodes[l] for l in range(graph.num_intermediate)], axis=1)
    logits = feats @ w.head_w + w.head_b
    return logits, (nodes, edge_caches, feats)


def graph_logits(graph: CellGraph, w: SharedWeights, x: np.ndarray) -> np.ndarray:
    """Pure read-only forward pass."""
    validate(graph)
    if graph.num_intermediate != w.num_intermediate:
        raise ValueError("graph and shared weights disagree on intermediate count")
    logits, _ = _forward_graph(graph, w, x)
    return logits


def accuracy(graph: CellGraph, w: SharedWeights, x: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of the batch classified correctly by the shared-weight forward pass."""
    logits = graph_logits(graph, w, x)
    return float((logits.argmax(axis=1) == labels).mean())


def supernet_train_step(
    w: SharedWeights,
    graphs: Sequence[CellGraph],
    x: np.ndarray,
    labels: np.ndarray,
    lr: float,
) -> float:
    """One SGD step on the parameters touched by the sampled graphs.

    The gradient is averaged over the graphs; bank entries not used by any of
    them are left untouched. Returns the mean cross-entropy before the step.
    """
    d = w.feature_dim
    grad_bank: dict[tuple[int, OperationKind], dict[str, np.ndarray]] = {}
    grad_head_w = np.zeros_like(w.head_w)
    grad_head_b = np.zeros_like(w.head_b)
    total_loss = 0.0
    for graph in graphs:
        validate(graph)
        if graph.num_intermediate != w.num_intermediate:
            raise ValueError("graph and shared weights disagree on intermediate count")
        logits, (nodes, edge_caches, feats) = _forward_graph(graph, w, x)
        loss, dlogits = cross_entropy_logits(logits, labels)
        total_loss += loss
        grad_head_w += feats.T @ dlogits
        grad_head_b += dlogits.sum(axis=0)
        dfeats = dlogits @ w.head_w.T

        node_grads = {
            l: dfeats[:, l * d : (l + 1) * d].copy()
            for l in range(graph.num_intermediate)
        }
        # Walk intermediates in reverse so downstream credit arrives first.
        for l in range(graph.num_intermediate - 1, -1, -1):
            gpre = node_grads[l] * (1.0 - nodes[l] ** 2)
            for e_idx in (2 * l, 2 * l + 1):
                edge = graph.edges[e_idx]
                key = (e_idx, edge.op)
                w.usage_counts[key] += 1
                entry = w.bank.get(key)
                gentry = None
                if entry is not None:
                    gentry = grad_bank.setdefault(
                        key, {name: np.zeros_like(arr) for name, arr in entry.items()}
                    )
                gx = _edge_backward(edge.op, gpre, entry, edge_caches[e_idx], gentry)
                if edge.source_node >= 0:
                    node_grads[edge.source_node] += gx

    scale = 1.0 / len(graphs)
    w.head_w -= lr * scale * grad_head_w
    w.head_b -= lr * scale * grad_head_b
    for key, gentry in grad_bank.items():
        for name, g in gentry.items():
            w.bank[key][name] -= lr * scale * g
    return total_loss * scale


def save_shared(w: SharedWeights, path: str) -> None:
    """Write the supernet bank and head as a JSON checkpoint."""
    payload = {
        "feature_dim": w.feature_dim,
        "num_intermediate": w.num_intermediate,
        "num_classes": w.num_classes,
        "head_w": w.head_w.tolist(),
        "head_b": w.head_b.tolist(),
        "bank": {
            f"{e}:{op.value}": {name: arr.tolist() for name, arr in entry.items()}
            for (e, op), entry in sorted(
                w.bank.items(), key=lambda item: (item[0][0], item[0][1].index)
            )
        },
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    os.replace(tmp, path)


_SHARED_FIELDS = ("feature_dim", "num_intermediate", "num_classes", "head_w", "head_b", "bank")


def load_shared(path: str) -> SharedWeights:
    """Read a ``save_shared`` checkpoint, validating every field.

    The bank must hold exactly the entries ``init_shared`` allocates, each
    with its arrays' shapes. Raises ValueError naming the first field that is
    missing, malformed, of the wrong shape, or not finite.
    """
    with open(path) as fh:
        payload = json.load(fh)
    checkpoint_fields(payload, _SHARED_FIELDS)
    d = checkpoint_dim(payload["feature_dim"], "feature_dim")
    num_intermediate = checkpoint_dim(payload["num_intermediate"], "num_intermediate")
    num_classes = checkpoint_dim(payload["num_classes"], "num_classes")
    head_w = checkpoint_array(payload["head_w"], (num_intermediate * d, num_classes), "head_w")
    head_b = checkpoint_array(payload["head_b"], (num_classes,), "head_b")

    stored = payload["bank"]
    if not isinstance(stored, dict):
        raise ValueError("bank: expected an object")
    bank = {}
    for e in range(2 * num_intermediate):
        for op in OPERATIONS:
            if op.type_class not in _LEARNABLE:
                continue
            key = f"{e}:{op.value}"
            if key not in stored:
                raise ValueError(f"bank: missing entry {key!r}")
            shapes = {"mix": (d, d)}
            if op.type_class is not TypeClass.CONV:
                shapes["diag"] = (d,)
            entry = stored[key]
            if not isinstance(entry, dict) or set(entry) != set(shapes):
                raise ValueError(f"bank[{key!r}]: expected arrays {sorted(shapes)}")
            bank[(e, op)] = {
                name: checkpoint_array(vals, shapes[name], f"bank[{key!r}].{name}")
                for name, vals in entry.items()
            }
    if len(stored) != len(bank):
        extra = sorted(set(stored) - {f"{e}:{op.value}" for e, op in bank})
        raise ValueError(f"bank: unexpected entry {extra[0]!r}")
    usage = {(e, op): 0 for e in range(2 * num_intermediate) for op in OPERATIONS}
    return SharedWeights(
        feature_dim=d,
        num_intermediate=num_intermediate,
        num_classes=num_classes,
        bank=bank,
        head_w=head_w,
        head_b=head_b,
        usage_counts=usage,
    )


# ---------------------------------------------------------------------------
# Planted oracle


@dataclass(frozen=True)
class PlantedOracle:
    """Fixed per-(edge, operation) score table with a known per-edge optimum.

    The optimum of each edge sits in {skip, null}, the two targets reachable
    from every source, so "the best valid transition" is the same operation
    no matter which operation the input architecture carries on that edge.
    """

    table: np.ndarray  # (num_edges, 13)

    @property
    def num_edges(self) -> int:
        return self.table.shape[0]

    def score(self, graph: CellGraph) -> float:
        return float(
            sum(self.table[e, edge.op.index] for e, edge in enumerate(graph.edges))
        )

    def planted_optimum(self, edge_index: int) -> OperationKind:
        return OPERATIONS[int(self.table[edge_index].argmax())]

    def best_reachable(self, edge_index: int, source: OperationKind) -> OperationKind:
        """Highest-scoring target among the source's valid transitions."""
        mask = transition_mask(source)
        candidates = mask.ops()
        scores = [self.table[edge_index, op.index] for op in candidates]
        return candidates[int(np.argmax(scores))]


def make_oracle(seed: int, num_edges: int = 8, scale: float = 0.1) -> PlantedOracle:
    """Continuous i.i.d. scores with the per-edge optimum boosted into {skip, null}.

    Continuity makes every per-mask argmax unique almost surely; the boost
    pins a single universally reachable optimum per edge, assigned by slot
    parity (which of skip or null goes to even slots is drawn per seed). The
    scale keeps rewards in the same range as validation-accuracy differences,
    so entropy weights behave comparably across providers.
    """
    rng = np.random.default_rng(seed)
    table = scale * rng.standard_normal((num_edges, NUM_OPERATIONS))
    pair = [OperationKind.SKIP, OperationKind.NULL]
    if rng.integers(2):
        pair.reverse()
    for e in range(num_edges):
        table[e, pair[e % 2].index] = table[e].max() + 5.0 * scale
    return PlantedOracle(table=table)


# ---------------------------------------------------------------------------
# Reward providers


class OracleProvider:
    """Reward from the planted score table: score(alpha) - score(beta)."""

    name = "oracle"

    def __init__(self, oracle: PlantedOracle):
        self.oracle = oracle

    def score(self, graph: CellGraph) -> float:
        return self.oracle.score(graph)

    def reward(self, alpha: CellGraph, beta: CellGraph) -> float:
        if not same_topology(alpha, beta):
            raise ValueError("architectures must share topology")
        return self.score(alpha) - self.score(beta)


class SupernetProvider:
    """Reward as validation-accuracy improvement under shared weights."""

    name = "supernet"

    def __init__(self, w: SharedWeights, x_val: np.ndarray, y_val: np.ndarray):
        self.w = w
        self.x_val = x_val
        self.y_val = y_val

    def score(self, graph: CellGraph) -> float:
        """Validation accuracy of the cell under the current shared weights."""
        return accuracy(graph, self.w, self.x_val, self.y_val)

    def reward(self, alpha: CellGraph, beta: CellGraph) -> float:
        if not same_topology(alpha, beta):
            raise ValueError("architectures must share topology")
        return self.score(alpha) - self.score(beta)
