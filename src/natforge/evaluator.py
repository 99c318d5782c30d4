"""Reward providers: a planted deterministic oracle and a toy shared-weight supernet.

The supernet mirrors weight sharing at desk scale: one parameter bank covers
every (edge slot, operation) pair, features are plain vectors instead of
spatial tensors, and each operation keeps its character — convolutions are
dense mixes, separable convolutions factor into a learned diagonal followed
by a dense mix, dilated ones first rotate coordinates by the kernel size,
pooling takes max/mean over circular coordinate windows (computed from the
shifted column slices of one circularly padded copy), skip is identity,
and null is zero. A node is tanh of the sum of its two incoming edges, and a
linear head classifies the concatenated intermediate nodes.

The planted oracle scores each (edge, operation) pair with a fixed random
table, so the best reachable transition for every edge is known exactly and
policy convergence can be measured against ground truth.

Both providers score a draw set in one call, ``score_many(graphs)``, and
define the reward of a rewrite as ``score(alpha) - score(beta)``. Scores are
pure, so a caller that draws n rewrites of one input cell scores the cell and
its rewrites together, and the cell once. Under the supernet, an edge fed by
an input node computes the same output for every cell scored on the same
batch, so a ``SupernetProvider`` keeps these outputs from one ``score_many``
call to the next, with two lifetimes. An operation without weights (the four
pools, and skip, which is its input) gives one output for every edge slot,
kept under its operation for the provider's life. A weighted (edge,
operation) output is kept until the weights change: ``supernet_train_step``
counts its writes in ``SharedWeights``, and the provider drops its weighted
outputs when that count has moved, so in training they last one θ phase. The
memo holds at most one (feature, batch) array, (16, 256) in training, per
non-null weighted (edge, operation), plus one per weight-free operation. No
output computed under older weights is ever reused. Writing into ``bank`` or
the ``head_*`` arrays directly does not move the count, so scoring after such
a write needs a new provider.

The read path (``graph_logits``, ``accuracy`` and the provider) works
feature-major. It transposes its batch once into a C-contiguous (16, B)
array, and node l of a cell is rows ``16 l .. 16 l + 15`` of one (16 I, B)
feature buffer: each node is written in place, an edge fed by it reads one
contiguous row block, and the head reads the buffer's transpose, so no cell
concatenates its nodes. The training step stays row-major: a feature-major
``supernet_train_step`` was measured no faster (median ratios 1.06 and 1.00
on ``supernet-pretrain``) and did not keep the weights' bits, so each path
has its own kernels, sharing only the operation tables and the roll and pad
indices. On the OpenBLAS of numpy's wheels, ``mix.T @ x_t`` has the bits of
``x @ mix`` and the head product over the transposed buffer the bits of the
product over the concatenated nodes, so the read path's logits are those of
the training layout's forward. The byte tests against the row-major
reference forward in ``tests/test_evaluator.py`` guard this.

The supernet kernels work on a cell's operation indices, the form
``CellGraph.ops`` stores. They dispatch through per-index tuples of type
class and kernel size, read once from ``opspace``, and read parameters
through ``SharedWeights.slots[e][o]``, which holds the same entry dicts as
``bank``. The dilated rotation and its inverse, and the circular pad of the
pools, are gathers through cached index arrays; the max-pool backward
gathers its windows from the cached input. None of this changes a bit of the
results.

``supernet_train_step`` computes only what its SGD update reads. An edge
computes its input gradient only when its source is an intermediate node;
the gradient of an input node is never read, so an edge fed by input -2 or
-1 computes its parameter gradients alone, and its pooling or skip backward
does nothing. A null edge has no backward, and the step fills no gradient
with zeros before writing it. The weights keep every bit, signed zeros
included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .archgraph import CellGraph, same_topology
from .numkernel import (
    FORMAT_VERSION,
    _arange,
    _read_only,
    checkpoint_array,
    checkpoint_dim,
    checkpoint_fields,
    checkpoint_text,
    cross_entropy_logits,
    glorot_uniform,
)
from .opspace import NUM_OPERATIONS, OPERATIONS, OperationKind, TypeClass


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


#: The synthetic data's feature dimension and class count, which the supernet shares.
_FEATURE_DIM = 16
_NUM_CLASSES = 8


def make_dataset(seed: int) -> SyntheticDataset:
    """Class means on a sphere of radius 3, unit-covariance clusters: 2,000 train, 1,000 val."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((_NUM_CLASSES, _FEATURE_DIM))
    means *= 3.0 / np.linalg.norm(means, axis=1, keepdims=True)
    labels = np.arange(3000) % _NUM_CLASSES
    inputs = means[labels] + rng.standard_normal((3000, _FEATURE_DIM))
    return SyntheticDataset(inputs=inputs, labels=labels, split=2000)


# ---------------------------------------------------------------------------
# Shared-weight supernet

#: Per operation index, its type class and kernel size, read once from the
#: ``OperationKind`` members so the per-edge loops index plain tuples.
_TYPE = tuple(op.type_class for op in OPERATIONS)
_KERNEL = tuple(op.kernel for op in OPERATIONS)
_NULL = OperationKind.NULL.index


@lru_cache(maxsize=64)
def _windows(feature_dim: int, k: int) -> np.ndarray:
    """Circular window indices: row i holds coordinates i, i + 1, ..., i + k - 1 mod d."""
    return _read_only((np.arange(feature_dim)[:, None] + np.arange(k)) % feature_dim)


@lru_cache(maxsize=64)
def _roll(feature_dim: int, k: int) -> np.ndarray:
    """Gather index of a circular shift: ``x[:, _roll(d, k)]`` copies ``np.roll(x, k, axis=1)``."""
    return _read_only((np.arange(feature_dim) - k) % feature_dim)


@lru_cache(maxsize=64)
def _pad(feature_dim: int, k: int) -> np.ndarray:
    """Gather index of a circular pad: ``x[:, _pad(d, k)]`` is x, then columns 0 .. k - 2 mod d."""
    return _read_only(np.arange(feature_dim + k - 1) % feature_dim)


@dataclass
class SharedWeights:
    """Parameter bank indexed by (edge slot index, operation) plus the head.

    ``bank`` is the one store of the entries. ``slots[e][o]`` is the same
    entry dict as ``bank[(e, OPERATIONS[o])]``, or None for an operation
    without parameters, so the supernet kernels index it by operation index.
    ``_writes`` counts the ``supernet_train_step`` updates, so a
    ``SupernetProvider`` can tell when its memo is stale; it is not a
    constructor argument, not compared and not checkpointed.
    """

    num_intermediate: int
    bank: dict[tuple[int, OperationKind], dict[str, np.ndarray]]
    head_w: np.ndarray
    head_b: np.ndarray
    slots: list[list[dict[str, np.ndarray] | None]] = field(
        init=False, repr=False, compare=False
    )
    _writes: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.slots = [
            [self.bank.get((e, op)) for op in OPERATIONS]
            for e in range(2 * self.num_intermediate)
        ]


def _entry_shapes(op: OperationKind) -> dict[str, tuple[int, ...]]:
    """Array shapes of ``op``'s bank entry, in storage order.

    Convolutions hold a dense ``mix``; separable ones (plain or dilated) a
    ``diag`` first, then a ``mix``. Other operations have no entry.
    """
    d = _FEATURE_DIM
    if op.type_class is TypeClass.CONV:
        return {"mix": (d, d)}
    if op.type_class in (TypeClass.SEP_CONV, TypeClass.DIL_SEP_CONV):
        return {"diag": (d,), "mix": (d, d)}
    return {}


def init_shared(rng: np.random.Generator, num_intermediate: int) -> SharedWeights:
    """Allocate one bank entry per (edge slot, learnable operation).

    A ``diag`` starts at ones and a ``mix`` is Glorot-uniform.
    """
    bank: dict[tuple[int, OperationKind], dict[str, np.ndarray]] = {}
    for e in range(2 * num_intermediate):
        for op in OPERATIONS:
            shapes = _entry_shapes(op)
            if shapes:
                bank[(e, op)] = {
                    name: np.ones(shape) if name == "diag" else glorot_uniform(rng, *shape)
                    for name, shape in shapes.items()
                }
    head_w = glorot_uniform(rng, num_intermediate * _FEATURE_DIM, _NUM_CLASSES)
    head_b = np.zeros(_NUM_CLASSES)
    return SharedWeights(num_intermediate=num_intermediate, bank=bank, head_w=head_w, head_b=head_b)


def _edge_forward(o: int, x: np.ndarray, entry: dict | None):
    """Apply toy operation ``OPERATIONS[o]``; returns (output, cache-for-backward).

    Null is not handled: its output is zero, and ``_forward_graph`` skips it.
    ``_read_edge`` is the same operation on a feature-major batch.
    """
    tc = _TYPE[o]
    if tc is TypeClass.SKIP:
        return x, None
    if tc is TypeClass.CONV:
        return x @ entry["mix"], (x,)
    if tc is TypeClass.SEP_CONV:
        u = x * entry["diag"]
        return u @ entry["mix"], (x, u)
    if tc is TypeClass.DIL_SEP_CONV:
        # A gather through the cached permutation copies exactly what np.roll would.
        xr = x[:, _roll(x.shape[1], _KERNEL[o])]
        u = xr * entry["diag"]
        return u @ entry["mix"], (xr, u)
    d, k = x.shape[1], _KERNEL[o]
    # Column j of window i is column i + j of the padded input, so column j of
    # every window is one shifted slice, combined in window order as the
    # reductions over a (B, d, k) window gather would combine them.
    xp = x[:, _pad(d, k)]
    if tc is TypeClass.MAX_POOL:
        y = np.maximum(xp[:, :d], xp[:, 1 : 1 + d])
        for j in range(2, k):
            np.maximum(y, xp[:, j : j + d], out=y)
        # The argmax is taken in backward.
        return y, x
    # ``np.add.reduce`` starts a short sum from +0.0, which turns an all -0.0 window into +0.0.
    y = xp[:, :d] + 0.0
    for j in range(1, k):
        y += xp[:, j : j + d]
    y /= k
    return y, None


def _edge_backward(o: int, gy: np.ndarray, entry: dict | None, cache, need_dx: bool):
    """Gradient of toy operation ``OPERATIONS[o]``; returns (param_grads, dx).

    ``param_grads`` holds fresh arrays keyed like ``entry``, or is None for an
    operation without parameters. ``dx`` is None unless ``need_dx``, so an
    edge whose input gradient is not read skips its work: pooling and skip do
    nothing, and a separable convolution keeps only the ``gu`` its ``diag``
    gradient needs. Null is not handled: its gradients are zero, and
    ``supernet_train_step`` skips it.
    """
    tc = _TYPE[o]
    if tc is TypeClass.CONV:
        (x,) = cache
        return {"mix": x.T @ gy}, (gy @ entry["mix"].T if need_dx else None)
    if tc is TypeClass.SEP_CONV or tc is TypeClass.DIL_SEP_CONV:
        # A dilated edge caches its rotated input, so both read the same way.
        x, u = cache
        gu = gy @ entry["mix"].T
        grads = {"diag": np.add.reduce(gu * x, axis=0), "mix": u.T @ gy}
        if not need_dx:
            return grads, None
        if tc is TypeClass.SEP_CONV:
            return grads, gu * entry["diag"]
        return grads, (gu * entry["diag"])[:, _roll(gy.shape[1], -_KERNEL[o])]
    if not need_dx:
        return None, None
    if tc is TypeClass.SKIP:
        return None, gy
    b, d = gy.shape
    k = _KERNEL[o]
    if tc is TypeClass.MAX_POOL:
        win = _windows(d, k)
        cols = win[np.arange(d)[None, :], cache[:, win].argmax(axis=2)]
        # One input coordinate can be the max of several windows: accumulate.
        # ``bincount`` adds the flat (row, column) targets in input order from
        # 0.0, the same sums in the same order as ``np.add.at``.
        flat = (cols + d * np.arange(b)[:, None]).ravel()
        return None, np.bincount(flat, weights=gy.ravel(), minlength=b * d).reshape(b, d)
    gx = np.zeros_like(gy)
    # Window i feeds coordinate i + j (mod d) from its column j, so column j's
    # share of the gradient is g rolled by j: one gather per column, added in
    # the column order a per-coordinate scatter would use.
    g = gy / k
    for j in range(k):
        gx += g[:, _roll(d, j)]
    return None, gx


def _forward_graph(sources: list[int], ops: list[int], w: SharedWeights, x: np.ndarray):
    """Supernet forward over a row-major (batch, feature) batch; returns (logits, caches).

    Node l is ``tanh(0 + y_2l + y_2l+1)``, the sum of its two edge outputs
    started from zeros. A null edge's output is zero, so it is skipped; the
    start from zeros only turns a -0.0 sum into +0.0, and adding 0.0 to the
    tanh does the same, so the nodes keep their exact bits. This is the
    training forward; ``_read_logits`` is the read-only one.
    """
    num_inter = len(ops) // 2
    slots = w.slots
    nodes: dict[int, np.ndarray] = {-2: x, -1: x}
    edge_caches: list = [None] * len(ops)
    # Edges are in canonical (target, slot) order, so node l's edges are 2l
    # and 2l + 1, and sources precede targets, so their inputs are computed.
    for l in range(num_inter):
        pre = None
        for e_idx in (2 * l, 2 * l + 1):
            o = ops[e_idx]
            if o == _NULL:
                continue
            y, edge_caches[e_idx] = _edge_forward(o, nodes[sources[e_idx]], slots[e_idx][o])
            pre = y if pre is None else pre + y
        if pre is None:
            nodes[l] = np.zeros_like(x)
        else:
            node = nodes[l] = np.tanh(pre)
            node += 0.0
    feats = np.concatenate([nodes[l] for l in range(num_inter)], axis=1)
    logits = feats @ w.head_w + w.head_b
    return logits, (nodes, edge_caches, feats)


def _read_edge(o: int, x_t: np.ndarray, entry: dict | None) -> np.ndarray:
    """``_edge_forward``'s output for a feature-major (feature, batch) input, transposed.

    It keeps no backward cache, and skip returns ``x_t`` itself. Null is not
    handled: ``_read_logits`` skips it.
    """
    tc = _TYPE[o]
    if tc is TypeClass.SKIP:
        return x_t
    if tc is TypeClass.CONV:
        return entry["mix"].T @ x_t
    if tc is TypeClass.SEP_CONV:
        return entry["mix"].T @ (x_t * entry["diag"][:, None])
    d, k = x_t.shape[0], _KERNEL[o]
    if tc is TypeClass.DIL_SEP_CONV:
        return entry["mix"].T @ (x_t[_roll(d, k)] * entry["diag"][:, None])
    # Rows j .. j + d - 1 of the padded input are column j of every window,
    # combined in window order as ``_edge_forward`` combines its columns.
    xp = x_t[_pad(d, k)]
    if tc is TypeClass.MAX_POOL:
        y = np.maximum(xp[:d], xp[1 : 1 + d])
        for j in range(2, k):
            np.maximum(y, xp[j : j + d], out=y)
        return y
    y = xp[:d] + 0.0
    for j in range(1, k):
        y += xp[j : j + d]
    y /= k
    return y


def _read_logits(graph: CellGraph, w: SharedWeights, x_t: np.ndarray, memo: dict) -> np.ndarray:
    """Read-only forward of one cell on a feature-major (feature, batch) batch ``x_t``.

    Returns the row-major (batch, class) logits of ``_forward_graph``, bit for
    bit. Node l is written into rows ``d l .. d l + d - 1`` of one C-contiguous
    (I d, B) buffer: the sum of its edge outputs, then its tanh, then 0.0
    added, in place, as ``_forward_graph`` computes it; a node whose edges
    are both null is zeros. The head reads the buffer's transpose, so the
    logits need no concatenation and come out row-major.

    An edge whose source is an input node reads its output from ``memo``,
    computing and storing it on a miss. Both input nodes are ``x_t``, so a
    weighted operation's output depends on (edge, operation) and is keyed
    ``(edge index, operation index)``, and a weight-free one's (pooling,
    skip) on its operation alone and is keyed by its index. The caller must
    pass the same batch with every use of one memo, and drop its weighted
    entries when the weights change, as ``SupernetProvider`` does.
    """
    if graph.num_intermediate != w.num_intermediate:
        raise ValueError("graph and shared weights disagree on intermediate count")
    sources, ops = graph.sources.tolist(), graph.ops.tolist()
    slots = w.slots
    d = x_t.shape[0]
    feats = np.empty((len(ops) // 2 * d, x_t.shape[1]))
    for l in range(len(ops) // 2):
        row = feats[l * d : (l + 1) * d]
        pre = None
        for e_idx in (2 * l, 2 * l + 1):
            o = ops[e_idx]
            if o == _NULL:
                continue
            src = sources[e_idx]
            entry = slots[e_idx][o]
            if src >= 0:
                y = _read_edge(o, feats[src * d : (src + 1) * d], entry)
            else:
                # Both input nodes are x_t: a weight-free output depends on the op alone.
                key = o if entry is None else (e_idx, o)
                y = memo.get(key)
                if y is None:
                    y = memo[key] = _read_edge(o, x_t, entry)
            pre = y if pre is None else np.add(pre, y, out=row)
        if pre is None:
            row[...] = 0.0
        else:
            np.tanh(pre, out=row)
            row += 0.0
    logits = feats.T @ w.head_w
    logits += w.head_b
    return logits


def _fraction_correct(logits: np.ndarray, labels: np.ndarray) -> float:
    # The count over the batch size: the same float as the mean of the hits.
    return np.count_nonzero(logits.argmax(axis=1) == labels) / len(labels)


def _check_batch(x: np.ndarray, labels: np.ndarray | None = None) -> None:
    """Raise ValueError naming the shapes unless ``x`` is (B, 16) with B >= 1 and
    ``labels``, if given, holds B entries."""
    shape = np.shape(x)
    if (
        len(shape) == 2
        and shape[0] >= 1
        and shape[1] == _FEATURE_DIM
        and (labels is None or np.shape(labels) == shape[:1])
    ):
        return
    want, got = f"x of shape (B, {_FEATURE_DIM}) with B >= 1", f"x {shape}"
    if labels is not None:
        want, got = want + " and B labels", got + f" and labels {np.shape(labels)}"
    raise ValueError(f"batch: expected {want}, got {got}")


def graph_logits(graph: CellGraph, w: SharedWeights, x: np.ndarray) -> np.ndarray:
    """Pure read-only forward pass of a row-major (B, 16) batch; returns (B, 8) logits."""
    _check_batch(x)
    return _read_logits(graph, w, np.asarray(x).T.copy(), {})


def accuracy(graph: CellGraph, w: SharedWeights, x: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of the batch classified correctly: the float ``SupernetProvider`` scores."""
    _check_batch(x, labels)
    return _fraction_correct(graph_logits(graph, w, x), labels)


def _sum_into(
    acc: dict[str, np.ndarray] | None, grads: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """``acc`` with ``grads`` added in place; with no ``acc``, the fresh ``grads`` plus 0.0.

    Adding 0.0 turns -0.0 into +0.0 and changes no other bits, so the first
    graph's gradients are exactly a sum started from zeros.
    """
    if acc is None:
        for g in grads.values():
            g += 0.0
        return grads
    for name, g in grads.items():
        acc[name] += g
    return acc


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

    The backward computes only what the update reads. An edge passes an input
    gradient on only when its source is an intermediate node, so an edge fed
    by an input node computes its parameter gradients alone, and a null edge
    has no backward. The first graph to touch a gradient stores its fresh
    arrays and later graphs add to them in order, as ``_sum_into`` describes.

    The step counts itself in ``w._writes`` before it writes a weight, which
    ends the weighted input-fed edge outputs kept by every ``SupernetProvider``
    on ``w``.
    """
    d = _FEATURE_DIM
    slots = w.slots
    # Gradients by (edge slot index, operation index), summed over the graphs.
    grad_bank: dict[tuple[int, int], dict[str, np.ndarray]] = {}
    grad_head: dict[str, np.ndarray] | None = None
    total_loss = 0.0
    for graph in graphs:
        if graph.num_intermediate != w.num_intermediate:
            raise ValueError("graph and shared weights disagree on intermediate count")
        sources, ops = graph.sources.tolist(), graph.ops.tolist()
        logits, (nodes, edge_caches, feats) = _forward_graph(sources, ops, w, x)
        loss, dlogits = cross_entropy_logits(logits, labels)
        total_loss += loss
        grad_head = _sum_into(
            grad_head, {"head_w": feats.T @ dlogits, "head_b": np.add.reduce(dlogits, axis=0)}
        )
        dfeats = dlogits @ w.head_w.T
        # Contiguous copies: each ufunc on a strided column block of ``dfeats``
        # costs about three times as much as on a copy, and a node's gradient
        # meets one to three of them.
        node_grads = [dfeats[:, l * d : (l + 1) * d].copy() for l in range(graph.num_intermediate)]
        # Walk intermediates in reverse so downstream credit arrives first.
        for l in range(graph.num_intermediate - 1, -1, -1):
            gpre = node_grads[l] * (1.0 - nodes[l] ** 2)
            for e_idx in (2 * l, 2 * l + 1):
                o = ops[e_idx]
                src = sources[e_idx]
                if o == _NULL:
                    # Its input gradient is zeros: adding 0.0 gives their bits, -0.0 → +0.0.
                    if src >= 0:
                        node_grads[src] += 0.0
                    continue
                grads, dx = _edge_backward(o, gpre, slots[e_idx][o], edge_caches[e_idx], src >= 0)
                if grads is not None:
                    grad_bank[e_idx, o] = _sum_into(grad_bank.get((e_idx, o)), grads)
                if dx is not None:
                    node_grads[src] += dx

    scale = 1.0 / len(graphs)
    w._writes += 1
    w.head_w -= lr * scale * grad_head["head_w"]
    w.head_b -= lr * scale * grad_head["head_b"]
    for (e_idx, o), gentry in grad_bank.items():
        entry = slots[e_idx][o]
        for name, g in gentry.items():
            entry[name] -= lr * scale * g
    return total_loss * scale


def shared_file(w: SharedWeights, data_seed: int, path: str) -> tuple[str, str]:
    """The ``(path, text)`` of a versioned JSON checkpoint of the supernet bank, its head
    and the ``make_dataset`` seed of the data the weights were trained on. Each array is
    one ``checkpoint_text`` string (base64 of its row-major little-endian float64 bytes)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "data_seed": data_seed,
        "feature_dim": _FEATURE_DIM,
        "num_intermediate": w.num_intermediate,
        "num_classes": _NUM_CLASSES,
        "head_w": checkpoint_text(w.head_w),
        "head_b": checkpoint_text(w.head_b),
        "bank": {
            f"{e}:{op.value}": {name: checkpoint_text(arr) for name, arr in entry.items()}
            for (e, op), entry in sorted(
                w.bank.items(), key=lambda item: (item[0][0], item[0][1].index)
            )
        },
    }
    return path, json.dumps(payload) + "\n"


_SHARED_FIELDS = (
    "data_seed", "feature_dim", "num_intermediate", "num_classes", "head_w", "head_b", "bank"
)


def load_shared(path: str) -> tuple[SharedWeights, int]:
    """Read a ``shared_file`` checkpoint, validating every field; returns (weights, data_seed).

    ``feature_dim`` and ``num_classes`` must be the synthetic data's, and the
    bank must hold exactly the entries ``init_shared`` allocates, each with
    its arrays' shapes. Raises ValueError naming the first field that is
    missing, malformed (an array that is not base64 of float64 bytes), of the
    wrong value or shape, or not finite, or an unknown ``format_version``.
    """
    with open(path) as fh:
        payload = json.load(fh)
    checkpoint_fields(payload, _SHARED_FIELDS)
    data_seed = payload["data_seed"]
    if type(data_seed) is not int or data_seed < 0:
        raise ValueError(f"data_seed: expected a non-negative integer, got {data_seed!r}")
    for name, value in (("feature_dim", _FEATURE_DIM), ("num_classes", _NUM_CLASSES)):
        if type(payload[name]) is not int or payload[name] != value:
            raise ValueError(f"{name}: expected {value}, got {payload[name]!r}")
    num_intermediate = checkpoint_dim(payload["num_intermediate"], "num_intermediate")
    head_w = checkpoint_array(
        payload["head_w"], (num_intermediate * _FEATURE_DIM, _NUM_CLASSES), "head_w"
    )
    head_b = checkpoint_array(payload["head_b"], (_NUM_CLASSES,), "head_b")

    stored = payload["bank"]
    if not isinstance(stored, dict):
        raise ValueError("bank: expected an object")
    bank = {}
    for e in range(2 * num_intermediate):
        for op in OPERATIONS:
            shapes = _entry_shapes(op)
            if not shapes:
                continue
            key = f"{e}:{op.value}"
            if key not in stored:
                raise ValueError(f"bank: missing entry {key!r}")
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
    w = SharedWeights(num_intermediate=num_intermediate, bank=bank, head_w=head_w, head_b=head_b)
    return w, data_seed


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
        # A sequential Python sum: ``np.sum`` adds pairwise, which changes the last bits.
        return float(sum(self.table[_arange(graph.num_edges), graph.ops].tolist()))

    def planted_optimum(self, edge_index: int) -> OperationKind:
        return OPERATIONS[int(self.table[edge_index].argmax())]


def make_oracle(seed: int, num_edges: int = 8) -> PlantedOracle:
    """Continuous i.i.d. scores with the per-edge optimum boosted into {skip, null}.

    Continuity makes every per-mask argmax unique almost surely; the boost
    pins a single universally reachable optimum per edge, assigned by slot
    parity (which of skip or null goes to even slots is drawn per seed). The
    scale keeps rewards in the same range as validation-accuracy differences,
    so entropy weights behave comparably across providers.
    """
    scale = 0.1
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

    def __init__(self, oracle: PlantedOracle):
        self.oracle = oracle

    def score_many(self, graphs: Sequence[CellGraph]) -> list[float]:
        """Each cell's planted score, in order."""
        return [self.oracle.score(g) for g in graphs]

    def reward(self, alpha: CellGraph, beta: CellGraph) -> float:
        if not same_topology(alpha, beta):
            raise ValueError("architectures must share topology")
        score_alpha, score_beta = self.score_many([alpha, beta])
        return score_alpha - score_beta


class SupernetProvider:
    """Reward as validation-accuracy improvement under shared weights.

    The provider checks its batch once, as ``accuracy`` does, and keeps its
    own C-contiguous (16, B) copy of ``x_val``, the feature-major layout
    ``_read_logits`` works in, and its own copy of ``y_val``, so a later
    write into the caller's arrays changes no score. It keeps the input-fed
    edge outputs it has computed, with two lifetimes. A weight-free
    operation's output (pooling, skip) depends only on the batch and is kept
    for the provider's life. A weighted (edge, operation) output is kept
    until ``supernet_train_step`` next writes ``w``: every call first
    compares ``w._writes`` with the count its weighted entries were made
    under, and drops them when the count has moved. The memo so holds at
    most one (feature, batch) array, (16, 256) in training, per non-null
    weighted (edge, operation), plus one per weight-free operation. The
    scores are exactly those of one ``accuracy`` call per cell, and their
    logits those of the row-major training forward on the OpenBLAS of
    numpy's wheels. Training keeps its row-major layout, since a
    feature-major training step was no faster and changed the weights' bits
    (see the module docstring). Weights written other than by
    ``supernet_train_step`` need a new provider.
    """

    def __init__(self, w: SharedWeights, x_val: np.ndarray, y_val: np.ndarray):
        _check_batch(x_val, y_val)
        self.w = w
        self._x_t = np.asarray(x_val).T.copy()
        self.y_val = np.array(y_val)
        # Weighted outputs keyed (edge, op); weight-free ones keyed by the op index alone.
        self._memo: dict = {}
        self._memo_writes = w._writes

    def score_many(self, graphs: Sequence[CellGraph]) -> list[float]:
        """Each cell's validation accuracy under the current shared weights, in order."""
        if self._memo_writes != self.w._writes:
            self._memo = {key: y for key, y in self._memo.items() if type(key) is int}
            self._memo_writes = self.w._writes
        return [
            _fraction_correct(_read_logits(g, self.w, self._x_t, self._memo), self.y_val)
            for g in graphs
        ]

    def reward(self, alpha: CellGraph, beta: CellGraph) -> float:
        if not same_topology(alpha, beta):
            raise ValueError("architectures must share topology")
        score_alpha, score_beta = self.score_many([alpha, beta])
        return score_alpha - score_beta
