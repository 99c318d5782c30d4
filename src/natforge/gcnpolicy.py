"""Graph-convolutional transition policy: forward pass, sampling, and gradients.

The controller embeds a cell's (adjacency, features) pair through a stack of
graph convolutions (two by default; the last one is linear) and maps each
intermediate node's embedding through a fully-connected head to two blocks of
logits, one per incoming slot. In the 3-action mode every edge shares the
vocabulary {keep, to-null, to-skip} under a standard softmax; in the 13-action
mode the logits go through the masked softmax so that only rule-valid target
operations receive probability.

Gradients of the policy-gradient objective (log-probability times reward plus
an entropy bonus) are exact analytic derivatives, verified elsewhere against
central finite differences. ``policy_gradient`` takes the ``PolicyOutput``
that ``forward`` returned, whose backprop cache holds the intermediates, so
one policy step runs the forward pass once.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .archgraph import EncodingConfig, GraphEncoding
from .numkernel import (
    bmsoftmax,
    checkpoint_array,
    checkpoint_dim,
    checkpoint_fields,
    glorot_uniform,
    softmax,
)
from .opspace import NUM_OPERATIONS, OPERATIONS, VALID, OperationKind

NAT = "nat"
NATPP = "nat++"

_NUM_ACTIONS = {NAT: 3, NATPP: NUM_OPERATIONS}


@dataclass
class PolicyParams:
    """Controller weights: graph-conv stack plus the per-slot logit head."""

    mode: str
    gcn: list[np.ndarray]
    fc: np.ndarray
    i_max: int

    @property
    def depth(self) -> int:
        return len(self.gcn)

    @property
    def num_actions(self) -> int:
        return _NUM_ACTIONS[self.mode]

    @property
    def hidden_dim(self) -> int:
        return self.gcn[-1].shape[1]

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.mode, [w.copy() for w in self.gcn], self.fc.copy(), self.i_max)


@dataclass
class ParamGrads:
    gcn: list[np.ndarray]
    fc: np.ndarray

    def add_(self, other: "ParamGrads") -> None:
        for mine, theirs in zip(self.gcn, other.gcn):
            mine += theirs
        self.fc += other.fc

    def scale_(self, factor: float) -> None:
        for g in self.gcn:
            g *= factor
        self.fc *= factor


class BackpropCache(NamedTuple):
    """Forward-pass intermediates that ``policy_gradient`` reads."""

    a: np.ndarray  # adjacency
    hiddens: list[np.ndarray]  # inputs to each conv layer
    pres: list[np.ndarray]  # pre-activations of the relu layers
    m: np.ndarray  # output of the last (linear) conv layer


@dataclass
class PolicyOutput:
    """Per-edge action distributions and the masks that shaped them.

    ``cache`` holds the intermediates of the ``forward`` call that produced
    the output; it is None for an output built by hand.
    """

    Z: np.ndarray
    masks: np.ndarray
    cache: BackpropCache | None = None

    @property
    def num_edges(self) -> int:
        return self.Z.shape[0]


def init_params(
    mode: str,
    feature_dim: int,
    rng: np.random.Generator,
    hidden_dim: int = 64,
    depth: int = 2,
    i_max: int = 4,
) -> PolicyParams:
    """Glorot-initialized controller of the given depth."""
    if mode not in _NUM_ACTIONS:
        raise ValueError(f"mode must be one of {sorted(_NUM_ACTIONS)}, got {mode!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dims = [feature_dim] + [hidden_dim] * depth
    gcn = [glorot_uniform(rng, dims[i], dims[i + 1]) for i in range(depth)]
    fc = glorot_uniform(rng, hidden_dim, 2 * _NUM_ACTIONS[mode])
    return PolicyParams(mode=mode, gcn=gcn, fc=fc, i_max=i_max)


def _masks_for(mode: str, ops: Sequence[OperationKind]) -> np.ndarray:
    k = len(ops)
    if mode == NAT:
        return np.ones((k, 3), dtype=int)
    return VALID[[op.index for op in ops]]


def forward(enc: GraphEncoding, ops: Sequence[OperationKind], params: PolicyParams) -> PolicyOutput:
    """Per-edge transition distributions for the given cell, with the backprop cache."""
    k = len(ops)
    num_inter = k // 2
    if k != 2 * num_inter or num_inter != enc.adjacency.shape[0] - 3:
        raise ValueError("ops must list both slots of every intermediate node")
    a, x = enc.adjacency, enc.features
    if x.shape[1] != params.gcn[0].shape[0]:
        raise ValueError(
            f"feature dim {x.shape[1]} does not match controller input "
            f"{params.gcn[0].shape[0]}"
        )
    h = x
    hiddens = [h]
    pres = []
    for w in params.gcn[:-1]:
        pre = a @ h @ w
        pres.append(pre)
        h = np.maximum(pre, 0.0)
        hiddens.append(h)
    m = a @ h @ params.gcn[-1]

    c = params.num_actions
    logits = np.empty((k, c))
    for l in range(num_inter):
        node_logits = m[2 + l] @ params.fc
        logits[2 * l] = node_logits[:c]
        logits[2 * l + 1] = node_logits[c:]

    masks = _masks_for(params.mode, ops)
    if params.mode == NAT:
        z = softmax(logits)
    else:
        z = bmsoftmax(logits, masks)
    return PolicyOutput(Z=z, masks=masks, cache=BackpropCache(a, hiddens, pres, m))


#: Tolerance on a row's probability sum, the one ``Generator.choice`` applies.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def sample_actions(out: PolicyOutput, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """One independent categorical draw per edge; returns (indices, joint log-prob).

    Edge e's action is the draw ``rng.choice(c, p=Z[e] / Z[e].sum())`` would
    make: one uniform variate per edge, in edge order, located in the row's
    normalized CDF. The whole batch takes one ``rng.random(k)``, which consumes
    the generator exactly as the per-edge ``choice`` calls would.
    """
    k = out.num_edges
    p = out.Z / out.Z.sum(axis=1, keepdims=True)
    if not np.isfinite(p).all():
        raise ValueError("probabilities contain NaN or inf")
    if (p < 0).any():
        raise ValueError("probabilities are not non-negative")
    if (np.abs(p.sum(axis=1) - 1.0) > _SUM_ATOL).any():
        raise ValueError("probabilities do not sum to 1")
    cdf = p.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(k)
    actions = (cdf <= u[:, None]).sum(axis=1)
    return actions, log_prob_of(out, actions)


def argmax_actions(out: PolicyOutput) -> np.ndarray:
    """Per-row argmax; ties break toward the lowest action index."""
    return out.Z.argmax(axis=1)


def log_prob_of(out: PolicyOutput, actions: np.ndarray) -> float:
    return float(np.log(out.Z[np.arange(out.num_edges), actions]).sum())


def total_entropy(out: PolicyOutput) -> float:
    """Sum of per-edge row entropies (the policy factorizes over edges)."""
    z = out.Z
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(z > 0, z * np.log(z), 0.0)
    return float(-terms.sum())


def actions_to_ops(
    mode: str, current_ops: Sequence[OperationKind], actions: np.ndarray
) -> tuple[OperationKind, ...]:
    """Translate action indices into per-edge target operations."""
    if mode == NAT:
        table = (None, OperationKind.NULL, OperationKind.SKIP)
        return tuple(
            cur if a == 0 else table[a] for cur, a in zip(current_ops, actions)
        )
    return tuple(OPERATIONS[a] for a in actions)


def policy_gradient(
    out: PolicyOutput,
    params: PolicyParams,
    actions: np.ndarray,
    reward: float,
    entropy_weight: float,
) -> ParamGrads:
    """Exact gradient of reward * log pi(actions) + entropy_weight * H(pi).

    ``out`` must come from ``forward`` with these same ``params``: the
    gradient is built from its backprop cache without re-running the forward
    pass, so the cache is valid only until ``params`` change (for example
    through ``ascend_``). An output with no cache is rejected.
    """
    if out.cache is None:
        raise ValueError("policy output has no backprop cache; pass the output of forward()")
    if not np.isfinite(reward):
        raise ValueError("reward must be finite")
    a, hiddens, pres, m = out.cache
    z = out.Z
    k, c = z.shape
    rows = np.arange(k)
    if np.any(out.masks[rows, actions] == 0):
        bad = int(np.argmax(out.masks[rows, actions] == 0))
        raise ValueError(f"action at edge {bad} violates its transition mask")

    # d/du of the objective. For a masked row the softmax Jacobian is zero at
    # cleared bits, so both terms vanish there automatically.
    grad_logp = -z
    grad_logp[rows, actions] += 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(z > 0, np.log(z), 0.0)
    row_entropy = -(z * logp).sum(axis=1, keepdims=True)
    grad_h = np.where(z > 0, -z * (logp + row_entropy), 0.0)
    g_u = reward * grad_logp + entropy_weight * grad_h

    g_m = np.zeros_like(m)
    grad_fc = np.zeros_like(params.fc)
    for l, node_grad in enumerate(g_u.reshape(k // 2, 2 * c)):
        g_m[2 + l] = params.fc @ node_grad
        grad_fc += np.outer(m[2 + l], node_grad)

    grads = [np.zeros_like(w) for w in params.gcn]
    b = a @ hiddens[-1]
    grads[-1] = b.T @ g_m
    g_h = a.T @ (g_m @ params.gcn[-1].T)
    for i in range(params.depth - 2, -1, -1):
        g_pre = g_h * (pres[i] > 0)
        grads[i] = (a @ hiddens[i]).T @ g_pre
        g_h = a.T @ (g_pre @ params.gcn[i].T)
    return ParamGrads(gcn=grads, fc=grad_fc)


def ascend_(params: PolicyParams, grads: ParamGrads, lr: float) -> None:
    """One in-place gradient-ascent step on the controller."""
    for w, g in zip(params.gcn, grads.gcn):
        w += lr * g
    params.fc += lr * grads.fc


def save_policy(params: PolicyParams, path: str) -> None:
    """Write a portable JSON checkpoint (mode, shapes, row-major values)."""
    payload = {
        "mode": params.mode,
        "i_max": params.i_max,
        "depth": params.depth,
        "gcn_shapes": [list(w.shape) for w in params.gcn],
        "fc_shape": list(params.fc.shape),
        "gcn_values": [w.ravel().tolist() for w in params.gcn],
        "fc_values": params.fc.ravel().tolist(),
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    os.replace(tmp, path)


_POLICY_FIELDS = ("mode", "i_max", "depth", "gcn_shapes", "fc_shape", "gcn_values", "fc_values")


def load_policy(path: str) -> PolicyParams:
    """Read a ``save_policy`` checkpoint, validating every field.

    Raises ValueError naming the first field that is missing, has an unknown
    mode, has a shape inconsistent with ``i_max``, ``depth`` or the mode, or
    holds a non-finite value.
    """
    with open(path) as fh:
        payload = json.load(fh)
    checkpoint_fields(payload, _POLICY_FIELDS)
    mode = payload["mode"]
    if mode not in _NUM_ACTIONS:
        raise ValueError(f"mode: must be one of {sorted(_NUM_ACTIONS)}, got {mode!r}")
    i_max = checkpoint_dim(payload["i_max"], "i_max")
    depth = checkpoint_dim(payload["depth"], "depth")
    for field in ("gcn_shapes", "gcn_values"):
        if not isinstance(payload[field], list) or len(payload[field]) != depth:
            raise ValueError(f"{field}: expected a list of depth={depth} entries")
    fan_in = EncodingConfig(i_max=i_max).feature_dim
    gcn = []
    for i, (shape, vals) in enumerate(zip(payload["gcn_shapes"], payload["gcn_values"])):
        if not (isinstance(shape, list) and len(shape) == 2 and shape[0] == fan_in):
            raise ValueError(f"gcn_shapes[{i}]: expected [{fan_in}, width], got {shape!r}")
        width = checkpoint_dim(shape[1], f"gcn_shapes[{i}]")
        flat = checkpoint_array(vals, (fan_in * width,), f"gcn_values[{i}]")
        gcn.append(flat.reshape(fan_in, width))
        fan_in = width
    fc_shape = [fan_in, 2 * _NUM_ACTIONS[mode]]
    if payload["fc_shape"] != fc_shape:
        raise ValueError(f"fc_shape: expected {fc_shape}, got {payload['fc_shape']!r}")
    fc = checkpoint_array(payload["fc_values"], (fc_shape[0] * fc_shape[1],), "fc_values")
    return PolicyParams(mode=mode, gcn=gcn, fc=fc.reshape(fc_shape), i_max=i_max)
