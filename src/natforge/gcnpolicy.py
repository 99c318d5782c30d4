"""Graph-convolutional transition policy: forward pass, sampling, and gradients.

The controller embeds a cell's (adjacency, features) pair through a stack of
graph convolutions (two by default; the last one is linear) and maps each
intermediate node's embedding through a fully-connected head to two blocks of
logits, one per incoming slot. Both modes go through the one Binary-Masked
Softmax (BMSoftmax). In the 13-action mode (NAT++) each source operation's
row of ``VALID`` is its mask, so only rule-valid target operations receive
probability. The 3-action mode (NAT) shares the vocabulary {keep, to-null,
to-skip}, all three always allowed: its mask is all ones, which makes
BMSoftmax the plain softmax, bit for bit.

``forward`` takes one cell or a stack of same-size cells and maps every
intermediate node through the head in one stacked product. Its output
carries a backprop cache of the intermediates, so a policy step runs the
forward pass once. Inference (``trainer._infer_ops``), which never backprops,
runs the same private core without the cache: the same ``Z`` and ``masks``
bytes, and no activation outlives the call.

Gradients of the policy-gradient objective (log-probability times reward plus
an entropy bonus) are exact analytic derivatives, verified elsewhere against
central finite differences. They come in two parts: one draw's per-edge
gradient in the logits, the sum of its reward term (``_reward_logit_grads``,
which checks the actions) and the weighted entropy gradient (one pass per cell,
``_entropy_terms``, gives the entropy and its gradient), and ``backprop``,
which carries a logit gradient through the cached GCN down to the first
layer's weights and computes no gradient for the input features. The
objective is linear in the logit gradient, so the trainer forms the reward
terms of a cell's n draws in one stacked call, sums the draws of every cell and
backprops once per step; ``policy_gradient`` is the two composed for one draw.

The controller's input width is ``archgraph.FEATURE_DIM``, fixed by
``I_MAX``; a checkpoint records ``i_max`` and the loader accepts only ``I_MAX``.

Operations enter as index arrays into ``OPERATIONS``, the form a
``CellGraph`` stores them in.

Checkpoints carry ``format_version``; the loader rejects any other version.
Each weight array is stored as one ``checkpoint_text`` string, the base64 of
its row-major little-endian float64 bytes, so a loaded policy has the saved
weights bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .archgraph import FEATURE_DIM, I_MAX, GraphEncoding
from .numkernel import (
    FORMAT_VERSION,
    _arange,
    atomic_write,
    bmsoftmax,
    checkpoint_array,
    checkpoint_dim,
    checkpoint_fields,
    checkpoint_text,
    glorot_uniform,
)
from .opspace import NUM_OPERATIONS, OPERATIONS, VALID, nat_actions

NAT = "nat"
NATPP = "nat++"

#: Per mode, the transition mask of each source operation, indexed by its index.
_MASKS = {NAT: np.ones((NUM_OPERATIONS, 3), dtype=int), NATPP: VALID}
_NUM_ACTIONS = {mode: table.shape[1] for mode, table in _MASKS.items()}


@dataclass
class PolicyParams:
    """Controller weights: graph-conv stack plus the per-slot logit head."""

    mode: str
    gcn: list[np.ndarray]
    fc: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.gcn)

    @property
    def num_actions(self) -> int:
        return _NUM_ACTIONS[self.mode]

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.mode, [w.copy() for w in self.gcn], self.fc.copy())


@dataclass
class ParamGrads:
    gcn: list[np.ndarray]
    fc: np.ndarray

    def scale_(self, factor: float) -> None:
        for g in self.gcn:
            g *= factor
        self.fc *= factor


class BackpropCache(NamedTuple):
    """Forward-pass intermediates that ``backprop`` reads."""

    a: np.ndarray  # adjacency
    ahs: list[np.ndarray]  # adjacency times the input of each conv layer
    pres: list[np.ndarray]  # pre-activations of the relu layers
    m: np.ndarray  # output of the last (linear) conv layer


@dataclass
class PolicyOutput:
    """Per-edge action distributions and the masks that shaped them.

    ``cache`` holds the intermediates of the ``forward`` call that produced
    the output; it is None for an output of inference's cache-free pass or
    one built by hand.
    """

    Z: np.ndarray
    masks: np.ndarray
    cache: BackpropCache | None = None

    @property
    def num_edges(self) -> int:
        return self.Z.shape[0]


def init_params(
    mode: str, rng: np.random.Generator, hidden_dim: int = 64, depth: int = 2
) -> PolicyParams:
    """Glorot-initialized controller of the given depth, for cells of at most ``I_MAX``
    intermediates (``FEATURE_DIM`` inputs)."""
    if mode not in _NUM_ACTIONS:
        raise ValueError(f"mode must be one of {sorted(_NUM_ACTIONS)}, got {mode!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dims = [FEATURE_DIM] + [hidden_dim] * depth
    gcn = [glorot_uniform(rng, dims[i], dims[i + 1]) for i in range(depth)]
    fc = glorot_uniform(rng, hidden_dim, 2 * _NUM_ACTIONS[mode])
    return PolicyParams(mode=mode, gcn=gcn, fc=fc)


def forward(enc: GraphEncoding, ops: np.ndarray, params: PolicyParams) -> PolicyOutput:
    """Per-edge transition distributions for one cell or a batch of same-size cells.

    One cell: ``enc`` holds a (V, V) adjacency and (V, F) features, ``ops``
    the cell's K = 2(V - 3) operation indices, and the output's ``Z`` and
    ``masks`` are (K, c). A batch of B cells with V nodes each: the
    encodings are stacked on a leading axis, (B, V, V) and (B, V, F), ``ops``
    is (B, K), and ``Z`` and ``masks`` are (B, K, c). Either way the graph
    convolutions are the same matmuls, the head maps every intermediate node
    through ``fc`` in one stacked product, and the output carries the
    backprop cache.
    """
    return _forward(enc, ops, params, cache=True)


def _forward(
    enc: GraphEncoding, ops: np.ndarray, params: PolicyParams, cache: bool
) -> PolicyOutput:
    """``forward``'s checks and pass. With ``cache`` False the output's ``cache`` is None and
    no activation outlives the call; ``Z`` and ``masks`` are the same bytes either way."""
    a, x = enc.adjacency, enc.features
    index = np.asarray(ops)
    num_inter = a.shape[-1] - 3
    k = 2 * num_inter
    if index.shape != a.shape[:-2] + (k,):
        raise ValueError("ops must list both slots of every intermediate node")
    if index.dtype.kind not in "iu" or ((index < 0) | (index >= NUM_OPERATIONS)).any():
        raise ValueError(f"ops must be operation indices in [0, {NUM_OPERATIONS})")
    if x.shape[-1] != params.gcn[0].shape[0]:
        raise ValueError(
            f"feature dim {x.shape[-1]} does not match controller input "
            f"{params.gcn[0].shape[0]}"
        )
    # Each activation is dropped once the next one is computed, so without the
    # cache at most two of them are alive at a time.
    h = x
    ahs = []
    pres = []
    for w in params.gcn[:-1]:
        ah = a @ h
        pre = ah @ w
        if cache:
            ahs.append(ah)
            pres.append(pre)
        del ah
        h = np.maximum(pre, 0.0)
        del pre
    ah = a @ h
    del h
    m = ah @ params.gcn[-1]
    if cache:
        ahs.append(ah)
    del ah
    kept = BackpropCache(a, ahs, pres, m) if cache else None

    c = params.num_actions
    logits = (m[..., 2 : 2 + num_inter, :] @ params.fc).reshape(a.shape[:-2] + (k, c))
    del m
    masks = _MASKS[params.mode][index]
    return PolicyOutput(Z=bmsoftmax(logits, masks), masks=masks, cache=kept)


#: Tolerance on a row's probability sum, the one ``Generator.choice`` applies.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def sample_actions(out: PolicyOutput, rng: np.random.Generator) -> np.ndarray:
    """One independent categorical draw per edge; returns the action indices.

    Edge e's action is the draw ``rng.choice(c, p=Z[e] / Z[e].sum())`` would
    make: one uniform variate per edge, in edge order, located in the row's
    normalized CDF. The whole batch takes one ``rng.random(k)``, which consumes
    the generator exactly as the per-edge ``choice`` calls would.
    """
    return _sample_rows(out.Z, rng.random(out.num_edges))


def _sample_rows(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The action of each (N, c) row of ``z`` at its uniform variate ``u[i]``."""
    p = z / np.add.reduce(z, axis=1, keepdims=True)
    # Non-negative rows whose sums are within tolerance are also finite, so
    # one pass accepts valid rows; the checks below name what is wrong.
    sums_ok = np.abs(np.add.reduce(p, axis=1) - 1.0) <= _SUM_ATOL
    if not (np.logical_and.reduce(p >= 0, axis=None) and np.logical_and.reduce(sums_ok)):
        if not np.isfinite(p).all():
            raise ValueError("probabilities contain NaN or inf")
        if (p < 0).any():
            raise ValueError("probabilities are not non-negative")
        raise ValueError("probabilities do not sum to 1")
    cdf = np.add.accumulate(p, axis=1)
    cdf /= cdf[:, -1:]
    return np.add.reduce(cdf <= u[:, None], axis=1)


def _entropy_terms(z: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed row entropy of (K, c) probabilities and its logit gradient, from one ``log``.

    The gradient depends on the cell only, not on a draw. An entry that is not
    positive (a bit its mask clears) takes ``log(1.0) = 0.0`` (so no warning is
    raised), adds nothing to the entropy and gets a zero gradient."""
    on = z > 0
    logp = np.log(np.where(on, z, 1.0))
    z_logp = z * logp
    entropy = float(-np.add.reduce(np.where(on, z_logp, 0.0), axis=None))
    row_entropy = -np.add.reduce(z_logp, axis=1, keepdims=True)
    return entropy, np.where(on, -z * (logp + row_entropy), 0.0)


def total_entropy(out: PolicyOutput) -> float:
    """Sum of per-edge row entropies (the policy factorizes over edges)."""
    return _entropy_terms(out.Z)[0]


#: ``_NAT_TARGETS[src, a]`` is the operation index that NAT action a turns src into.
_NAT_TARGETS = np.array([[op.index for op in nat_actions(src)] for src in OPERATIONS])


def actions_to_ops(mode: str, current_ops: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Translate action indices into per-edge target operation indices."""
    actions = np.asarray(actions)
    if mode == NAT:
        if ((actions < 0) | (actions >= _NAT_TARGETS.shape[1])).any():
            raise ValueError("NAT actions must be in [0, 3)")
        return _NAT_TARGETS[current_ops, actions]
    return actions


def _reward_logit_grads(
    z: np.ndarray, masks: np.ndarray, actions: np.ndarray, rewards: Sequence[float]
) -> np.ndarray:
    """Per-edge gradients of reward * log pi(actions) in the logits, for n draws of one
    cell's (K, c) ``z`` and ``masks``: (n, K) actions and n rewards give the (n, K, c)
    gradients, draw j's block the same floats as a call with that draw alone.

    Raises ValueError on a non-finite reward, or naming the edge of the first
    draw-major action that is outside [0, c) or cleared by its transition mask.
    """
    if not all(map(math.isfinite, rewards)):
        raise ValueError("reward must be finite")
    k, c = z.shape
    # Checked before any indexing, where a negative action would wrap around.
    if actions.size and (
        np.minimum.reduce(actions, axis=None) < 0 or np.maximum.reduce(actions, axis=None) >= c
    ):
        bad = int(np.argmax((actions < 0) | (actions >= c)))
        raise ValueError(f"action {actions.flat[bad]} at edge {bad % k} is not in [0, {c})")
    rows = _arange(k)
    allowed = masks[rows, actions]
    if np.count_nonzero(allowed) < allowed.size:
        bad = int(allowed.argmin())
        raise ValueError(f"action at edge {bad % k} violates its transition mask")
    grad_logp = np.negative(z, out=np.empty(actions.shape + (c,)))
    grad_logp[_arange(len(actions))[:, None], rows, actions] += 1.0
    grad_logp *= np.array(rewards, dtype=float)[:, None, None]
    return grad_logp


def _rows(x: np.ndarray) -> np.ndarray:
    """Merge the leading axes of a per-node array into one row axis."""
    return x.reshape(-1, x.shape[-1])


def backprop(out: PolicyOutput, params: PolicyParams, g_u: np.ndarray) -> ParamGrads:
    """Parameter gradient of an objective whose gradient in the logits is ``g_u``.

    ``g_u`` has the shape of ``out.Z``; for a batched output the gradients of
    its cells are summed. ``out`` must come from ``forward`` with these same
    ``params``: the pass reads its backprop cache, which is valid only until
    ``params`` change (for example through ``ascend_``). An output with no
    cache is rejected. No gradient for the input features is computed.
    """
    if out.cache is None:
        raise ValueError("policy output has no backprop cache; pass the output of forward()")
    if g_u.shape != out.Z.shape:
        raise ValueError(f"logit gradient shape {g_u.shape} does not match Z {out.Z.shape}")
    a, ahs, pres, m = out.cache
    c = params.num_actions
    node_grad = g_u.reshape(g_u.shape[:-2] + (-1, 2 * c))
    num_inter = node_grad.shape[-2]
    g_m = np.zeros(m.shape)
    g_m[..., 2 : 2 + num_inter, :] = node_grad @ params.fc.T
    grad_fc = _rows(m[..., 2 : 2 + num_inter, :]).T @ _rows(node_grad)

    a_t = a.swapaxes(-1, -2)
    grads = [_rows(ahs[-1]).T @ _rows(g_m)]
    g_pre = g_m
    for i in range(params.depth - 2, -1, -1):
        g_h = a_t @ (g_pre @ params.gcn[i + 1].T)
        g_pre = g_h * (pres[i] > 0)
        grads.append(_rows(ahs[i]).T @ _rows(g_pre))
    return ParamGrads(gcn=grads[::-1], fc=grad_fc)


def policy_gradient(
    out: PolicyOutput,
    params: PolicyParams,
    actions: np.ndarray,
    reward: float,
    entropy_weight: float,
) -> ParamGrads:
    """Exact gradient of reward * log pi(actions) + entropy_weight * H(pi) for one cell.

    ``backprop`` of the draw's two logit-gradient terms, with their checks.
    """
    g_u = _reward_logit_grads(out.Z, out.masks, np.asarray(actions)[None], [reward])[0]
    g_u += entropy_weight * _entropy_terms(out.Z)[1]
    return backprop(out, params, g_u)


def ascend_(params: PolicyParams, grads: ParamGrads, lr: float) -> None:
    """One in-place gradient-ascent step on the controller."""
    for w, g in zip(params.gcn, grads.gcn):
        w += lr * g
    params.fc += lr * grads.fc


def save_policy(params: PolicyParams, path: str) -> None:
    """Write a portable JSON checkpoint: version, mode, shapes, and each weight array as
    one ``checkpoint_text`` string (base64 of its row-major little-endian float64 bytes)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "mode": params.mode,
        "i_max": I_MAX,
        "depth": params.depth,
        "gcn_shapes": [list(w.shape) for w in params.gcn],
        "fc_shape": list(params.fc.shape),
        "gcn_values": [checkpoint_text(w) for w in params.gcn],
        "fc_values": checkpoint_text(params.fc),
    }
    atomic_write(path, json.dumps(payload) + "\n")


_POLICY_FIELDS = ("mode", "i_max", "depth", "gcn_shapes", "fc_shape", "gcn_values", "fc_values")


def load_policy(path: str) -> PolicyParams:
    """Read a ``save_policy`` checkpoint, validating every field.

    Raises ValueError naming the first field that is missing, has an unknown
    ``format_version`` or mode, has an ``i_max`` other than ``I_MAX``, has a
    shape inconsistent with ``FEATURE_DIM``, ``depth`` or the mode, or holds an
    array that ``checkpoint_array`` rejects (not base64 of float64 bytes, the
    wrong value count, or a non-finite value).
    """
    with open(path) as fh:
        payload = json.load(fh)
    checkpoint_fields(payload, _POLICY_FIELDS)
    mode = payload["mode"]
    if not isinstance(mode, str) or mode not in _NUM_ACTIONS:
        raise ValueError(f"mode: must be one of {sorted(_NUM_ACTIONS)}, got {mode!r}")
    i_max = payload["i_max"]
    if type(i_max) is not int or i_max != I_MAX:
        raise ValueError(f"i_max: expected {I_MAX}, got {i_max!r}")
    depth = checkpoint_dim(payload["depth"], "depth")
    for field in ("gcn_shapes", "gcn_values"):
        if not isinstance(payload[field], list) or len(payload[field]) != depth:
            raise ValueError(f"{field}: expected a list of depth={depth} entries")
    fan_in = FEATURE_DIM
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
    return PolicyParams(mode=mode, gcn=gcn, fc=fc.reshape(fc_shape))
