"""Dense numeric primitives: softmax variants, entropy, gradient checking, checkpoint arrays.

Everything runs in float64 on numpy arrays with deterministic reduction
order, so repeated runs are bit-reproducible. The masked softmax assigns
exactly zero probability to cleared bits and renormalizes over the rest.
"""

from __future__ import annotations

import numpy as np


def softmax(u: np.ndarray) -> np.ndarray:
    """Standard softmax with max-subtraction for overflow safety."""
    u = np.asarray(u, dtype=float)
    shifted = u - u.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def bmsoftmax(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Binary-masked softmax: exp(u_i)*v_i / sum_j exp(u_j)*v_j.

    Cleared bits get exactly 0; the max-logit shift is taken over set bits
    only, so arbitrarily large logits on cleared bits cannot overflow.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"logit/mask shape mismatch: {u.shape} vs {v.shape}")
    on = v != 0
    if not on.any(axis=-1).all():
        raise ValueError("mask must have at least one set bit")
    shifted = u - np.where(on, u, -np.inf).max(axis=-1, keepdims=True)
    e = np.where(on, np.exp(np.where(on, shifted, 0.0)), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats, with 0*ln(0) taken as 0."""
    p = np.asarray(p, dtype=float)
    if (p < 0).any():
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def log_softmax(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    shifted = u - u.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_logits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient w.r.t. the logits."""
    logp = log_softmax(logits)
    n = logits.shape[0]
    loss = float(-logp[np.arange(n), labels].mean())
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


def grad_check(f, analytic_grad: np.ndarray, point: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error between ``analytic_grad`` and central differences of ``f``.

    The per-coordinate denominator is max(|analytic|, |numeric|, 1e-8), so the
    result is scale-free and tolerant of exactly-zero coordinates.
    """
    point = np.asarray(point, dtype=float)
    analytic = np.asarray(analytic_grad, dtype=float).ravel()
    flat = point.ravel()
    worst = 0.0
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + step
        f_plus = f(point)
        flat[i] = saved - step
        f_minus = f(point)
        flat[i] = saved
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(f"non-finite evaluation at coordinate {i}")
        numeric = (f_plus - f_minus) / (2.0 * step)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init in +-sqrt(6/(fan_in+fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def checkpoint_array(values, shape: tuple[int, ...], field: str) -> np.ndarray:
    """Float array of exactly ``shape`` with only finite entries, read from a checkpoint.

    Raises ValueError naming ``field`` when the values are not numeric, do not
    have that shape, or include NaN or infinity.
    """
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{field}: not a numeric array") from None
    if arr.shape != tuple(shape):
        raise ValueError(f"{field}: shape {arr.shape}, expected {tuple(shape)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{field}: contains NaN or infinity")
    return arr


def checkpoint_fields(payload, fields: tuple[str, ...]) -> None:
    """Reject a checkpoint payload that is not an object or lacks one of ``fields``."""
    if not isinstance(payload, dict):
        raise ValueError("checkpoint: expected a JSON object")
    for field in fields:
        if field not in payload:
            raise ValueError(f"{field}: missing")


def checkpoint_dim(value, field: str) -> int:
    """A positive integer read from a checkpoint; ValueError names ``field`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{field}: expected a positive integer, got {value!r}")
    return value
