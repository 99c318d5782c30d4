"""Dense numeric primitives: softmax variants, gradient checking, checkpoint arrays.

``atomic_write(files)`` is the one way the package writes files (checkpoints,
the training log, CLI outputs and manifests). Its argument is the list of
(path, text) pairs of one unit. Each text goes to a temporary file next to its
target, which is then renamed over the target, so readers never see partial
output. No target changes unless every temp file was written. Each rename is
its own step: if one fails, the targets before it hold their new text, the
rest keep their old, and no temp file is left.

A checkpoint stores each array as one string, ``checkpoint_text``: the
base64 (RFC 4648, padded, no line breaks) of its row-major little-endian
float64 bytes. ``checkpoint_array`` reads it back bit for bit.

Everything runs in float64 on numpy arrays with deterministic reduction
order, so repeated runs are bit-reproducible. The masked softmax assigns
exactly zero probability to cleared bits and renormalizes over the rest.
"""

from __future__ import annotations

import base64
import errno
import math
import os
from functools import lru_cache

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=64)
def _arange(n: int) -> np.ndarray:
    """``np.arange(n)``, cached and read-only, for the index arrays of per-step loops."""
    return _read_only(np.arange(n))


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
    if not np.logical_and.reduce(np.logical_or.reduce(on, axis=-1), axis=None):
        raise ValueError("mask must have at least one set bit")
    shifted = u - np.maximum.reduce(np.where(on, u, -np.inf), axis=-1, keepdims=True)
    # exp(-inf) is exactly 0.0, so cleared bits come out 0 from one ``where``.
    e = np.exp(np.where(on, shifted, -np.inf))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def cross_entropy_logits(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch and its gradient w.r.t. the logits.

    One max shift, ``exp`` and row sum serve both: the labels' log-probabilities
    are ``shifted - log(sum)`` and the gradient is ``softmax - onehot``, with
    the softmax ``exp(shifted) / sum``, the same floats as ``softmax``.
    """
    logits = np.asarray(logits, dtype=float)
    n = logits.shape[0]
    # The ufunc reductions are what ``max``, ``sum`` and ``mean`` call, without
    # their Python wrappers: the same floats.
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    rows = np.arange(n)
    loss = float(-(np.add.reduce(shifted[rows, labels] - np.log(total[:, 0])) / n))
    grad = e / total
    grad[rows, labels] -= 1.0
    return loss, grad / n


def grad_check(f, analytic_grad: np.ndarray, point: np.ndarray) -> float:
    """Max relative error between ``analytic_grad`` and central differences of ``f``.

    The per-coordinate denominator is max(|analytic|, |numeric|, 1e-8), so the
    result is scale-free and tolerant of exactly-zero coordinates.
    """
    point = np.asarray(point, dtype=float)
    analytic = np.asarray(analytic_grad, dtype=float).ravel()
    flat = point.ravel()
    step = 1e-5
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


def atomic_write(files: list[tuple[str, str]]) -> None:
    """Write each (path, text) through ``path + ".tmp"``, renaming only once all are written.

    A target that is an existing directory is rejected before anything is
    written. On any failure the temp files not yet renamed are removed and the
    error re-raised; an ``OSError`` names the target it was raised for, not
    its temp file.
    """
    written = []
    path = None
    try:
        for path, _ in files:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, text in files:
            with open(path + ".tmp", "w") as fh:
                written.append(path + ".tmp")
                fh.write(text)
        for path, _ in files:
            os.replace(written[0], path)
            del written[0]
    except BaseException as exc:
        for tmp in written:
            os.remove(tmp)
        if isinstance(exc, OSError):
            # Deleted, not set to None: a set ``filename2`` prints as "-> None".
            exc.filename = path
            del exc.filename2
        raise


def checkpoint_text(arr: np.ndarray) -> str:
    """An array as a checkpoint stores it: base64 of its row-major little-endian float64 bytes."""
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def checkpoint_array(text, shape: tuple[int, ...], field: str) -> np.ndarray:
    """Float array of exactly ``shape`` with only finite entries, read from ``checkpoint_text``.

    Raises ValueError naming ``field`` when the value is not a string of
    strict base64 whose bytes are whole float64 values, does not hold
    exactly the values of ``shape``, or includes NaN or infinity.
    """
    try:
        raw = base64.b64decode(text, validate=True) if isinstance(text, str) else None
    except ValueError:  # a character outside the alphabet, or bad padding
        raw = None
    if raw is None or len(raw) % 8:
        raise ValueError(f"{field}: not base64 of float64 bytes")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if arr.size != math.prod(shape):
        raise ValueError(f"{field}: shape {arr.shape}, expected {tuple(shape)}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{field}: contains NaN or infinity")
    return arr.reshape(shape)


#: The ``format_version`` every checkpoint writer records and every loader requires.
FORMAT_VERSION = 3


def checkpoint_fields(payload, fields: tuple[str, ...]) -> None:
    """Reject a checkpoint payload that is not an object, has another
    ``format_version`` than ``FORMAT_VERSION``, or lacks one of ``fields``."""
    if not isinstance(payload, dict):
        raise ValueError("checkpoint: expected a JSON object")
    version = payload.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        found = "missing" if "format_version" not in payload else repr(version)
        raise ValueError(f"format_version: expected {FORMAT_VERSION}, found {found}")
    for field in fields:
        if field not in payload:
            raise ValueError(f"{field}: missing")


def checkpoint_dim(value, field: str) -> int:
    """A positive integer read from a checkpoint; ValueError names ``field`` otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{field}: expected a positive integer, got {value!r}")
    return value
