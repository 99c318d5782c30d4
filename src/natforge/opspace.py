"""Operation taxonomy, analytic cost model, and transition-validity rules.

The operation vocabulary has 13 entries: standard/separable/dilated-separable
convolutions, max/average pooling, skip, and null. A replacement of one
operation by another is *valid* when it keeps the type on the efficiency
chain (conv -> sep_conv -> dil_sep_conv -> pooling) and does not grow the
kernel; skip and null are reachable from everything and form a sink pair.
Validity implies cost never increases, with the single deliberate exception
null -> skip, which buys representation ability for a small copy cost and
is whitelisted in every audit.

Each rule is stated once, and everything else is derived from it:

* the vocabulary: the ``OperationKind`` members, each with its name, type
  class, kernel and index;
* validity: ``is_valid_transition_natpp``, tabulated as ``VALID``, whose row
  ``transition_mask(source)`` is one source's mask;
* cost: ``params_of`` and ``madds_of``, tabulated per geometry as
  ``op_costs``;
* the cost audit: ``non_increasing_table`` (params and madds do not grow)
  plus ``WHITELISTED_TRANSITIONS``. A violation is a valid transition the
  table rejects.

Costs are Python ints, exact at any geometry, also beyond the int64 range.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np


class TypeClass(Enum):
    CONV = "conv"
    SEP_CONV = "sep_conv"
    DIL_SEP_CONV = "dil_sep_conv"
    MAX_POOL = "max_pool"
    AVG_POOL = "avg_pool"
    SKIP = "skip"
    NULL = "null"


# Position on the type-transition chain; later stages are cheaper.
# Max and average pooling share a stage and are mutually reachable.
_STAGE = {
    TypeClass.CONV: 0,
    TypeClass.SEP_CONV: 1,
    TypeClass.DIL_SEP_CONV: 2,
    TypeClass.MAX_POOL: 3,
    TypeClass.AVG_POOL: 3,
}


class OperationKind(Enum):
    """One operation of the vocabulary, stated once with every fact about it.

    ``value`` is the serialized name, ``type_class`` and ``kernel`` (None for
    skip and null) feed the transition rule and the cost model, and
    ``index`` is the position in declaration order, set as each member is
    created.
    """

    type_class: TypeClass
    kernel: int | None
    index: int

    CONV_1X1 = ("conv_1x1", TypeClass.CONV, 1)
    CONV_3X3 = ("conv_3x3", TypeClass.CONV, 3)
    CONV_5X5 = ("conv_5x5", TypeClass.CONV, 5)
    SEP_CONV_3X3 = ("sep_conv_3x3", TypeClass.SEP_CONV, 3)
    SEP_CONV_5X5 = ("sep_conv_5x5", TypeClass.SEP_CONV, 5)
    DIL_SEP_CONV_3X3 = ("dil_sep_conv_3x3", TypeClass.DIL_SEP_CONV, 3)
    DIL_SEP_CONV_5X5 = ("dil_sep_conv_5x5", TypeClass.DIL_SEP_CONV, 5)
    MAX_POOL_3X3 = ("max_pool_3x3", TypeClass.MAX_POOL, 3)
    MAX_POOL_5X5 = ("max_pool_5x5", TypeClass.MAX_POOL, 5)
    AVG_POOL_3X3 = ("avg_pool_3x3", TypeClass.AVG_POOL, 3)
    AVG_POOL_5X5 = ("avg_pool_5x5", TypeClass.AVG_POOL, 5)
    SKIP = ("skip", TypeClass.SKIP, None)
    NULL = ("null", TypeClass.NULL, None)

    def __new__(cls, name: str, type_class: TypeClass, kernel: int | None):
        op = object.__new__(cls)
        op._value_ = name
        op.type_class = type_class
        op.kernel = kernel
        op.index = len(cls.__members__)
        return op

    def __repr__(self) -> str:
        return f"OperationKind.{self.name}"


#: All operations in canonical index order.
OPERATIONS: tuple[OperationKind, ...] = tuple(OperationKind)
NUM_OPERATIONS = len(OPERATIONS)

#: The one valid transition allowed to increase madds (copy traffic).
WHITELISTED_TRANSITIONS = frozenset({(OperationKind.NULL, OperationKind.SKIP)})


#: Serialized name -> index into ``OPERATIONS``; the cell parser reads it directly.
_OP_INDEX = {op.value: op.index for op in OPERATIONS}


def op_from_name(name: str) -> OperationKind:
    """Look up an operation by its snake-case serialized name."""
    try:
        return OPERATIONS[_OP_INDEX[name]]
    except (KeyError, TypeError):
        raise ValueError(f"unknown operation name: {name!r}") from None


@dataclass(frozen=True)
class CostConfig:
    """Feature-map geometry the cost model is evaluated at.

    The rules guarantee non-increasing cost only for ``channels_out >= 2``.
    The binding transition is conv_k -> sep_conv_k (or dil_sep_conv_k), which
    keeps the kernel: it needs k^2*Cin*Cout >= k^2*Cin + Cin*Cout, i.e.
    k^2*Cout >= k^2 + Cout, i.e. Cout >= k^2/(k^2 - 1). Separable kernels are
    3 and 5, so the bound is 9/8 or 25/24, and the least integer meeting it is
    2. Madds scale the same parameters by H*W, and every other valid
    transition is non-increasing at any positive geometry.
    """

    channels_in: int = 128
    channels_out: int = 128
    height: int = 32
    width: int = 32

    def __post_init__(self) -> None:
        for field in ("channels_in", "height", "width"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        if self.channels_out < 2:
            raise ValueError(
                f"channels_out must be >= 2 for the cost guarantee, got {self.channels_out}"
            )


def params_of(op: OperationKind, cfg: CostConfig) -> int:
    """Closed-form parameter count.

    Conv_k: k^2 * Cin * Cout. Separable (plain or dilated): k^2 * Cin
    depthwise taps plus Cin * Cout pointwise mix; dilation adds nothing.
    Pooling, skip, and null are parameter-free.
    """
    k = op.kernel
    tc = op.type_class
    if tc is TypeClass.CONV:
        return k * k * cfg.channels_in * cfg.channels_out
    if tc in (TypeClass.SEP_CONV, TypeClass.DIL_SEP_CONV):
        return k * k * cfg.channels_in + cfg.channels_in * cfg.channels_out
    return 0


def madds_of(op: OperationKind, cfg: CostConfig) -> int:
    """Multiply-add count at the given geometry.

    Convolution variants apply their parameters once per spatial position.
    Pooling does k^2 window reductions per channel per position. Skip is
    charged its Cin*H*W element copies so that it stays strictly costlier
    than null.
    """
    hw = cfg.height * cfg.width
    tc = op.type_class
    if tc in (TypeClass.CONV, TypeClass.SEP_CONV, TypeClass.DIL_SEP_CONV):
        return params_of(op, cfg) * hw
    if tc in (TypeClass.MAX_POOL, TypeClass.AVG_POOL):
        return op.kernel * op.kernel * cfg.channels_in * hw
    if tc is TypeClass.SKIP:
        return cfg.channels_in * hw
    return 0


@lru_cache(maxsize=64)
def op_costs(cfg: CostConfig) -> tuple[tuple[int, int], ...]:
    """``(params_of(op, cfg), madds_of(op, cfg))`` of every operation, by its index.

    Tables are cached by the (frozen, hashable) ``CostConfig``, for the 64
    geometries used last.
    """
    return tuple((params_of(op, cfg), madds_of(op, cfg)) for op in OPERATIONS)


def nat_actions(source: OperationKind) -> tuple[OperationKind, OperationKind, OperationKind]:
    """The fixed 3-action vocabulary: keep, replace with null, replace with skip."""
    return (source, OperationKind.NULL, OperationKind.SKIP)


def is_valid_transition_natpp(src: OperationKind, dst: OperationKind) -> bool:
    """Joint two-level rule: type chain forward and kernel non-increasing.

    Staying put and dropping to skip/null are always valid. Skip and null
    never transition back to a kernelled operation.
    """
    if dst is src:
        return True
    if dst.type_class in (TypeClass.SKIP, TypeClass.NULL):
        return True
    if src.type_class in (TypeClass.SKIP, TypeClass.NULL):
        return False
    return _STAGE[dst.type_class] >= _STAGE[src.type_class] and dst.kernel <= src.kernel


def _validity_table() -> np.ndarray:
    table = np.array(
        [[int(is_valid_transition_natpp(src, dst)) for dst in OPERATIONS] for src in OPERATIONS],
        dtype=int,
    )
    table.flags.writeable = False
    return table


#: Read-only 13x13 validity table: ``VALID[src.index, dst.index]`` is 1 iff the
#: transition is valid. Built once from ``is_valid_transition_natpp``, which
#: stays the single definition of the rule.
VALID = _validity_table()


def transition_mask(source: OperationKind) -> np.ndarray:
    """Read-only 0/1 validity mask of one source operation: the row ``VALID[source.index]``."""
    return VALID[source.index]


@lru_cache(maxsize=64)
def non_increasing_table(cfg: CostConfig) -> np.ndarray:
    """Read-only 13x13 bool table of the per-edge cost audit at one geometry.

    ``table[src.index, dst.index]`` is True iff replacing src by dst keeps
    both params and madds in ``op_costs(cfg)`` from growing, or the pair is in
    ``WHITELISTED_TRANSITIONS``. Tables are cached like ``op_costs``.
    """
    costs = op_costs(cfg)
    table = np.array(
        [
            [
                (src, dst) in WHITELISTED_TRANSITIONS or (pd <= ps and md <= ms)
                for dst, (pd, md) in zip(OPERATIONS, costs)
            ]
            for src, (ps, ms) in zip(OPERATIONS, costs)
        ]
    )
    table.flags.writeable = False
    return table


def audit_rows(cfg: CostConfig) -> list[dict]:
    """All 169 ordered transition rows with validity and cost deltas.

    Each row carries ``from``, ``to``, ``valid``, ``whitelisted``,
    ``params_delta``, and ``madds_delta``, in ``VALID``'s row-major order.
    """
    costs = op_costs(cfg)
    return [
        {
            "from": src.value,
            "to": dst.value,
            "valid": int(VALID[src.index, dst.index]),
            "whitelisted": int((src, dst) in WHITELISTED_TRANSITIONS),
            "params_delta": pd - ps,
            "madds_delta": md - ms,
        }
        for src, (ps, ms) in zip(OPERATIONS, costs)
        for dst, (pd, md) in zip(OPERATIONS, costs)
    ]


def audit_violations(cfg: CostConfig) -> list[dict]:
    """Rows of the valid transitions that ``non_increasing_table`` rejects (should be empty)."""
    rows = audit_rows(cfg)
    return [rows[i] for i in np.flatnonzero(VALID & ~non_increasing_table(cfg))]
