"""Operation taxonomy, analytic cost model, and transition-validity rules.

The operation vocabulary has 13 entries: standard/separable/dilated-separable
convolutions, max/average pooling, skip, and null. A replacement of one
operation by another is *valid* when it keeps the type on the efficiency
chain (conv -> sep_conv -> dil_sep_conv -> pooling) and does not grow the
kernel; skip and null are reachable from everything and form a sink pair.
Validity implies cost never increases, with the single deliberate exception
null -> skip, which buys representation ability for a small copy cost and
is whitelisted in every audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

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
    CONV_1X1 = "conv_1x1"
    CONV_3X3 = "conv_3x3"
    CONV_5X5 = "conv_5x5"
    SEP_CONV_3X3 = "sep_conv_3x3"
    SEP_CONV_5X5 = "sep_conv_5x5"
    DIL_SEP_CONV_3X3 = "dil_sep_conv_3x3"
    DIL_SEP_CONV_5X5 = "dil_sep_conv_5x5"
    MAX_POOL_3X3 = "max_pool_3x3"
    MAX_POOL_5X5 = "max_pool_5x5"
    AVG_POOL_3X3 = "avg_pool_3x3"
    AVG_POOL_5X5 = "avg_pool_5x5"
    SKIP = "skip"
    NULL = "null"

    @property
    def type_class(self) -> TypeClass:
        return _TYPE_OF[self]

    @property
    def kernel(self) -> int | None:
        """Kernel size, or None for skip and null."""
        return _KERNEL_OF[self]

    @property
    def index(self) -> int:
        return _INDEX_OF[self]

    def __repr__(self) -> str:
        return f"OperationKind.{self.name}"


_TYPE_OF = {
    OperationKind.CONV_1X1: TypeClass.CONV,
    OperationKind.CONV_3X3: TypeClass.CONV,
    OperationKind.CONV_5X5: TypeClass.CONV,
    OperationKind.SEP_CONV_3X3: TypeClass.SEP_CONV,
    OperationKind.SEP_CONV_5X5: TypeClass.SEP_CONV,
    OperationKind.DIL_SEP_CONV_3X3: TypeClass.DIL_SEP_CONV,
    OperationKind.DIL_SEP_CONV_5X5: TypeClass.DIL_SEP_CONV,
    OperationKind.MAX_POOL_3X3: TypeClass.MAX_POOL,
    OperationKind.MAX_POOL_5X5: TypeClass.MAX_POOL,
    OperationKind.AVG_POOL_3X3: TypeClass.AVG_POOL,
    OperationKind.AVG_POOL_5X5: TypeClass.AVG_POOL,
    OperationKind.SKIP: TypeClass.SKIP,
    OperationKind.NULL: TypeClass.NULL,
}

_KERNEL_OF = {
    OperationKind.CONV_1X1: 1,
    OperationKind.CONV_3X3: 3,
    OperationKind.CONV_5X5: 5,
    OperationKind.SEP_CONV_3X3: 3,
    OperationKind.SEP_CONV_5X5: 5,
    OperationKind.DIL_SEP_CONV_3X3: 3,
    OperationKind.DIL_SEP_CONV_5X5: 5,
    OperationKind.MAX_POOL_3X3: 3,
    OperationKind.MAX_POOL_5X5: 5,
    OperationKind.AVG_POOL_3X3: 3,
    OperationKind.AVG_POOL_5X5: 5,
    OperationKind.SKIP: None,
    OperationKind.NULL: None,
}

#: All operations in canonical index order.
OPERATIONS: tuple[OperationKind, ...] = tuple(OperationKind)
NUM_OPERATIONS = len(OPERATIONS)

_INDEX_OF = {op: i for i, op in enumerate(OPERATIONS)}
_BY_NAME = {op.value: op for op in OPERATIONS}

#: The one valid transition allowed to increase madds (copy traffic).
WHITELISTED_TRANSITIONS = frozenset({(OperationKind.NULL, OperationKind.SKIP)})


def op_from_name(name: str) -> OperationKind:
    """Look up an operation by its snake-case serialized name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown operation name: {name!r}") from None


def make_op(type_class: TypeClass, kernel: int | None = None) -> OperationKind:
    """Build an operation from its type class and kernel size.

    Skip and null take no kernel; pairing them with one is rejected, as is
    any (type, kernel) combination outside the 13-entry vocabulary.
    """
    if type_class in (TypeClass.SKIP, TypeClass.NULL):
        if kernel is not None:
            raise ValueError(f"{type_class.value} carries no kernel, got {kernel}")
        return OperationKind.SKIP if type_class is TypeClass.SKIP else OperationKind.NULL
    for op in OPERATIONS:
        if op.type_class is type_class and op.kernel == kernel:
            return op
    raise ValueError(f"no operation with type {type_class.value} and kernel {kernel}")


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


@dataclass(frozen=True)
class OpCost:
    """Parameter and multiply-add counts for one operation instance."""

    params: int
    madds: int

    def __post_init__(self) -> None:
        if self.params < 0 or self.madds < 0:
            raise ValueError("costs must be non-negative")


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


def cost_of_op(op: OperationKind, cfg: CostConfig) -> OpCost:
    return OpCost(params_of(op, cfg), madds_of(op, cfg))


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


@dataclass(frozen=True)
class TransitionMask:
    """Binary validity vector over the 13 operations for one source."""

    source: OperationKind
    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != NUM_OPERATIONS:
            raise ValueError("mask must have one bit per operation")
        if self.bits[self.source.index] != 1:
            raise ValueError("staying unchanged must be valid")
        if not any(self.bits):
            raise ValueError("mask must have at least one set bit")

    def allows(self, op: OperationKind) -> bool:
        return bool(self.bits[op.index])

    def ops(self) -> tuple[OperationKind, ...]:
        return tuple(op for op in OPERATIONS if self.bits[op.index])

    def popcount(self) -> int:
        return sum(self.bits)


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

_MASKS = tuple(TransitionMask(op, tuple(int(b) for b in VALID[op.index])) for op in OPERATIONS)


def transition_mask(source: OperationKind) -> TransitionMask:
    """Validity mask for one source operation under the joint rule.

    Masks are frozen and prebuilt from ``VALID``, so every call for the same
    source returns the same shared object.
    """
    return _MASKS[source.index]


def audit_rows(cfg: CostConfig) -> list[dict]:
    """All 169 ordered transition rows with validity and cost deltas.

    Each row carries ``from``, ``to``, ``valid``, ``whitelisted``,
    ``params_delta``, and ``madds_delta``; a valid, non-whitelisted row with
    a positive delta is a rule violation.
    """
    rows = []
    for src in OPERATIONS:
        src_cost = cost_of_op(src, cfg)
        for dst in OPERATIONS:
            dst_cost = cost_of_op(dst, cfg)
            rows.append(
                {
                    "from": src.value,
                    "to": dst.value,
                    "valid": int(is_valid_transition_natpp(src, dst)),
                    "whitelisted": int((src, dst) in WHITELISTED_TRANSITIONS),
                    "params_delta": dst_cost.params - src_cost.params,
                    "madds_delta": dst_cost.madds - src_cost.madds,
                }
            )
    return rows


def audit_violations(cfg: CostConfig) -> list[dict]:
    """Valid, non-whitelisted transitions whose cost increases (should be empty)."""
    return [
        r
        for r in audit_rows(cfg)
        if r["valid"]
        and not r["whitelisted"]
        and (r["params_delta"] > 0 or r["madds_delta"] > 0)
    ]
