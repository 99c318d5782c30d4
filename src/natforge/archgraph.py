"""Cell DAG model: construction, validation, sampling, encoding, and costing.

A cell has two input nodes (indices -2 and -1, the outputs of the two
preceding cells), I intermediate nodes (0..I-1), and one output node
(index I) that concatenates every intermediate. Each intermediate owns
exactly two incoming edge slots, each labeled with an operation, so a cell
with I intermediates has K = 2*I labeled edges. Edge sources always precede
their targets, which makes the graph acyclic by construction.

A ``CellGraph`` holds ``num_nodes`` and two read-only int arrays in
canonical order: ``sources[i]`` and ``ops[i]`` (an index into
``OPERATIONS``) of edge i, which is slot i % 2 of node i // 2. Slot and
target are implied by the position, so they need no storage and cannot
disagree with it. ``edges`` is a tuple of ``EdgeSlot`` views built on
demand.

A cell is validated exactly once, when it is built from outside data:
``CellGraph(num_nodes, edges)`` and ``make_cell`` check one cell, and the
parser checks a whole file with one array pass. Everything a valid cell
passes through after that trusts it: ``sample_uniform`` draws sources inside
their legal range, and a rewrite reuses its input's sources and checks only
the new operations, for range and against ``VALID``. So encoding,
serialization, the cost audit and the reward providers never re-check a cell.

Parsing, encoding, rewriting and serialization each have a private core
over many cells: ``_parse`` and ``_serialize`` work on the flat form
``(nodes, bounds, sources, ops)`` (node counts, per-cell edge offsets and
the concatenated edge arrays), ``_encode`` stacks cells of one node count,
and ``_checked_ops`` checks a group's concatenated rewrites. The public
functions wrap them, ``encode`` and ``apply_transitions`` for one cell. The
trainer and ``natforge optimize`` call the cores, and ``optimize`` runs on
the flat form from file read to file write without building a
``CellGraph``. The cell-file codec costs work per distinct line, not per
line or per edge: a file repeats few distinct lines, and the parser
tokenizes each of them once and the serializer renders each of them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterable, Sequence

import numpy as np

from .opspace import (
    NUM_OPERATIONS,
    OPERATIONS,
    CostConfig,
    OperationKind,
    VALID,
    non_increasing_table,
    op_costs,
    op_from_name,
    _OP_INDEX,
)


class GraphError(ValueError):
    """A cell graph violates a structural invariant."""


class ParseError(ValueError):
    """Malformed cell text; the message names the offending line."""


@dataclass(frozen=True)
class EdgeSlot:
    target_node: int
    slot: int
    source_node: int
    op: OperationKind


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=np.int64)
    arr.flags.writeable = False
    return arr


class CellGraph:
    """Immutable cell DAG: ``num_nodes`` plus per-edge ``sources`` and ``ops`` arrays.

    ``CellGraph(num_nodes, edges)`` validates the edge slots, which must
    already be in canonical (target, slot) order; ``make_cell`` sorts them
    first.
    """

    __slots__ = ("num_nodes", "sources", "ops")

    def __init__(self, num_nodes: int, edges: Iterable[EdgeSlot]):
        edges = tuple(edges)
        _check_cell(num_nodes, [(e.target_node, e.slot, e.source_node) for e in edges])
        self.num_nodes = num_nodes
        self.sources = _frozen([e.source_node for e in edges])
        self.ops = _frozen([e.op.index for e in edges])

    @property
    def num_intermediate(self) -> int:
        return self.num_nodes - 3

    @property
    def num_edges(self) -> int:
        return len(self.ops)

    @property
    def edges(self) -> tuple[EdgeSlot, ...]:
        """Per-edge views in canonical (target, slot) order."""
        return tuple(
            EdgeSlot(i >> 1, i & 1, f, OPERATIONS[o])
            for i, (f, o) in enumerate(zip(self.sources.tolist(), self.ops.tolist()))
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self.sources, other.sources)
            and np.array_equal(self.ops, other.ops)
        )

    def __hash__(self) -> int:
        return hash((self.num_nodes, self.sources.tobytes(), self.ops.tobytes()))

    def __repr__(self) -> str:
        ops = [OPERATIONS[o].value for o in self.ops.tolist()]
        return f"CellGraph(num_nodes={self.num_nodes}, sources={self.sources.tolist()}, ops={ops})"


def _cell(num_nodes: int, sources: np.ndarray, ops: np.ndarray) -> CellGraph:
    """A cell from read-only arrays that are already known to be valid."""
    graph = object.__new__(CellGraph)
    graph.num_nodes = num_nodes
    graph.sources = sources
    graph.ops = ops
    return graph


def make_cell(num_nodes: int, edges: Iterable[EdgeSlot]) -> CellGraph:
    """Build and validate a cell, canonicalizing edge order."""
    return CellGraph(num_nodes, sorted(edges, key=lambda e: (e.target_node, e.slot)))


#: Ints beyond this magnitude are clipped before the array checks; they fail
#: every check either way, and error messages quote the unclipped values.
_CLIP = 2**61


def _int_rows(rows: Sequence[tuple[int, ...]], width: int) -> np.ndarray:
    """A (len(rows), width) int64 array of tuples of Python ints."""
    try:
        flat = np.fromiter(chain.from_iterable(rows), np.int64, width * len(rows))
    except OverflowError:
        flat = np.clip(np.array(rows, dtype=object), -_CLIP, _CLIP).astype(np.int64)
    return flat.reshape(len(rows), width)


def _faulty_cells(
    nodes: np.ndarray,
    bounds: np.ndarray,
    targets: np.ndarray,
    slots: np.ndarray,
    sources: np.ndarray,
) -> np.ndarray:
    """Per cell, True iff it breaks a structural invariant; the one statement of the rule.

    Cell b has ``nodes[b]`` nodes and the edges ``bounds[b]:bounds[b + 1]``
    of the flat edge arrays, sorted by (target, slot). A cell needs at least
    one intermediate, exactly 2*I edges, and edge i must be slot i % 2 of
    node i // 2 with a source in [-2, i // 2). With exactly 2*I edges, the
    slot check rules out dangling targets and bad, duplicate or missing
    slots, and keeps the canonical order that consumers index by.
    """
    counts = np.diff(bounds)
    inter = np.clip(nodes, -_CLIP, _CLIP) - 3
    bad = (inter < 1) | (counts != 2 * inter)
    pos = np.arange(len(targets)) - np.repeat(bounds[:-1], counts)
    edge_bad = (targets != pos >> 1) | (slots != pos & 1) | (sources < -2) | (sources >= targets)
    bad[np.repeat(np.arange(len(nodes)), counts)[edge_bad]] = True
    return bad


def _fault_message(num_nodes: int, edges: Sequence[tuple[int, int, int]]) -> str:
    """Name the first fault of one cell that ``_faulty_cells`` flagged.

    ``edges`` are the cell's (target, slot, source) triples in (target, slot)
    order, with their values as given.
    """
    num_inter = num_nodes - 3
    if num_inter < 1:
        return "node count: need at least one intermediate node (|V| >= 4)"
    if len(edges) != 2 * num_inter:
        return (
            f"slot count: expected {2 * num_inter} edges for {num_inter} "
            f"intermediates, got {len(edges)}"
        )
    for i, (t, s, f) in enumerate(edges):
        if t != i >> 1 or s != i & 1:
            return _slot_error(edges, num_inter)
        if f < -2:
            return f"dangling node: source {f}"
        if f >= t:
            return f"acyclicity: edge {f}->{t} does not go forward"
    raise AssertionError("no fault in a cell the array check flagged")


def _slot_error(edges: Sequence[tuple[int, int, int]], num_inter: int) -> str:
    """Name the fault of 2*I edges that are not slot i % 2 of node i // 2 in turn."""
    seen: set[tuple[int, int]] = set()
    for t, s, _ in edges:
        if not (0 <= t < num_inter):
            return f"dangling node: target {t} is not intermediate"
        if s not in (0, 1):
            return f"slot count: slot {s} on node {t}"
        if (t, s) in seen:
            return f"duplicate slot: node {t} slot {s}"
        seen.add((t, s))
    # 2*I distinct slots, all in range: every slot is present, only the order is off.
    i = next(i for i, (t, s, _) in enumerate(edges) if (t, s) != divmod(i, 2))
    return (
        f"edge order: edge {i} is slot {edges[i][1]} of node {edges[i][0]}; "
        "edges must be sorted by (target, slot)"
    )


def _check_cell(num_nodes: int, edges: Sequence[tuple[int, int, int]]) -> None:
    """Raise GraphError naming the first fault of one cell's (target, slot, source) edges."""
    flat = _int_rows(edges, 3)
    nodes = _int_rows([(num_nodes,)], 1)[:, 0]
    if _faulty_cells(nodes, np.array([0, len(flat)]), flat[:, 0], flat[:, 1], flat[:, 2])[0]:
        raise GraphError(_fault_message(num_nodes, edges))


def validate(graph: CellGraph) -> None:
    """Check every structural invariant of a built cell; raise GraphError naming the first failure.

    Construction already ran these checks, so this is an assertion for
    cells that come from trusted paths.
    """
    k = len(graph.sources)
    if len(graph.ops) != k or ((graph.ops < 0) | (graph.ops >= NUM_OPERATIONS)).any():
        raise GraphError(f"operations: expected {k} indices in [0, {NUM_OPERATIONS})")
    _check_cell(graph.num_nodes, [(i >> 1, i & 1, f) for i, f in enumerate(graph.sources.tolist())])


@lru_cache(maxsize=64)
def _sample_bounds(num_intermediate: int) -> tuple[np.ndarray, np.ndarray]:
    """Interleaved per-slot (low, high) draw bounds: slot i's source, then its op."""
    k = 2 * num_intermediate
    low = np.tile([-2, 0], k)
    high = np.stack([np.arange(k) >> 1, np.full(k, NUM_OPERATIONS)], axis=1).ravel()
    low.flags.writeable = high.flags.writeable = False
    return low, high


def sample_uniform(num_intermediate: int, rng: np.random.Generator) -> CellGraph:
    """Draw a cell uniformly: each slot picks a predecessor and one of 13 ops.

    One ``rng.integers(low, high)`` call over the interleaved per-slot
    bounds draws the same values, and leaves the generator in the same
    state, as one scalar call per source and per op in slot order.
    """
    if num_intermediate < 1:
        raise ValueError("num_intermediate must be >= 1")
    bounds = _sample_bounds(num_intermediate)
    draws = rng.integers(*bounds)
    draws.flags.writeable = False
    return _cell(num_intermediate + 3, draws[0::2], draws[1::2])


#: Width of an op one-hot block: the 13 operations plus a "no incoming edge" code.
OP_BLOCK = NUM_OPERATIONS + 1
_NO_EDGE = NUM_OPERATIONS


#: The most intermediates an encoded cell may have; it fixes the controller's input width.
I_MAX = 4
#: Width of a node's feature row: role (4), intermediate position (I_MAX), two op blocks.
FEATURE_DIM = 4 + I_MAX + 2 * OP_BLOCK


@dataclass(frozen=True)
class GraphEncoding:
    adjacency: np.ndarray
    features: np.ndarray


@lru_cache(maxsize=64)
def _template(num_nodes: int) -> tuple[np.ndarray, ...]:
    """Read-only (adjacency, features, edge target rows, slot column bases) for one size.

    The adjacency holds the self-loops and the intermediate<->output links,
    and the features every one-hot bit that does not depend on an edge.
    Matrix row r is cell node r - 2.
    """
    n, num_inter = num_nodes, num_nodes - 3
    out = n - 1
    adj = np.eye(n)
    adj[2:out, out] = 1.0
    adj[out, 2:out] = 1.0
    x = np.zeros((n, FEATURE_DIM))
    x[0, 0] = x[1, 1] = x[out, 3] = 1.0
    inter = np.arange(num_inter)
    x[2 + inter, 2] = 1.0
    x[2 + inter, 4 + inter] = 1.0
    slot_base = 4 + I_MAX + np.array([0, OP_BLOCK])
    for row in (0, 1, out):
        x[row, slot_base + _NO_EDGE] = 1.0
    pos = np.arange(2 * num_inter)
    parts = (adj, x, 2 + (pos >> 1), slot_base[pos & 1])
    for arr in parts:
        arr.flags.writeable = False
    return parts


def encode(graph: CellGraph) -> GraphEncoding:
    """Encode one cell as its (V, V) adjacency and (V, F) node features, F = ``FEATURE_DIM``.

    A node's feature row is [role one-hot (input-0 / input-1 / intermediate /
    output) || intermediate-position one-hot || slot-0 op one-hot || slot-1 op
    one-hot], where the extra op code marks "no incoming edge". Adjacency is
    symmetric over edge slots plus the intermediate->output concatenation
    links, with self-loops and row normalization. Each is a copy of a cached
    template with only the K edge entries filled in; ``_encode`` stacks them
    for B cells of one node count.
    """
    enc = _encode(graph.num_nodes, graph.sources[None], graph.ops[None])
    return GraphEncoding(enc.adjacency[0], enc.features[0])


def _encode(num_nodes: int, sources, ops) -> GraphEncoding:
    """The stacked (B, V, V) adjacencies and (B, V, F) features of B cells of V nodes,
    from their (B, K) ``sources`` and ``ops``."""
    num_inter = num_nodes - 3
    if num_inter > I_MAX:
        raise GraphError(f"graph has {num_inter} intermediates, the encoding allows {I_MAX}")
    adj0, x0, rows, cols = _template(num_nodes)
    b = len(sources)
    cell = np.arange(b)[:, None]
    sources = sources + 2
    adj = adj0[None].repeat(b, axis=0)
    adj[cell, sources, rows] = 1.0
    adj[cell, rows, sources] = 1.0
    adj /= np.add.reduce(adj, axis=2, keepdims=True)
    x = x0[None].repeat(b, axis=0)
    x[cell, rows, cols + ops] = 1.0
    return GraphEncoding(adjacency=adj, features=x)


def apply_transitions(graph: CellGraph, ops: Sequence[int] | np.ndarray) -> CellGraph:
    """Replace a cell's per-edge operations (indices into ``OPERATIONS``), rejecting invalid ones.

    Topology is untouched: the result shares its input's validated
    ``sources``, and only the K new operations are checked, for range and
    against ``VALID``, by ``_checked_ops``, which also checks a group of cells'
    rewrites in one pass. By cost monotonicity of the rules the result never
    costs more than its input (up to the whitelisted null->skip copies).
    """
    return _cell(graph.num_nodes, graph.sources, _checked_ops(graph.ops, ops, None))


def _checked_ops(current: np.ndarray, ops, sizes: Sequence[int] | None) -> np.ndarray:
    """``ops`` as a read-only int64 copy, each in range and a ``VALID`` transition from
    ``current``; a ValueError names the first bad edge, and its cell if ``sizes`` gives
    each cell's edge count."""
    new = np.array(ops)
    if new.shape != current.shape:
        raise ValueError(f"expected {len(current)} actions, got {new.size}")
    if new.dtype.kind not in "iu":
        raise ValueError(f"operations must be integer indices, got dtype {new.dtype}")
    in_range = (new >= 0) & (new < NUM_OPERATIONS)
    # The table is indexed directly once the range holds; the masked lookup
    # below only runs to name the first bad edge.
    if not (np.logical_and.reduce(in_range) and np.logical_and.reduce(VALID[current, new])):
        ok = in_range & VALID[current, np.where(in_range, new, 0)].astype(bool)
        idx = int(ok.argmin())
        where = f"edge {idx}"
        if sizes is not None:
            ends = np.cumsum(sizes)
            c = int(np.searchsorted(ends, idx, side="right"))
            where = f"edge {idx - (ends[c - 1] if c else 0)} of cell {c}"
        if not in_range[idx]:
            raise ValueError(
                f"operation index {new[idx]} at {where} is not in [0, {NUM_OPERATIONS})"
            )
        src, dst = OPERATIONS[current[idx]], OPERATIONS[new[idx]]
        raise ValueError(f"invalid transition {src.value} -> {dst.value} at {where}")
    new = new.astype(np.int64, copy=False)
    new.flags.writeable = False
    return new


def same_topology(a: CellGraph, b: CellGraph) -> bool:
    """True iff both cells have the same nodes and the same (target, slot, source) edges.

    Operations may differ: a topology-preserving rewrite changes only them.
    """
    return a.num_nodes == b.num_nodes and (
        a.sources is b.sources or np.array_equal(a.sources, b.sources)
    )


@dataclass(frozen=True)
class CostReport:
    total_params: int
    total_madds: int


def cost_of(graph: CellGraph, cfg: CostConfig = CostConfig()) -> CostReport:
    """Sum the per-edge analytic costs of a cell."""
    costs = op_costs(cfg)
    params, madds = zip(*(costs[o] for o in graph.ops.tolist()))
    return CostReport(total_params=sum(params), total_madds=sum(madds))


def cost_non_increasing(
    before: CellGraph, after: CellGraph, cfg: CostConfig = CostConfig()
) -> bool:
    """Per-edge cost audit of a transition result against its input.

    True iff both cells share a topology and every edge's params and madds
    are non-increasing, except the whitelisted null->skip replacement. A
    rewired result is not a rewrite of its input, so it fails the audit. All
    edges are one lookup in ``non_increasing_table(cfg)``.
    """
    return same_topology(before, after) and bool(
        non_increasing_table(cfg)[before.ops, after.ops].all()
    )


def assignment_count(num_intermediate: int, vocab_size: int = NUM_OPERATIONS) -> int:
    """Number of distinct per-edge op assignments: vocab^(2*I), an exact Python int."""
    return vocab_size ** (2 * num_intermediate)


_OP_NAMES = tuple(op.value for op in OPERATIONS)


def _flat(graphs: Sequence[CellGraph]) -> tuple[np.ndarray, ...]:
    """The flat form ``(nodes, bounds, sources, ops)`` of cells: cell b has ``nodes[b]``
    nodes and the edges ``bounds[b]:bounds[b + 1]`` of ``sources`` and ``ops``."""
    nodes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    bounds = np.cumsum([0] + [len(g.ops) for g in graphs])
    empty = [np.zeros(0, np.int64)]
    sources = np.concatenate(empty + [g.sources for g in graphs])
    return nodes, bounds, sources, np.concatenate(empty + [g.ops for g in graphs])


def _edge_line(i: int, source: int, op: int) -> str:
    """Text of edge i of a cell."""
    return f"edge t={i >> 1} s={i & 1} f={source} op={_OP_NAMES[op]}\n"


def _serialize(nodes, bounds, sources: np.ndarray, ops: np.ndarray) -> str:
    """The text of flat cells: a header, then one line per edge, with a blank line between
    cells. Each line gets an integer key; each distinct line is rendered once, and one
    gather of those texts by key puts every line in order for one join."""
    heads = bounds[:-1] + np.arange(len(nodes))
    is_edge = np.ones(len(nodes) + len(ops), dtype=bool)
    is_edge[heads] = False
    pos = np.arange(len(ops)) - np.repeat(bounds[:-1], np.diff(bounds))
    # An edge line is set by (pos, source, op), and a valid cell has 0 <= source + 2
    # < width. So an edge key is below 13 * K * (K / 2 + 2) for the longest cell's K
    # edges, which fits int64 up to K = 10**9, a cell whose two int64 arrays alone
    # would take 16 GB. Headers key as -num_nodes, below every edge.
    width = int(pos.max(initial=0)) // 2 + 2
    keys = np.empty(len(is_edge), dtype=np.int64)
    keys[heads] = -nodes
    keys[is_edge] = (pos * width + sources + 2) * NUM_OPERATIONS + ops
    distinct, inverse = np.unique(keys, return_inverse=True)
    split = int(np.searchsorted(distinct, 0))
    rest, op = np.divmod(distinct[split:], NUM_OPERATIONS)
    i, source = np.divmod(rest, width)
    texts = [f"\ncell v={-k}\n" for k in distinct[:split].tolist()]
    texts += map(_edge_line, i.tolist(), (source - 2).tolist(), op.tolist())
    pieces = np.array(texts, dtype=object)[inverse]
    if len(nodes):
        pieces[0] = pieces[0][1:]  # no blank line before the first cell
    return "".join(pieces.tolist())


def serialize_many(graphs: Sequence[CellGraph]) -> str:
    """Render cells in the line-oriented text format."""
    return _serialize(*_flat(graphs))


def _parse_field(token: str, key: str) -> str:
    if not token.startswith(key + "="):
        raise ValueError(f"expected '{key}=...', got {token!r}")
    return token[len(key) + 1 :]


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def _line_record(raw: str) -> tuple[str | None, object, str | None]:
    """Tokenize one line into (kind, value, error), independent of its neighbors.

    ``kind`` is "cell" (value: the node count), "edge" (value: target, slot,
    source, op index) or None for a blank or comment line. ``error`` is the
    fault of a malformed line, without its line number. A blank line, a
    well-formed header and a well-formed edge are read in one step; any other
    line goes to ``_line_fault``, which names its fault.
    """
    if "#" in raw:
        raw = raw.split("#", 1)[0]
    tokens = raw.split()
    if not tokens:
        return None, None, None
    try:
        if len(tokens) == 5 and tokens[0] == "edge":
            _, t, s, f, op = tokens
            index = _OP_INDEX.get(op[3:])
            if index is not None and (t[:2], s[:2], f[:2], op[:3]) == ("t=", "s=", "f=", "op="):
                return "edge", (int(t[2:]), int(s[2:]), int(f[2:]), index), None
        elif len(tokens) == 2 and tokens[0] == "cell" and tokens[1][:2] == "v=":
            return "cell", int(tokens[1][2:]), None
    except ValueError:
        pass
    return _line_fault(tokens)


def _line_fault(tokens: list[str]) -> tuple[str | None, object, str | None]:
    """The record of a line that ``_line_record`` did not read in one step, checked
    field by field so that the error names the first fault."""
    try:
        if tokens[0] == "cell":
            if len(tokens) != 2:
                return "cell", None, "malformed cell header"
            return "cell", _parse_int(_parse_field(tokens[1], "v")), None
        if tokens[0] == "edge":
            if len(tokens) != 5:
                return "edge", None, "edge record needs t/s/f/op fields"
            t, s, f = (_parse_int(_parse_field(tok, key)) for tok, key in zip(tokens[1:4], "tsf"))
            return "edge", (t, s, f, op_from_name(_parse_field(tokens[4], "op")).index), None
    except ValueError as exc:
        return tokens[0], None, str(exc)
    return None, None, f"unknown record {tokens[0]!r}"


def parse_many(text: str) -> list[CellGraph]:
    """Parse all cell records in a document; raises ParseError naming the first bad line."""
    nodes, bounds, sources, ops = _parse(text)
    starts = bounds.tolist()
    return [_cell(n, sources[a:b], ops[a:b]) for n, a, b in zip(nodes.tolist(), starts, starts[1:])]


def _parse(text: str) -> tuple[np.ndarray, ...]:
    """The flat form of a cell document; raises ParseError naming the first bad line.

    One dict pass gives each line the id of its distinct text, and each distinct
    line is tokenized once, a well-formed one in one step. Array ops then find
    where a line-by-line reader stops: at the first malformed line or edge before
    any header, or at an empty cell, reported on reaching the next header (before
    that header's own error) or the end of the text. The cells closed before the
    stop are validated together first, so a cell's structural fault is reported
    before the stop.
    """
    lines = text.splitlines()
    # One pass numbers the distinct lines in order of first appearance: each line's
    # id is setdefault's answer, with the number of distinct lines so far as its default.
    distinct: dict[str, int] = {}
    ids = map(distinct.setdefault, lines, map(len, repeat(distinct)))
    ids = np.fromiter(ids, np.intp, len(lines))
    # One record per distinct line, plus one that keeps the tables typed for an empty text.
    records = list(map(_line_record, distinct)) + [(None, None, None)]
    kind = np.array([(None, "cell", "edge").index(k) for k, _, _ in records], np.int8)[ids]
    bad = np.array([e is not None for _, _, e in records])[ids]
    # Per record: an edge's (t, s, f, op), a header's (node count, 0, 0, 0), else zeros.
    rows = [(0,) * 4 if e or not k else v if k == "edge" else (v, 0, 0, 0) for k, v, e in records]
    values = _int_rows(rows, 4)
    heads = np.flatnonzero(kind == 1)
    is_edge = kind == 2
    first = heads[0] if len(heads) else len(lines)
    bad[:first] |= is_edge[:first]
    stop = int(bad.argmax()) if bad.any() else len(lines)
    ends = np.append(heads[1:], len(lines))  # where each cell is closed
    edges_before = np.append(0, np.cumsum(is_edge))
    counts = edges_before[ends] - edges_before[heads]
    closed = int(np.searchsorted(ends, stop, side="right"))
    empty = np.flatnonzero(counts[:closed] == 0)
    error = None
    if len(empty):
        closed = int(empty[0])
        error = f"line {heads[closed] + 1}: cell declares intermediates but has no edges"
    elif stop < len(lines):
        orphan = stop < first and is_edge[stop]
        message = "edge before any cell header" if orphan else records[ids[stop]][2]
        error = f"line {stop + 1}: {message}"
    edge_lines = np.flatnonzero(is_edge[: ends[closed - 1] if closed else 0])
    flat = values[ids[edge_lines]]
    nodes = values[ids[heads[:closed]], 0]
    bounds = np.append(0, np.cumsum(counts[:closed]))
    bad = _faulty_cells(nodes, bounds, flat[:, 0], flat[:, 1], flat[:, 2])
    if bad.any():
        # Some cells are faulty or only list their edges out of order: sort
        # every cell's edges by (target, slot) and check again.
        cell_of = np.repeat(np.arange(closed), counts[:closed])
        flat = flat[np.lexsort((flat[:, 1], flat[:, 0], cell_of))]
        bad = _faulty_cells(nodes, bounds, flat[:, 0], flat[:, 1], flat[:, 2])
    if bad.any():
        c = int(bad.argmax())
        exact = [records[i][1] for i in ids[edge_lines[bounds[c] : bounds[c + 1]]]]
        exact = sorted((e[:3] for e in exact), key=lambda e: (e[0], e[1]))
        raise ParseError(f"line {heads[c] + 1}: {_fault_message(records[ids[heads[c]]][1], exact)}")
    if error is not None:
        raise ParseError(error)
    return nodes, bounds, _frozen(flat[:, 2]), _frozen(flat[:, 3])
