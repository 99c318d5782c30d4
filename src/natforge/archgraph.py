"""Cell DAG model: construction, validation, sampling, encoding, and costing.

A cell has two input nodes (indices -2 and -1, the outputs of the two
preceding cells), I intermediate nodes (0..I-1), and one output node
(index I) that concatenates every intermediate. Each intermediate owns
exactly two incoming edge slots, each labeled with an operation, so a cell
with I intermediates has K = 2*I labeled edges. Edge sources always precede
their targets, which makes the graph acyclic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .opspace import (
    NUM_OPERATIONS,
    OPERATIONS,
    CostConfig,
    OpCost,
    OperationKind,
    VALID,
    WHITELISTED_TRANSITIONS,
    cost_of_op,
    op_from_name,
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


@dataclass(frozen=True)
class CellGraph:
    """Immutable cell DAG. ``edges`` is kept sorted by (target, slot)."""

    num_nodes: int
    edges: tuple[EdgeSlot, ...]

    @property
    def num_intermediate(self) -> int:
        return self.num_nodes - 3

    @property
    def output_node(self) -> int:
        return self.num_nodes - 3

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def ops(self) -> tuple[OperationKind, ...]:
        """Per-edge operations in canonical (target, slot) order."""
        return tuple(e.op for e in self.edges)


def make_cell(num_nodes: int, edges: Iterable[EdgeSlot]) -> CellGraph:
    """Build and validate a cell, canonicalizing edge order."""
    graph = CellGraph(num_nodes, tuple(sorted(edges, key=lambda e: (e.target_node, e.slot))))
    validate(graph)
    return graph


def validate(graph: CellGraph) -> None:
    """Check every structural invariant; raise GraphError naming the first failure.

    Edge i must be slot i % 2 of node i // 2. With exactly 2*I edges, that
    one check rules out dangling targets and bad, duplicate or missing slots,
    and keeps the canonical (target, slot) order that consumers index by.
    """
    num_inter = graph.num_nodes - 3
    if num_inter < 1:
        raise GraphError("node count: need at least one intermediate node (|V| >= 4)")
    if len(graph.edges) != 2 * num_inter:
        raise GraphError(
            f"slot count: expected {2 * num_inter} edges for {num_inter} "
            f"intermediates, got {len(graph.edges)}"
        )
    for i, e in enumerate(graph.edges):
        if e.target_node != i >> 1 or e.slot != i & 1:
            raise GraphError(_slot_error(graph.edges, num_inter))
        if e.source_node < -2:
            raise GraphError(f"dangling node: source {e.source_node}")
        if e.source_node >= e.target_node:
            raise GraphError(
                f"acyclicity: edge {e.source_node}->{e.target_node} does not go forward"
            )


def _slot_error(edges: Sequence[EdgeSlot], num_inter: int) -> str:
    """Name the fault of 2*I edges that are not slot i % 2 of node i // 2 in turn."""
    seen: set[tuple[int, int]] = set()
    for e in edges:
        if not (0 <= e.target_node < num_inter):
            return f"dangling node: target {e.target_node} is not intermediate"
        if e.slot not in (0, 1):
            return f"slot count: slot {e.slot} on node {e.target_node}"
        if (e.target_node, e.slot) in seen:
            return f"duplicate slot: node {e.target_node} slot {e.slot}"
        seen.add((e.target_node, e.slot))
    # 2*I distinct slots, all in range: every slot is present, only the order is off.
    i = next(i for i, e in enumerate(edges) if (e.target_node, e.slot) != divmod(i, 2))
    return (
        f"edge order: edge {i} is slot {edges[i].slot} of node {edges[i].target_node}; "
        "edges must be sorted by (target, slot)"
    )


def sample_uniform(num_intermediate: int, rng: np.random.Generator) -> CellGraph:
    """Draw a cell uniformly: each slot picks a predecessor and one of 13 ops."""
    if num_intermediate < 1:
        raise ValueError("num_intermediate must be >= 1")
    edges = []
    for l in range(num_intermediate):
        for slot in (0, 1):
            source = int(rng.integers(-2, l))
            op = OPERATIONS[int(rng.integers(NUM_OPERATIONS))]
            edges.append(EdgeSlot(l, slot, source, op))
    return make_cell(num_intermediate + 3, tuple(edges))


#: Width of an op one-hot block: the 13 operations plus a "no incoming edge" code.
OP_BLOCK = NUM_OPERATIONS + 1
_NO_EDGE = NUM_OPERATIONS


@dataclass(frozen=True)
class EncodingConfig:
    """Layout of the (A, X) encoding fed to the controller."""

    i_max: int = 4
    # Row-normalized (A + I) keeps source-less nodes alive after one layer;
    # bare binary A is available for literal-formula experiments.
    normalize: bool = True

    @property
    def feature_dim(self) -> int:
        return 4 + self.i_max + 2 * OP_BLOCK


@dataclass(frozen=True)
class GraphEncoding:
    adjacency: np.ndarray
    features: np.ndarray


def _node_row(graph: CellGraph, node: int) -> int:
    """Map a cell node index (-2-based) to a matrix row."""
    return node + 2


def encode(graph: CellGraph, layout: EncodingConfig = EncodingConfig()) -> GraphEncoding:
    """Encode a cell as (adjacency, node features) for the controller.

    A node's feature row is [role one-hot (input-0 / input-1 / intermediate /
    output) || intermediate-position one-hot || slot-0 op one-hot || slot-1 op
    one-hot], where the extra op code marks "no incoming edge". Adjacency is
    symmetric over edge slots plus the intermediate->output concatenation
    links, with self-loops and row normalization by default.
    """
    validate(graph)
    num_inter = graph.num_intermediate
    if num_inter > layout.i_max:
        raise GraphError(
            f"graph has {num_inter} intermediates, layout allows {layout.i_max}"
        )
    n = graph.num_nodes
    adj = np.zeros((n, n))
    for e in graph.edges:
        i, j = _node_row(graph, e.source_node), _node_row(graph, e.target_node)
        adj[i, j] = 1.0
        adj[j, i] = 1.0
    out = _node_row(graph, graph.output_node)
    for l in range(num_inter):
        adj[_node_row(graph, l), out] = 1.0
        adj[out, _node_row(graph, l)] = 1.0
    if layout.normalize:
        adj = adj + np.eye(n)
        adj = adj / adj.sum(axis=1, keepdims=True)

    slot_ops = {(e.target_node, e.slot): e.op for e in graph.edges}
    x = np.zeros((n, layout.feature_dim))
    for node in range(-2, n - 2):
        row = _node_row(graph, node)
        if node == -2:
            x[row, 0] = 1.0
        elif node == -1:
            x[row, 1] = 1.0
        elif node == graph.output_node:
            x[row, 3] = 1.0
        else:
            x[row, 2] = 1.0
            x[row, 4 + node] = 1.0
        for slot in (0, 1):
            base = 4 + layout.i_max + slot * OP_BLOCK
            op = slot_ops.get((node, slot))
            code = op.index if op is not None else _NO_EDGE
            x[row, base + code] = 1.0
    return GraphEncoding(adjacency=adj, features=x)


def apply_transitions(graph: CellGraph, actions: Sequence[OperationKind]) -> CellGraph:
    """Replace per-edge operations, rejecting any rule-violating action.

    Topology is untouched; by cost monotonicity of the rules the result never
    costs more than the input (up to the whitelisted null->skip copies).
    """
    if len(actions) != graph.num_edges:
        raise ValueError(f"expected {graph.num_edges} actions, got {len(actions)}")
    new_edges = []
    for idx, (e, target_op) in enumerate(zip(graph.edges, actions)):
        if not VALID[e.op.index, target_op.index]:
            raise ValueError(
                f"invalid transition {e.op.value} -> {target_op.value} at edge {idx}"
            )
        new_edges.append(replace(e, op=target_op))
    return CellGraph(graph.num_nodes, tuple(new_edges))


def same_topology(a: CellGraph, b: CellGraph) -> bool:
    """True iff both cells have the same nodes and the same (target, slot, source) edges.

    Operations may differ: a topology-preserving rewrite changes only them.
    """
    if a.num_nodes != b.num_nodes or len(a.edges) != len(b.edges):
        return False
    for ea, eb in zip(a.edges, b.edges):
        if (
            ea.source_node != eb.source_node
            or ea.target_node != eb.target_node
            or ea.slot != eb.slot
        ):
            return False
    return True


@dataclass(frozen=True)
class CostReport:
    total_params: int
    total_madds: int
    per_edge: tuple[OpCost, ...]


def cost_of(graph: CellGraph, cfg: CostConfig = CostConfig()) -> CostReport:
    """Sum the per-edge analytic costs of a cell."""
    validate(graph)
    per_edge = tuple(cost_of_op(e.op, cfg) for e in graph.edges)
    return CostReport(
        total_params=sum(c.params for c in per_edge),
        total_madds=sum(c.madds for c in per_edge),
        per_edge=per_edge,
    )


def cost_non_increasing(
    before: CellGraph, after: CellGraph, cfg: CostConfig = CostConfig()
) -> bool:
    """Per-edge cost audit of a transition result against its input.

    True iff every edge's params and madds are non-increasing, except the
    whitelisted null->skip replacement.
    """
    if not same_topology(before, after):
        raise ValueError("graphs must share topology")
    for eb, ea in zip(before.edges, after.edges):
        if (eb.op, ea.op) in WHITELISTED_TRANSITIONS:
            continue
        cb, ca = cost_of_op(eb.op, cfg), cost_of_op(ea.op, cfg)
        if ca.params > cb.params or ca.madds > cb.madds:
            return False
    return True


def assignment_count(num_intermediate: int, vocab_size: int = NUM_OPERATIONS) -> int:
    """Number of distinct per-edge op assignments: vocab^(2*I).

    Computed as a product (one factor per edge slot) rather than by
    enumeration, so it stays exact for spaces far beyond enumerable size.
    """
    count = 1
    for _ in range(2 * num_intermediate):
        count *= vocab_size
    return count


def serialize(graph: CellGraph) -> str:
    """Render a cell in the line-oriented text format."""
    validate(graph)
    lines = [f"cell v={graph.num_nodes}"]
    for e in graph.edges:
        lines.append(f"edge t={e.target_node} s={e.slot} f={e.source_node} op={e.op.value}")
    return "\n".join(lines) + "\n"


def _parse_field(token: str, key: str, lineno: int) -> str:
    if not token.startswith(key + "="):
        raise ParseError(f"line {lineno}: expected '{key}=...', got {token!r}")
    return token[len(key) + 1 :]


def _parse_int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"line {lineno}: not an integer: {text!r}") from None


def _parse_records(text: str) -> list[tuple[int, CellGraph]]:
    """Parse all cell records in a document; returns (first line number, graph) pairs."""
    graphs: list[tuple[int, CellGraph]] = []
    num_nodes: int | None = None
    start_line = 0
    edges: list[EdgeSlot] = []

    def flush(lineno: int) -> None:
        nonlocal num_nodes, edges
        if num_nodes is None:
            return
        if not edges:
            raise ParseError(f"line {start_line}: cell declares intermediates but has no edges")
        try:
            graphs.append((start_line, make_cell(num_nodes, tuple(edges))))
        except GraphError as exc:
            raise ParseError(f"line {start_line}: {exc}") from exc
        num_nodes, edges = None, []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "cell":
            flush(lineno)
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: malformed cell header")
            num_nodes = _parse_int(_parse_field(tokens[1], "v", lineno), lineno)
            start_line = lineno
        elif tokens[0] == "edge":
            if num_nodes is None:
                raise ParseError(f"line {lineno}: edge before any cell header")
            if len(tokens) != 5:
                raise ParseError(f"line {lineno}: edge record needs t/s/f/op fields")
            t = _parse_int(_parse_field(tokens[1], "t", lineno), lineno)
            s = _parse_int(_parse_field(tokens[2], "s", lineno), lineno)
            f = _parse_int(_parse_field(tokens[3], "f", lineno), lineno)
            name = _parse_field(tokens[4], "op", lineno)
            try:
                op = op_from_name(name)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            edges.append(EdgeSlot(t, s, f, op))
        else:
            raise ParseError(f"line {lineno}: unknown record {tokens[0]!r}")
    flush(len(text.splitlines()) + 1)
    return graphs


def parse(text: str) -> CellGraph:
    """Parse one cell; raises ParseError on malformed input or extra records."""
    graphs = _parse_records(text)
    if not graphs:
        raise ParseError("line 1: no cell record found")
    if len(graphs) > 1:
        raise ParseError(f"line {graphs[1][0]}: expected a single cell record")
    return graphs[0][1]


def serialize_many(graphs: Sequence[CellGraph]) -> str:
    return "\n".join(serialize(g) for g in graphs)


def parse_many(text: str) -> list[CellGraph]:
    return [g for _, g in _parse_records(text)]


def to_record(graph: CellGraph) -> dict:
    """Structured-object export with the same fields as the text format."""
    return {
        "num_nodes": graph.num_nodes,
        "edges": [
            {
                "target": e.target_node,
                "slot": e.slot,
                "source": e.source_node,
                "op": e.op.value,
            }
            for e in graph.edges
        ],
    }


def from_record(record: dict) -> CellGraph:
    return make_cell(
        record["num_nodes"],
        tuple(
            EdgeSlot(e["target"], e["slot"], e["source"], op_from_name(e["op"]))
            for e in record["edges"]
        ),
    )
