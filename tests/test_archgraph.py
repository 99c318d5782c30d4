"""Cell DAG construction, sampling, encoding, costing, and serialization tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from natforge import archgraph
from natforge.archgraph import (
    CellGraph,
    FEATURE_DIM,
    I_MAX,
    EdgeSlot,
    GraphError,
    ParseError,
    apply_transitions,
    assignment_count,
    cost_non_increasing,
    cost_of,
    encode,
    make_cell,
    parse_many,
    same_topology,
    sample_uniform,
    serialize_many,
    validate,
)
from natforge.archgraph import _flat, _line_record, _serialize
from natforge.gcnpolicy import NATPP, init_params
from natforge.opspace import (
    NUM_OPERATIONS,
    OPERATIONS,
    WHITELISTED_TRANSITIONS,
    CostConfig,
    OperationKind,
    madds_of,
    params_of,
    transition_mask,
)

CFG = CostConfig(channels_in=128, channels_out=128, height=32, width=32)


def serialize(graph: CellGraph) -> str:
    """One cell's text: ``serialize_many`` of one."""
    return serialize_many([graph])


def reference_cost_non_increasing(before, after, cfg):
    """Per-edge cost audit loop that ``cost_non_increasing`` must agree with."""
    for eb, ea in zip(before.edges, after.edges):
        if (eb.op, ea.op) in WHITELISTED_TRANSITIONS:
            continue
        grows_params = params_of(ea.op, cfg) > params_of(eb.op, cfg)
        if grows_params or madds_of(ea.op, cfg) > madds_of(eb.op, cfg):
            return False
    return True


def valid_targets(src):
    """The operations ``src`` may become, in index order, read from its mask."""
    return [OPERATIONS[i] for i in np.flatnonzero(transition_mask(src))]


def chain_cell(op: OperationKind, num_intermediate: int = 4) -> CellGraph:
    edges = []
    for l in range(num_intermediate):
        edges.append(EdgeSlot(l, 0, -2 if l == 0 else l - 1, op))
        edges.append(EdgeSlot(l, 1, -1, op))
    return make_cell(num_intermediate + 3, edges)


class TestValidation:
    def test_valid_cell_accepted(self):
        g = chain_cell(OperationKind.CONV_3X3)
        validate(g)
        assert g.num_intermediate == 4
        assert g.num_edges == 8

    def test_duplicate_slot_rejected(self):
        edges = (
            EdgeSlot(0, 0, -2, OperationKind.SKIP),
            EdgeSlot(0, 0, -1, OperationKind.SKIP),
        )
        with pytest.raises(GraphError, match="duplicate slot"):
            validate(CellGraph(4, edges))

    def test_backward_edge_rejected(self):
        edges = (
            EdgeSlot(0, 0, 1, OperationKind.SKIP),
            EdgeSlot(0, 1, -1, OperationKind.SKIP),
            EdgeSlot(1, 0, -2, OperationKind.SKIP),
            EdgeSlot(1, 1, -1, OperationKind.SKIP),
        )
        with pytest.raises(GraphError, match="acyclicity"):
            validate(CellGraph(5, edges))

    def test_dangling_source_rejected(self):
        edges = (
            EdgeSlot(0, 0, -3, OperationKind.SKIP),
            EdgeSlot(0, 1, -1, OperationKind.SKIP),
        )
        with pytest.raises(GraphError, match="dangling"):
            validate(CellGraph(4, edges))

    def test_missing_slot_rejected(self):
        edges = (
            EdgeSlot(0, 0, -2, OperationKind.SKIP),
            EdgeSlot(1, 0, -1, OperationKind.SKIP),
            EdgeSlot(1, 1, -2, OperationKind.SKIP),
            EdgeSlot(0, 1, -1, OperationKind.SKIP),
        )
        bad = list(edges)[:3] + [EdgeSlot(1, 1, 0, OperationKind.SKIP)]
        with pytest.raises(GraphError):
            make_cell(5, bad)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(GraphError, match="node count"):
            validate(CellGraph(3, ()))

    def test_unsorted_edges_rejected(self):
        g = chain_cell(OperationKind.SKIP, num_intermediate=2)
        swapped = (g.edges[1], g.edges[0]) + g.edges[2:]
        with pytest.raises(GraphError, match="edge order: edge 0 is slot 1 of node 0"):
            CellGraph(g.num_nodes, swapped)
        assert make_cell(g.num_nodes, swapped) == g


class TestSampling:
    def test_sources_precede_targets(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            g = sample_uniform(4, rng)
            for e in g.edges:
                assert e.source_node < e.target_node

    def test_single_intermediate_sources(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g = sample_uniform(1, rng)
            assert g.num_edges == 2
            assert all(e.source_node in (-2, -1) for e in g.edges)

    def test_op_marginal_uniform(self):
        rng = np.random.default_rng(2)
        counts = np.zeros(NUM_OPERATIONS)
        for _ in range(13_000 // 8):
            for e in sample_uniform(4, rng).edges:
                counts[e.op.index] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_deterministic_under_seed(self):
        a = sample_uniform(4, np.random.default_rng(7))
        b = sample_uniform(4, np.random.default_rng(7))
        assert a == b


class TestEncoding:
    def test_feature_dim_36(self):
        g = sample_uniform(4, np.random.default_rng(0))
        width = init_params(NATPP, np.random.default_rng(0)).gcn[0].shape[0]
        assert FEATURE_DIM == 36 == encode(g).features.shape[-1] == width

    def test_rows_are_one_hot_blocks(self):
        g = chain_cell(OperationKind.SEP_CONV_3X3)
        enc = encode(g)
        x = enc.features
        assert x.shape == (7, 36)
        # role block: exactly one bit per node
        assert (x[:, :4].sum(axis=1) == 1).all()

    def test_input_nodes_have_no_edge_code(self):
        g = chain_cell(OperationKind.CONV_3X3)
        x = encode(g).features
        no_edge = NUM_OPERATIONS  # 14th code
        for row in (0, 1):  # nodes -2 and -1
            assert x[row, 4 + 4 + no_edge] == 1.0
            assert x[row, 4 + 4 + (NUM_OPERATIONS + 1) + no_edge] == 1.0

    def test_adjacency_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            enc = encode(sample_uniform(4, rng))
            assert np.allclose(enc.adjacency.sum(axis=1), 1.0)

    def test_injective_on_op_assignments(self):
        a = encode(chain_cell(OperationKind.CONV_3X3))
        b = encode(chain_cell(OperationKind.SEP_CONV_3X3))
        assert not np.array_equal(a.features, b.features)

    def test_rejects_oversized_graph(self):
        rng = np.random.default_rng(4)
        g = sample_uniform(5, rng)
        with pytest.raises(GraphError, match="allows"):
            encode(g)


class TestTransitions:
    def test_identity_actions_keep_graph(self):
        g = chain_cell(OperationKind.CONV_3X3)
        assert apply_transitions(g, g.ops) == g

    def test_conv_to_sep_drops_params(self):
        g = chain_cell(OperationKind.CONV_3X3, num_intermediate=1)
        actions = (OperationKind.SEP_CONV_3X3.index, OperationKind.CONV_3X3.index)
        out = apply_transitions(g, actions)
        assert cost_of(g, CFG).total_params - cost_of(out, CFG).total_params == 129_920

    def test_invalid_action_names_edge(self):
        g = chain_cell(OperationKind.CONV_1X1, num_intermediate=1)
        with pytest.raises(ValueError, match="edge 1"):
            apply_transitions(g, (OperationKind.CONV_1X1.index, OperationKind.SEP_CONV_3X3.index))

    def test_wrong_action_count_rejected(self):
        g = chain_cell(OperationKind.SKIP)
        with pytest.raises(ValueError, match="expected 8 actions"):
            apply_transitions(g, (OperationKind.SKIP.index,))

    def test_cost_never_increases_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            g = sample_uniform(4, rng)
            actions = []
            for e in g.edges:
                ops = valid_targets(e.op)
                actions.append(ops[int(rng.integers(len(ops)))].index)
            out = apply_transitions(g, actions)
            assert cost_non_increasing(g, out, CFG)


class TestCosting:
    def test_totals_sum_per_edge(self):
        rng = np.random.default_rng(6)
        cells = [chain_cell(OperationKind.SEP_CONV_5X5)]
        cells += [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(20)]
        for g in cells:
            report = cost_of(g, CFG)
            assert report.total_params == sum(params_of(e.op, CFG) for e in g.edges)
            assert report.total_madds == sum(madds_of(e.op, CFG) for e in g.edges)

    def test_costs_stay_exact_beyond_int64(self):
        # 8 conv_5x5 edges at 10^6 channels and 10^4 x 10^4 pixels: 2 * 10^22 madds.
        cfg = CostConfig(10**6, 10**6, 10**4, 10**4)
        report = cost_of(chain_cell(OperationKind.CONV_5X5), cfg)
        assert report.total_madds == 8 * 5 * 5 * 10**6 * 10**6 * 10**4 * 10**4
        assert report.total_madds > 2**63
        assert report.total_params == 8 * 5 * 5 * 10**6 * 10**6

    def test_all_null_costs_zero(self):
        g = chain_cell(OperationKind.NULL)
        report = cost_of(g, CFG)
        assert report.total_params == 0
        assert report.total_madds == 0

    def test_whitelist_in_cost_audit(self):
        before = chain_cell(OperationKind.NULL, num_intermediate=1)
        after = apply_transitions(before, (OperationKind.SKIP.index, OperationKind.NULL.index))
        assert cost_non_increasing(before, after, CFG)

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        channels_in=st.integers(1, 512),
        channels_out=st.integers(2, 512),
        hw=st.integers(1, 64),
    )
    def test_cost_audit_matches_per_edge_loop(self, seed, channels_in, channels_out, hw):
        cfg = CostConfig(channels_in=channels_in, channels_out=channels_out, height=hw, width=hw)
        rng = np.random.default_rng(seed)
        for _ in range(20):
            before = sample_uniform(int(rng.integers(1, 5)), rng)
            # Arbitrary rewrites, valid or not, so both outcomes of the audit occur.
            after = make_cell(
                before.num_nodes,
                [
                    EdgeSlot(e.target_node, e.slot, e.source_node, OPERATIONS[rng.integers(13)])
                    for e in before.edges
                ],
            )
            expected = reference_cost_non_increasing(before, after, cfg)
            assert cost_non_increasing(before, after, cfg) == expected

    def test_cost_audit_rejects_topology_mismatch(self):
        before = chain_cell(OperationKind.CONV_3X3, num_intermediate=2)
        moved = EdgeSlot(1, 0, -2, OperationKind.NULL)
        rewired = make_cell(5, before.edges[:2] + (moved,) + before.edges[3:])
        assert cost_non_increasing(before, rewired, CFG) is False


class TestSameTopology:
    def test_rewrite_keeps_topology(self):
        g = chain_cell(OperationKind.CONV_5X5)
        assert same_topology(g, apply_transitions(g, (OperationKind.NULL.index,) * 8))

    def test_source_node_differs(self):
        g = chain_cell(OperationKind.SKIP, num_intermediate=2)
        moved = EdgeSlot(1, 0, -2, OperationKind.SKIP)
        rewired = make_cell(5, g.edges[:2] + (moved,) + g.edges[3:])
        assert not same_topology(g, rewired)
        assert not same_topology(rewired, g)

    def test_node_count_differs(self):
        assert not same_topology(
            chain_cell(OperationKind.SKIP, num_intermediate=2),
            chain_cell(OperationKind.SKIP, num_intermediate=3),
        )


class TestCardinality:
    def test_nat_count(self):
        assert assignment_count(4, vocab_size=3) == 6_561

    def test_natpp_count(self):
        assert assignment_count(4) == 815_730_721

    def test_nat_count_by_enumeration(self):
        from itertools import product

        g = chain_cell(OperationKind.CONV_3X3)
        from natforge.opspace import nat_actions

        distinct = set()
        per_edge = [nat_actions(e.op) for e in g.edges]
        for combo in product(*per_edge):
            distinct.add(tuple(combo))
        assert len(distinct) == 6_561


class TestProperties:
    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_intermediate=st.integers(1, 6))
    def test_parse_inverts_serialize(self, seed, num_intermediate):
        g = sample_uniform(num_intermediate, np.random.default_rng(seed))
        assert parse_many(serialize(g)) == [g]

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), num_intermediate=st.integers(1, 6))
    def test_keep_action_returns_equal_graph(self, seed, num_intermediate):
        rng = np.random.default_rng(seed)
        g = sample_uniform(num_intermediate, rng)
        assert apply_transitions(g, g.ops) == g
        rewrite = [valid_targets(e.op) for e in g.edges]
        alpha = apply_transitions(g, [ops[rng.integers(len(ops))].index for ops in rewrite])
        assert apply_transitions(alpha, alpha.ops) == alpha


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = sample_uniform(4, rng)
            assert parse_many(serialize(g)) == [g]

    def test_many_round_trip(self):
        rng = np.random.default_rng(7)
        graphs = [sample_uniform(3, rng) for _ in range(5)]
        assert parse_many(serialize_many(graphs)) == graphs

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\ncell v=4\nedge t=0 s=0 f=-2 op=skip  # inline\nedge t=0 s=1 f=-1 op=null\n"
        (g,) = parse_many(text)
        assert g.num_nodes == 4

    def test_malformed_line_reported(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_many("cell v=4\nedge t=0 s=0 f=-2\nedge t=0 s=1 f=-1 op=null\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "cell v=4\nedge t=99999999999999999999 s=0 f=-2 op=skip\nedge t=0 s=1 f=-1 op=null\n",
                "line 1: dangling node: target 99999999999999999999 is not intermediate",
            ),
            (
                "cell v=4\nedge t=0 s=0 f=-99999999999999999999 op=skip\nedge t=0 s=1 f=-1 op=null\n",
                "line 1: dangling node: source -99999999999999999999",
            ),
            (
                "cell v=4\nedge t=0 s=0 f=-2 op=skip\nedge t=0 s=1 f=-1 op=null\n"
                "cell v=99999999999999999999\nedge t=0 s=0 f=-2 op=skip\n",
                "line 4: slot count: expected 199999999999999999992 edges for "
                "99999999999999999996 intermediates, got 1",
            ),
        ],
        ids=["target", "source", "nodes"],
    )
    def test_huge_ints_reported_exactly(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_many(text)
        assert str(caught.value) == message

    def test_unknown_op_reported(self):
        with pytest.raises(ParseError, match="unknown operation"):
            parse_many("cell v=4\nedge t=0 s=0 f=-2 op=conv_9x9\nedge t=0 s=1 f=-1 op=null\n")


def reference_parse_field(token, key):
    if not token.startswith(key + "="):
        raise ValueError(f"expected '{key}=...', got {token!r}")
    return token[len(key) + 1 :]


def reference_parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"not an integer: {text!r}") from None


def reference_op_index(name):
    for op in OPERATIONS:
        if op.value == name:
            return op.index
    raise ValueError(f"unknown operation name: {name!r}")


def reference_line_record(raw):
    """The field-by-field tokenizer that ``_line_record`` must agree with on every line.

    Returns (kind, value, error): kind "cell" (value: the node count), "edge"
    (value: target, slot, source, op index) or None for a blank or comment
    line, and the fault of a malformed line without its line number.
    """
    line = raw.split("#", 1)[0].strip()
    if not line:
        return None, None, None
    tokens = line.split()
    try:
        if tokens[0] == "cell":
            if len(tokens) != 2:
                return "cell", None, "malformed cell header"
            return "cell", reference_parse_int(reference_parse_field(tokens[1], "v")), None
        if tokens[0] == "edge":
            if len(tokens) != 5:
                return "edge", None, "edge record needs t/s/f/op fields"
            t, s, f = (
                reference_parse_int(reference_parse_field(tok, key))
                for tok, key in zip(tokens[1:4], "tsf")
            )
            op = reference_op_index(reference_parse_field(tokens[4], "op"))
            return "edge", (t, s, f, op), None
    except ValueError as exc:
        return tokens[0], None, str(exc)
    return None, None, f"unknown record {tokens[0]!r}"


def reference_parse_many(text):
    """The line-by-line reader that ``parse_many`` must agree with, in cells and in messages.

    Lines are read in order up to the first malformed one or edge before any
    header; an empty cell is reported when the next header or the end of the
    text is reached. The cells closed before that stop are then checked in
    file order by ``make_cell``, whose first fault is reported before the stop.
    """
    heads, edges, open_head, stop = [], [], None, None

    def close_cell():
        nonlocal open_head
        if open_head is not None:
            if len(edges) == open_head[2]:
                return ParseError(
                    f"line {open_head[0]}: cell declares intermediates but has no edges"
                )
            heads.append(open_head)
            open_head = None
        return None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        kind, value, error = reference_line_record(raw)
        if kind == "edge":
            if open_head is None:
                error = "edge before any cell header"
            elif error is None:
                edges.append(value)
                continue
        elif kind == "cell":
            stop = close_cell()
            if stop is not None:
                break
            if error is None:
                open_head = (lineno, value, len(edges))
                continue
        elif error is None:
            continue
        stop = ParseError(f"line {lineno}: {error}")
        break
    else:
        stop = close_cell()
    if open_head is not None:
        del edges[open_head[2] :]
    graphs = []
    ends = [h[2] for h in heads[1:]] + [len(edges)]
    for (line, num_nodes, first), end in zip(heads, ends):
        slots = [EdgeSlot(t, s, f, OPERATIONS[o]) for t, s, f, o in edges[first:end]]
        try:
            graphs.append(make_cell(num_nodes, slots))
        except GraphError as exc:
            raise ParseError(f"line {line}: {exc}") from None
    if stop is not None:
        raise stop
    return graphs


#: Corruptions of a multi-cell file, each applied at a random place by ``corrupt``.
CORRUPTIONS = (
    "bad token",
    "unknown record",
    "orphan edge",
    "empty cell",
    "empty last cell",
    "bad header after empty cell",
    "shuffle",
    "comments",
    "huge int",
    "structural",
)


def corrupt(cells, kinds, rng):
    """The text of ``cells`` with each corruption in ``kinds`` applied once."""
    blocks = [serialize(g).splitlines() for g in cells]
    for kind in kinds:
        b = int(rng.integers(len(blocks)))
        block = blocks[b]
        e = int(rng.integers(1, len(block))) if len(block) > 1 else 0  # an edge line
        if kind == "bad token":
            line = int(rng.integers(len(block)))  # any line; 0 is the header
            fields = block[line].split()
            if len(fields) < 2:
                continue
            if rng.random() < 0.2:
                del fields[-1]  # a record with a field missing
            else:
                token = ["t=x", "s=", "op=conv_9x9", "f=1.5", "q=0"][int(rng.integers(5))]
                fields[int(rng.integers(1, len(fields)))] = token
            block[line] = " ".join(fields)
        elif kind == "unknown record":
            block.insert(e, "node v=4")
        elif kind == "orphan edge":
            blocks.insert(0, ["# preamble", "edge t=0 s=0 f=-2 op=skip"])
        elif kind == "empty cell":
            blocks.insert(b, [f"cell v={int(rng.integers(4, 8))}", "# nothing here"])
        elif kind == "empty last cell":
            blocks.append(["cell v=5"])
        elif kind == "bad header after empty cell":
            header = ["cell v=abc", "cell", "cell v=4 x=1", "cell w=4"][int(rng.integers(4))]
            blocks.insert(b, ["cell v=5", "", header])
        elif kind == "shuffle":
            blocks[b] = block[:1] + [block[1:][i] for i in rng.permutation(len(block) - 1)]
        elif kind == "comments":
            block.insert(e, ["# a comment", "", "   ", "#"][int(rng.integers(4))])
            block[-1] += "  # trailing"
        elif kind == "huge int":
            huge = str(int(rng.choice([-1, 1])) * 10 ** int(rng.integers(19, 25)))
            key = ["v=", "t=", "s=", "f="][int(rng.integers(4))]
            line = block[0] if key == "v=" else block[e]
            block[block.index(line)] = " ".join(
                key + huge if tok.startswith(key) else tok for tok in line.split()
            )
        elif kind == "structural":
            if len(block) > 1:
                key = ["t=", "s=", "f="][int(rng.integers(3))]
                value = int(rng.integers(-4, 6))
                block[e] = " ".join(
                    f"{key}{value}" if tok.startswith(key) else tok for tok in block[e].split()
                )
    return "\n".join("\n".join(block) for block in blocks) + "\n"


class TestParseOrder:
    @settings(deadline=None, max_examples=400)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kinds=st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=4),
    )
    def test_parse_matches_line_by_line_reader(self, seed, kinds):
        """Equal cells, or a ParseError with the reference's message, on corrupted files."""
        rng = np.random.default_rng(seed)
        cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(int(rng.integers(1, 6)))]
        text = corrupt(cells, kinds, rng)
        try:
            expected = reference_parse_many(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as caught:
                parse_many(text)
            assert str(caught.value) == str(exc)
        else:
            assert parse_many(text) == expected

    def test_corruptions_reach_every_outcome(self):
        """The corruptions above give valid files and every kind of parse error."""
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(2000):
            cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(3)]
            kinds = list(rng.choice(CORRUPTIONS, size=int(rng.integers(1, 4))))
            try:
                reference_parse_many(corrupt(cells, kinds, rng))
                seen.add("valid")
            except ParseError as exc:
                seen.add(str(exc).split(": ", 1)[1])
        for outcome in (
            "valid",
            "cell declares intermediates but has no edges",
            "edge before any cell header",
            "unknown record",
            "malformed cell header",
            "edge record needs",
            "expected",
            "not an integer",
            "unknown operation",
            "node count",
            "slot count",
            "duplicate slot",
            "dangling node",
            "acyclicity",
        ):
            assert any(message.startswith(outcome) for message in seen), outcome


def reference_sample_uniform(num_intermediate, rng):
    """Scalar draws that ``sample_uniform`` must reproduce: a source, then an op, per slot."""
    edges = []
    for l in range(num_intermediate):
        for slot in (0, 1):
            source = int(rng.integers(-2, l))
            op = OPERATIONS[int(rng.integers(NUM_OPERATIONS))]
            edges.append(EdgeSlot(l, slot, source, op))
    return make_cell(num_intermediate + 3, edges)


def reference_encode(graph):
    """Per-node loop encoding that batched ``encode`` must reproduce bit for bit."""
    n = graph.num_nodes
    adj = np.zeros((n, n))
    for e in graph.edges:
        i, j = e.source_node + 2, e.target_node + 2
        adj[i, j] = adj[j, i] = 1.0
    out = graph.num_nodes - 1
    for l in range(graph.num_intermediate):
        adj[l + 2, out] = adj[out, l + 2] = 1.0
    adj = adj + np.eye(n)
    adj = adj / adj.sum(axis=1, keepdims=True)
    slot_ops = {(e.target_node, e.slot): e.op for e in graph.edges}
    x = np.zeros((n, FEATURE_DIM))
    for node in range(-2, n - 2):
        row = node + 2
        if node == -2:
            x[row, 0] = 1.0
        elif node == -1:
            x[row, 1] = 1.0
        elif node == graph.num_nodes - 3:
            x[row, 3] = 1.0
        else:
            x[row, 2] = 1.0
            x[row, 4 + node] = 1.0
        for slot in (0, 1):
            op = slot_ops.get((node, slot))
            code = op.index if op is not None else NUM_OPERATIONS
            x[row, 4 + I_MAX + slot * (NUM_OPERATIONS + 1) + code] = 1.0
    return adj, x


class TestArrayReferences:
    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), num_intermediate=st.integers(1, 4))
    def test_sample_uniform_matches_scalar_draws(self, seed, num_intermediate):
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            g = sample_uniform(num_intermediate, fast)
            assert g == reference_sample_uniform(num_intermediate, ref)
            validate(g)
        assert fast.bit_generator.state == ref.bit_generator.state

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        num_intermediate=st.integers(1, 4),
        count=st.integers(1, 12),
    )
    def test_batched_encode_matches_loop(self, seed, num_intermediate, count):
        rng = np.random.default_rng(seed)
        cells = [sample_uniform(num_intermediate, rng) for _ in range(count)]
        batch = encode(cells)
        assert batch.adjacency.shape == (count, num_intermediate + 3, num_intermediate + 3)
        for b, g in enumerate(cells):
            adj, x = reference_encode(g)
            single = encode(g)
            for got in (batch.adjacency[b], single.adjacency):
                assert np.array_equal(got, adj)
            for got in (batch.features[b], single.features):
                assert np.array_equal(got, x)

    def test_encode_rejects_mixed_sizes(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="one node count"):
            encode([sample_uniform(2, rng), sample_uniform(3, rng)])

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 2**32 - 1), num_intermediate=st.integers(1, 6))
    def test_shuffled_edge_lines_canonicalized(self, seed, num_intermediate):
        rng = np.random.default_rng(seed)
        g = sample_uniform(num_intermediate, rng)
        other = sample_uniform(int(rng.integers(1, 5)), rng)
        header, *edge_lines = serialize(g).splitlines()
        shuffled = [edge_lines[i] for i in rng.permutation(len(edge_lines))]
        text = "\n".join([header] + shuffled) + "\n"
        assert parse_many(text) == [g]
        assert parse_many(serialize(other) + "\n" + text) == [other, g]

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        fault=st.sampled_from(["source", "target", "slot", "drop"]),
    )
    def test_file_check_names_first_faulty_cell(self, seed, fault):
        """The whole-file check reports what ``make_cell`` reports for the first bad cell."""
        rng = np.random.default_rng(seed)
        cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(6)]
        bad = int(rng.integers(len(cells)))
        edges = list(cells[bad].edges)
        e = int(rng.integers(len(edges)))
        if fault == "source":
            edges[e] = replace(edges[e], source_node=int(rng.integers(-4, 6)))
        elif fault == "target":
            edges[e] = replace(edges[e], target_node=int(rng.integers(-1, 6)))
        elif fault == "slot":
            edges[e] = replace(edges[e], slot=int(rng.integers(-1, 3)))
        else:
            del edges[e]
        lines = [serialize(g) for g in cells]
        lines[bad] = f"cell v={cells[bad].num_nodes}\n" + "".join(
            f"edge t={x.target_node} s={x.slot} f={x.source_node} op={x.op.value}\n" for x in edges
        )
        text = "\n".join(lines)
        try:
            expected = make_cell(cells[bad].num_nodes, edges)
        except GraphError as exc:
            line = 1 + sum(len(chunk.splitlines()) + 1 for chunk in lines[:bad])
            with pytest.raises(ParseError) as caught:
                parse_many(text)
            assert str(caught.value) == f"line {line}: {exc}"
        else:
            assert parse_many(text)[bad] == expected


class TestArrayCells:
    def test_arrays_are_read_only(self):
        rng = np.random.default_rng(9)
        for g in (
            sample_uniform(3, rng),
            chain_cell(OperationKind.SKIP),
            parse_many(serialize(sample_uniform(2, rng)))[0],
        ):
            for arr in (g.sources, g.ops):
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_equality_and_hash(self):
        a = chain_cell(OperationKind.CONV_3X3)
        (b,) = parse_many(serialize(a))
        assert a == b and hash(a) == hash(b)
        assert a != apply_transitions(a, [OperationKind.NULL.index] * 8)
        assert a != chain_cell(OperationKind.CONV_3X3, num_intermediate=3)
        assert a != "cell"

    def test_rewrite_shares_topology_and_owns_its_ops(self):
        g = chain_cell(OperationKind.CONV_5X5)
        ops = np.full(8, OperationKind.SKIP.index)
        alpha = apply_transitions(g, ops)
        ops[:] = OperationKind.NULL.index
        assert alpha.sources is g.sources
        assert alpha.ops.tolist() == [OperationKind.SKIP.index] * 8

    @pytest.mark.parametrize("bad", [-1, -13, NUM_OPERATIONS, 99])
    def test_out_of_range_op_rejected_not_wrapped(self, bad):
        g = chain_cell(OperationKind.CONV_3X3, num_intermediate=1)
        with pytest.raises(ValueError, match=r"index -?\d+ at edge 1 is not in \[0, 13\)"):
            apply_transitions(g, [OperationKind.CONV_3X3.index, bad])
        with pytest.raises(ValueError, match=r"at edge 1 of cell 1 is not in"):
            apply_transitions([g, g], [g.ops[0], g.ops[1], g.ops[0], bad])

    def test_non_integer_ops_rejected(self):
        g = chain_cell(OperationKind.CONV_3X3, num_intermediate=1)
        with pytest.raises(ValueError, match="integer indices"):
            apply_transitions(g, [OperationKind.SKIP, OperationKind.SKIP])

    def test_group_rewrite_matches_per_cell(self):
        rng = np.random.default_rng(10)
        cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(30)]
        targets = [
            [valid_targets(e.op)[0].index if rng.integers(2) else OperationKind.NULL.index
             for e in g.edges]
            for g in cells
        ]
        group = apply_transitions(cells, np.concatenate(targets))
        assert group == [apply_transitions(g, t) for g, t in zip(cells, targets)]
        assert all(cost_non_increasing(b, a, CFG) for b, a in zip(cells, group))
        assert apply_transitions([], []) == []

    def test_group_rewrite_names_cell_of_invalid_transition(self):
        g = chain_cell(OperationKind.CONV_1X1, num_intermediate=1)
        sep = OperationKind.SEP_CONV_3X3.index
        with pytest.raises(ValueError, match="conv_1x1 -> sep_conv_3x3 at edge 0 of cell 2"):
            apply_transitions([g, g, g], [0, 0, 0, 0, sep, 0])


#: Integer field texts: canonical, signed, zero-padded, underscored, non-ASCII
#: digits, huge, and not integers at all.
INT_TEXTS = (
    ["0", "1", "-1", "-2", "3", "12", "+0", "+3", "-03", "007", "+012"]
    + ["1_0", "-1_2", "1__0", "_1", "1_", "٣", "-١٢", "１"]
    + ["", "x", "1.5", "0x1", "--1", "+-1", "1e3", "99999999999999999999"]
)
OP_TEXTS = [op.value for op in OPERATIONS] + ["conv_9x9", "", "SKIP", "skip=", "op=skip", "null_"]


def record_line(rng):
    """One line of a cell file: a canonical or damaged header or edge, a blank or a comment."""

    def pick(options):
        return options[int(rng.integers(len(options)))]

    shape = pick(["edge", "edge", "cell", "other", "blank"])
    if shape == "blank":
        return pick(["", "   ", "\t", "#", "# edge t=0 s=0 f=-2 op=skip"])
    head = shape if shape != "other" else pick(["node", "Edge", "cells", "v=4", "t=0"])
    keys = ["v"] if head == "cell" else ["t", "s", "f", "op"]
    tokens = [head]
    for key in keys:
        wrong = ["x=", f"{key}:", key.upper() + "=", ""]
        prefix = f"{key}=" if rng.random() < 0.8 else pick(wrong)
        value = pick(OP_TEXTS if key == "op" else INT_TEXTS)
        if rng.random() < 0.6:  # mostly well-formed values
            value = pick(OP_TEXTS[:NUM_OPERATIONS]) if key == "op" else str(int(rng.integers(-3, 10)))
        tokens.append(prefix + value)
    extra = pick([0, 0, 0, -1, 1])  # as many tokens, one fewer or one more
    tokens = tokens[:-1] if extra < 0 else tokens + ["op=skip"] * extra
    line = pick([" ", " ", "\t", "  ", " \t"]).join(tokens)
    if rng.random() < 0.3:
        line = pick(["", " ", "\t"]) + line + pick(["", " ", "\t"])
    comment = pick(["", "", "", "  # trailing", "#", "# t=1"])
    cut = int(rng.integers(len(line) + 1)) if rng.random() < 0.5 else len(line)
    return line[:cut] + comment + line[cut:]


def reference_edge_line(i, source, op):
    return f"edge t={i >> 1} s={i & 1} f={source} op={OPERATIONS[op].value}\n"


def reference_serialize(nodes, bounds, sources, ops):
    """The per-edge serializer that ``_serialize`` must reproduce byte for byte."""
    heads = bounds[:-1] + np.arange(len(nodes))
    texts = {n: f"\ncell v={n}\n" for n in set(nodes.tolist())}
    pieces = np.empty(len(nodes) + len(ops), dtype=object)
    pieces[heads] = [texts[n] for n in nodes.tolist()]
    is_edge = np.ones(len(pieces), dtype=bool)
    is_edge[heads] = False
    pos = np.arange(len(ops)) - np.repeat(bounds[:-1], np.diff(bounds))
    pieces[is_edge] = list(map(reference_edge_line, pos.tolist(), sources.tolist(), ops.tolist()))
    if len(nodes):
        pieces[0] = pieces[0][1:]
    return "".join(pieces.tolist())


class TestCodecReferences:
    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_line_record_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            line = record_line(rng)
            assert _line_record(line) == reference_line_record(line), line

    def test_record_lines_reach_every_record_kind(self):
        """The generated lines give blanks, headers, edges and every kind of fault."""
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(2000):
            kind, _, error = reference_line_record(record_line(rng))
            seen.add((kind, error and error.split(":")[0].split(" '")[0]))
        assert seen >= {
            (None, None),
            ("cell", None),
            ("edge", None),
            ("cell", "malformed cell header"),
            ("cell", "expected"),
            ("cell", "not an integer"),
            ("edge", "edge record needs t/s/f/op fields"),
            ("edge", "expected"),
            ("edge", "not an integer"),
            ("edge", "unknown operation name"),
            (None, "unknown record"),
        }

    @settings(deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 60), max_size=12))
    @example(seed=0, sizes=[])
    @example(seed=1, sizes=[1])
    @example(seed=2, sizes=[60])
    def test_serialize_matches_per_edge_reference(self, seed, sizes):
        rng = np.random.default_rng(seed)
        flat = _flat([sample_uniform(i, rng) for i in sizes])
        assert _serialize(*flat) == reference_serialize(*flat)

    def test_serialize_matches_reference_beyond_4096_distinct_lines(self):
        rng = np.random.default_rng(12)
        flat = _flat([sample_uniform(int(rng.integers(40, 61)), rng) for _ in range(60)])
        text = _serialize(*flat)
        assert len(set(text.splitlines())) > 4096
        assert text == reference_serialize(*flat)

    def test_serialize_renders_each_distinct_line_once(self, monkeypatch):
        rng = np.random.default_rng(13)
        cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(300)]
        calls = []
        render = archgraph._edge_line
        monkeypatch.setattr(archgraph, "_edge_line", lambda *key: calls.append(key) or render(*key))
        text = serialize_many(cells)
        distinct = {
            (i, f, o)
            for g in cells
            for i, (f, o) in enumerate(zip(g.sources.tolist(), g.ops.tolist()))
        }
        assert sorted(calls) == sorted(distinct)
        assert text == reference_serialize(*_flat(cells))

    def test_canonical_file_never_reaches_fault_path(self, monkeypatch):
        rng = np.random.default_rng(14)
        cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(300)]
        faults = []
        name_fault = archgraph._line_fault
        spy = lambda tokens: faults.append(tokens) or name_fault(tokens)  # noqa: E731
        monkeypatch.setattr(archgraph, "_line_fault", spy)
        assert parse_many(serialize_many(cells)) == cells
        assert faults == []
        with pytest.raises(ParseError, match="line 2: not an integer: 'x'"):
            parse_many("cell v=4\nedge t=x s=0 f=-2 op=skip\n")
        assert faults == [["edge", "t=x", "s=0", "f=-2", "op=skip"]]
