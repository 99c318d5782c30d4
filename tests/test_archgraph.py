"""Cell DAG construction, sampling, encoding, costing, and serialization tests."""

import numpy as np
import pytest
from scipy import stats

from natforge.archgraph import (
    CellGraph,
    EdgeSlot,
    EncodingConfig,
    GraphError,
    ParseError,
    apply_transitions,
    assignment_count,
    cost_non_increasing,
    cost_of,
    encode,
    from_record,
    make_cell,
    parse,
    parse_many,
    same_topology,
    sample_uniform,
    serialize,
    serialize_many,
    to_record,
    validate,
)
from natforge.opspace import NUM_OPERATIONS, CostConfig, OperationKind

CFG = CostConfig(channels_in=128, channels_out=128, height=32, width=32)


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
        swapped = CellGraph(g.num_nodes, (g.edges[1], g.edges[0]) + g.edges[2:])
        with pytest.raises(GraphError, match="edge order: edge 0 is slot 1 of node 0"):
            validate(swapped)
        validate(make_cell(g.num_nodes, swapped.edges))


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
        assert EncodingConfig(i_max=4).feature_dim == 36

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

    def test_bare_adjacency_flag(self):
        g = chain_cell(OperationKind.SKIP)
        enc = encode(g, EncodingConfig(normalize=False))
        assert set(np.unique(enc.adjacency)) <= {0.0, 1.0}
        assert np.allclose(enc.adjacency, enc.adjacency.T)

    def test_injective_on_op_assignments(self):
        a = encode(chain_cell(OperationKind.CONV_3X3))
        b = encode(chain_cell(OperationKind.SEP_CONV_3X3))
        assert not np.array_equal(a.features, b.features)

    def test_rejects_oversized_graph(self):
        rng = np.random.default_rng(4)
        g = sample_uniform(5, rng)
        with pytest.raises(GraphError, match="allows"):
            encode(g, EncodingConfig(i_max=4))


class TestTransitions:
    def test_identity_actions_keep_graph(self):
        g = chain_cell(OperationKind.CONV_3X3)
        assert apply_transitions(g, g.ops()) == g

    def test_conv_to_sep_drops_params(self):
        g = chain_cell(OperationKind.CONV_3X3, num_intermediate=1)
        actions = (OperationKind.SEP_CONV_3X3, OperationKind.CONV_3X3)
        out = apply_transitions(g, actions)
        assert cost_of(g, CFG).total_params - cost_of(out, CFG).total_params == 129_920

    def test_invalid_action_names_edge(self):
        g = chain_cell(OperationKind.CONV_1X1, num_intermediate=1)
        with pytest.raises(ValueError, match="edge 1"):
            apply_transitions(g, (OperationKind.CONV_1X1, OperationKind.SEP_CONV_3X3))

    def test_wrong_action_count_rejected(self):
        g = chain_cell(OperationKind.SKIP)
        with pytest.raises(ValueError, match="expected 8 actions"):
            apply_transitions(g, (OperationKind.SKIP,))

    def test_cost_never_increases_randomized(self):
        rng = np.random.default_rng(5)
        from natforge.opspace import transition_mask

        for _ in range(500):
            g = sample_uniform(4, rng)
            actions = []
            for e in g.edges:
                ops = transition_mask(e.op).ops()
                actions.append(ops[int(rng.integers(len(ops)))])
            out = apply_transitions(g, actions)
            assert cost_non_increasing(g, out, CFG)


class TestCosting:
    def test_totals_sum_per_edge(self):
        g = chain_cell(OperationKind.SEP_CONV_5X5)
        report = cost_of(g, CFG)
        assert report.total_params == sum(c.params for c in report.per_edge)
        assert report.total_madds == sum(c.madds for c in report.per_edge)

    def test_all_null_costs_zero(self):
        g = chain_cell(OperationKind.NULL)
        report = cost_of(g, CFG)
        assert report.total_params == 0
        assert report.total_madds == 0

    def test_whitelist_in_cost_audit(self):
        before = chain_cell(OperationKind.NULL, num_intermediate=1)
        after = apply_transitions(before, (OperationKind.SKIP, OperationKind.NULL))
        assert cost_non_increasing(before, after, CFG)

    def test_cost_audit_rejects_topology_mismatch(self):
        before = chain_cell(OperationKind.CONV_3X3, num_intermediate=2)
        moved = EdgeSlot(1, 0, -2, OperationKind.NULL)
        rewired = make_cell(5, before.edges[:2] + (moved,) + before.edges[3:])
        with pytest.raises(ValueError, match="topology"):
            cost_non_increasing(before, rewired, CFG)


class TestSameTopology:
    def test_rewrite_keeps_topology(self):
        g = chain_cell(OperationKind.CONV_5X5)
        assert same_topology(g, apply_transitions(g, (OperationKind.NULL,) * 8))

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


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            g = sample_uniform(4, rng)
            assert parse(serialize(g)) == g

    def test_many_round_trip(self):
        rng = np.random.default_rng(7)
        graphs = [sample_uniform(3, rng) for _ in range(5)]
        assert parse_many(serialize_many(graphs)) == graphs

    def test_comments_and_blanks_ignored(self):
        text = "# header comment\n\ncell v=4\nedge t=0 s=0 f=-2 op=skip  # inline\nedge t=0 s=1 f=-1 op=null\n"
        g = parse(text)
        assert g.num_nodes == 4

    def test_malformed_line_reported(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("cell v=4\nedge t=0 s=0 f=-2\nedge t=0 s=1 f=-1 op=null\n")

    def test_unknown_op_reported(self):
        with pytest.raises(ParseError, match="unknown operation"):
            parse("cell v=4\nedge t=0 s=0 f=-2 op=conv_9x9\nedge t=0 s=1 f=-1 op=null\n")

    def test_record_round_trip(self):
        g = chain_cell(OperationKind.MAX_POOL_3X3)
        assert from_record(to_record(g)) == g
