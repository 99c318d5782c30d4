"""Operation taxonomy, cost model, and transition-rule tests."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natforge.opspace import (
    NUM_OPERATIONS,
    OPERATIONS,
    VALID,
    WHITELISTED_TRANSITIONS,
    CostConfig,
    OperationKind,
    TypeClass,
    audit_rows,
    audit_violations,
    is_valid_transition_natpp,
    madds_of,
    nat_actions,
    non_increasing_table,
    op_costs,
    op_from_name,
    params_of,
    transition_mask,
)

CFG = CostConfig(channels_in=128, channels_out=128, height=32, width=32)


def reference_edge_ok(src, dst, cfg):
    """The per-edge cost audit rule that ``non_increasing_table`` must tabulate."""
    if (src, dst) in WHITELISTED_TRANSITIONS:
        return True
    grows_params = params_of(dst, cfg) > params_of(src, cfg)
    return not (grows_params or madds_of(dst, cfg) > madds_of(src, cfg))


def valid_targets(src):
    """The operations ``src`` may become, in index order, read from its mask."""
    return [OPERATIONS[i] for i in np.flatnonzero(transition_mask(src))]


class TestVocabulary:
    def test_exactly_13_operations(self):
        assert NUM_OPERATIONS == 13
        assert len(set(OPERATIONS)) == 13

    def test_names_round_trip(self):
        for op in OPERATIONS:
            assert op_from_name(op.value) is op

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown operation"):
            op_from_name("conv_7x7")

    def test_skip_null_carry_no_kernel(self):
        assert OperationKind.SKIP.kernel is None
        assert OperationKind.NULL.kernel is None

    def test_index_is_canonical_order(self):
        for i, op in enumerate(OPERATIONS):
            assert op.index == i

    def test_every_member_states_its_name_type_kernel_and_index(self):
        rows = [(op.value, op.type_class, op.kernel, op.index) for op in OPERATIONS]
        assert rows == [
            ("conv_1x1", TypeClass.CONV, 1, 0),
            ("conv_3x3", TypeClass.CONV, 3, 1),
            ("conv_5x5", TypeClass.CONV, 5, 2),
            ("sep_conv_3x3", TypeClass.SEP_CONV, 3, 3),
            ("sep_conv_5x5", TypeClass.SEP_CONV, 5, 4),
            ("dil_sep_conv_3x3", TypeClass.DIL_SEP_CONV, 3, 5),
            ("dil_sep_conv_5x5", TypeClass.DIL_SEP_CONV, 5, 6),
            ("max_pool_3x3", TypeClass.MAX_POOL, 3, 7),
            ("max_pool_5x5", TypeClass.MAX_POOL, 5, 8),
            ("avg_pool_3x3", TypeClass.AVG_POOL, 3, 9),
            ("avg_pool_5x5", TypeClass.AVG_POOL, 5, 10),
            ("skip", TypeClass.SKIP, None, 11),
            ("null", TypeClass.NULL, None, 12),
        ]

    def test_members_survive_pickle_and_deepcopy_as_themselves(self):
        for op in OPERATIONS:
            assert pickle.loads(pickle.dumps(op)) is op
            assert copy.deepcopy(op) is op
            assert OperationKind(op.value) is op


class TestCostModel:
    def test_conv_3x3_params(self):
        assert params_of(OperationKind.CONV_3X3, CFG) == 147_456

    def test_conv_3x3_madds(self):
        assert madds_of(OperationKind.CONV_3X3, CFG) == 150_994_944

    def test_sep_conv_3x3_params(self):
        assert params_of(OperationKind.SEP_CONV_3X3, CFG) == 17_536

    def test_dilation_adds_no_params(self):
        assert params_of(OperationKind.DIL_SEP_CONV_3X3, CFG) == params_of(
            OperationKind.SEP_CONV_3X3, CFG
        )

    def test_skip_madds_is_copy_traffic(self):
        assert params_of(OperationKind.SKIP, CFG) == 0
        assert madds_of(OperationKind.SKIP, CFG) == 131_072

    def test_null_costs_nothing(self):
        assert op_costs(CFG)[OperationKind.NULL.index] == (0, 0)

    def test_skip_costlier_than_null(self):
        assert madds_of(OperationKind.SKIP, CFG) > madds_of(OperationKind.NULL, CFG)

    def test_pool_madds(self):
        assert madds_of(OperationKind.MAX_POOL_3X3, CFG) == 9 * 128 * 1024

    def test_negative_cost_config_rejected(self):
        with pytest.raises(ValueError):
            CostConfig(channels_in=0)

    def test_single_output_channel_rejected(self):
        # At Cout = 1, conv_k -> sep_conv_k grows from k^2*Cin to k^2*Cin + Cin params.
        with pytest.raises(ValueError, match="channels_out must be >= 2"):
            CostConfig(channels_out=1)
        CostConfig(channels_out=2)


class TestNatActions:
    def test_three_actions_keep_null_skip(self):
        acts = nat_actions(OperationKind.CONV_3X3)
        assert acts == (OperationKind.CONV_3X3, OperationKind.NULL, OperationKind.SKIP)

    def test_skip_source_collapses(self):
        assert nat_actions(OperationKind.SKIP) == (
            OperationKind.SKIP,
            OperationKind.NULL,
            OperationKind.SKIP,
        )

    def test_nat_subset_of_natpp_masks(self):
        for src in OPERATIONS:
            targets = valid_targets(src)
            for action in nat_actions(src):
                assert action in targets


class TestTransitionRules:
    def test_identity_always_valid(self):
        for op in OPERATIONS:
            assert is_valid_transition_natpp(op, op)

    def test_conv_1x1_to_sep_conv_3x3_invalid(self):
        assert not is_valid_transition_natpp(
            OperationKind.CONV_1X1, OperationKind.SEP_CONV_3X3
        )

    def test_sep_conv_5x5_to_conv_3x3_invalid(self):
        assert not is_valid_transition_natpp(
            OperationKind.SEP_CONV_5X5, OperationKind.CONV_3X3
        )

    def test_pool_types_mutually_reachable(self):
        assert is_valid_transition_natpp(
            OperationKind.MAX_POOL_3X3, OperationKind.AVG_POOL_3X3
        )
        assert is_valid_transition_natpp(
            OperationKind.AVG_POOL_5X5, OperationKind.MAX_POOL_3X3
        )

    def test_null_to_skip_valid_and_whitelisted(self):
        assert is_valid_transition_natpp(OperationKind.NULL, OperationKind.SKIP)
        assert (OperationKind.NULL, OperationKind.SKIP) in WHITELISTED_TRANSITIONS

    def test_skip_null_form_a_sink(self):
        for src in (OperationKind.SKIP, OperationKind.NULL):
            reachable = valid_targets(src)
            assert set(reachable) <= {OperationKind.SKIP, OperationKind.NULL}

    def test_kernel_never_grows(self):
        for a in OPERATIONS:
            for b in OPERATIONS:
                if is_valid_transition_natpp(a, b) and a.kernel and b.kernel:
                    assert b.kernel <= a.kernel


class TestTransitionMask:
    def test_conv_3x3_mask_set(self):
        expected = {
            OperationKind.CONV_3X3,
            OperationKind.CONV_1X1,
            OperationKind.SEP_CONV_3X3,
            OperationKind.DIL_SEP_CONV_3X3,
            OperationKind.MAX_POOL_3X3,
            OperationKind.AVG_POOL_3X3,
            OperationKind.SKIP,
            OperationKind.NULL,
        }
        assert set(valid_targets(OperationKind.CONV_3X3)) == expected

    def test_conv_1x1_mask_set(self):
        expected = {OperationKind.CONV_1X1, OperationKind.SKIP, OperationKind.NULL}
        assert set(valid_targets(OperationKind.CONV_1X1)) == expected

    def test_max_pool_5x5_mask_set(self):
        expected = {
            OperationKind.MAX_POOL_5X5,
            OperationKind.MAX_POOL_3X3,
            OperationKind.AVG_POOL_5X5,
            OperationKind.AVG_POOL_3X3,
            OperationKind.SKIP,
            OperationKind.NULL,
        }
        assert set(valid_targets(OperationKind.MAX_POOL_5X5)) == expected

    def test_reflexivity(self):
        for op in OPERATIONS:
            assert transition_mask(op)[op.index] == 1

    def test_row_sum_matches_targets(self):
        for op in OPERATIONS:
            assert transition_mask(op).sum() == len(valid_targets(op))


    def test_table_matches_predicate(self):
        assert VALID.shape == (NUM_OPERATIONS, NUM_OPERATIONS)
        for i, src in enumerate(OPERATIONS):
            for j, dst in enumerate(OPERATIONS):
                assert VALID[i, j] == is_valid_transition_natpp(src, dst)

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            VALID[0, 1] = 1
        assert np.array_equal(VALID[0], transition_mask(OPERATIONS[0]))
        with pytest.raises(ValueError):
            transition_mask(OPERATIONS[0])[1] = 1


class TestAudit:
    def test_rows_cover_all_pairs(self):
        rows = audit_rows(CFG)
        assert len(rows) == 169
        assert {(r["from"], r["to"]) for r in rows} == {
            (a.value, b.value) for a in OPERATIONS for b in OPERATIONS
        }

    def test_no_violations_at_reference_config(self):
        assert audit_violations(CFG) == []

    @settings(deadline=None)
    @given(
        channels_in=st.integers(1, 512),
        channels_out=st.integers(2, 512),
        hw=st.integers(1, 64),
    )
    # Conv madds beyond the int64 range: costs must stay exact Python ints.
    @example(channels_in=10**6, channels_out=10**6, hw=10**4)
    def test_no_violations_at_any_accepted_geometry(self, channels_in, channels_out, hw):
        cfg = CostConfig(channels_in=channels_in, channels_out=channels_out, height=hw, width=hw)
        assert audit_violations(cfg) == []

    def test_cost_table_is_cached_and_read_only(self):
        table = non_increasing_table(CostConfig())
        assert table is non_increasing_table(CostConfig())
        assert table.shape == (NUM_OPERATIONS, NUM_OPERATIONS)
        with pytest.raises(ValueError):
            table[0, 0] = False

    @settings(deadline=None)
    @given(
        channels_in=st.integers(1, 512),
        channels_out=st.integers(2, 512),
        hw=st.integers(1, 64),
    )
    @example(channels_in=10**6, channels_out=10**6, hw=10**4)
    def test_cost_table_matches_per_edge_rule(self, channels_in, channels_out, hw):
        cfg = CostConfig(channels_in=channels_in, channels_out=channels_out, height=hw, width=hw)
        table = non_increasing_table(cfg)
        for src in OPERATIONS:
            for dst in OPERATIONS:
                assert table[src.index, dst.index] == reference_edge_ok(src, dst, cfg)

    @pytest.mark.parametrize("cfg", [CFG, CostConfig(10**6, 10**6, 10**4, 10**4)])
    def test_op_costs_tabulate_the_definitions(self, cfg):
        costs = op_costs(cfg)
        assert costs is op_costs(cfg)
        assert costs == tuple((params_of(op, cfg), madds_of(op, cfg)) for op in OPERATIONS)
        assert all(type(c) is int and c >= 0 for pair in costs for c in pair)

    def test_null_to_skip_row(self):
        rows = {(r["from"], r["to"]): r for r in audit_rows(CFG)}
        row = rows[("null", "skip")]
        assert row["valid"] == 1
        assert row["whitelisted"] == 1
        assert row["params_delta"] == 0
        assert row["madds_delta"] == 131_072

    def test_invalid_row_example(self):
        rows = {(r["from"], r["to"]): r for r in audit_rows(CFG)}
        assert rows[("conv_1x1", "sep_conv_3x3")]["valid"] == 0
