"""Controller tests: forward distributions, sampling, and exact gradients."""

import json

import numpy as np
import pytest
from scipy import stats

from natforge.archgraph import EncodingConfig, encode, sample_uniform
from natforge.gcnpolicy import (
    NAT,
    NATPP,
    PolicyOutput,
    PolicyParams,
    actions_to_ops,
    argmax_actions,
    ascend_,
    forward,
    init_params,
    load_policy,
    log_prob_of,
    policy_gradient,
    sample_actions,
    save_policy,
    total_entropy,
)
from natforge.numkernel import grad_check
from natforge.opspace import OPERATIONS, OperationKind, transition_mask

LAYOUT = EncodingConfig(i_max=4)


def zero_params(mode: str, depth: int = 2, hidden: int = 64) -> PolicyParams:
    p = init_params(mode, LAYOUT.feature_dim, np.random.default_rng(0), hidden_dim=hidden, depth=depth)
    for w in p.gcn:
        w[:] = 0.0
    p.fc[:] = 0.0
    return p


class TestForward:
    def test_zero_params_nat_uniform(self):
        g = sample_uniform(4, np.random.default_rng(1))
        out = forward(encode(g, LAYOUT), g.ops(), zero_params(NAT))
        assert out.Z.shape == (8, 3)
        assert np.allclose(out.Z, 1 / 3)

    def test_zero_params_natpp_mask_uniform(self):
        g = sample_uniform(4, np.random.default_rng(2))
        out = forward(encode(g, LAYOUT), g.ops(), zero_params(NATPP))
        for e, op in enumerate(g.ops()):
            mask = transition_mask(op)
            expected = np.array(mask.bits, dtype=float) / mask.popcount()
            assert np.allclose(out.Z[e], expected)

    def test_conv_1x1_row_uniform_over_three(self):
        rng = np.random.default_rng(3)
        while True:
            g = sample_uniform(4, rng)
            if OperationKind.CONV_1X1 in g.ops():
                break
        e = g.ops().index(OperationKind.CONV_1X1)
        out = forward(encode(g, LAYOUT), g.ops(), zero_params(NATPP))
        assert np.isclose(out.Z[e].max(), 1 / 3)
        assert np.isclose(out.Z[e].sum(), 1.0)

    def test_skip_source_forbids_convolutions(self):
        rng = np.random.default_rng(4)
        params = init_params(NATPP, LAYOUT.feature_dim, rng)
        while True:
            g = sample_uniform(4, rng)
            if OperationKind.SKIP in g.ops():
                break
        e = g.ops().index(OperationKind.SKIP)
        out = forward(encode(g, LAYOUT), g.ops(), params)
        for op in OPERATIONS:
            if op.kernel is not None:
                assert out.Z[e, op.index] == 0.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        params = init_params(NATPP, LAYOUT.feature_dim, rng)
        for _ in range(20):
            g = sample_uniform(4, rng)
            out = forward(encode(g, LAYOUT), g.ops(), params)
            assert np.abs(out.Z.sum(axis=1) - 1.0).max() <= 1e-9

    def test_depth_configurable(self):
        rng = np.random.default_rng(6)
        for depth in (1, 2, 5, 10):
            params = init_params(NATPP, LAYOUT.feature_dim, rng, depth=depth)
            assert params.depth == depth
            g = sample_uniform(4, rng)
            out = forward(encode(g, LAYOUT), g.ops(), params)
            assert out.Z.shape == (8, 13)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        params = init_params(NATPP, 20, rng)
        g = sample_uniform(4, rng)
        with pytest.raises(ValueError, match="feature dim"):
            forward(encode(g, LAYOUT), g.ops(), params)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            init_params("both", LAYOUT.feature_dim, np.random.default_rng(0))


class TestSampling:
    def test_degenerate_row_always_picked(self):
        z = np.zeros((1, 3))
        z[0, 0] = 1.0
        out = PolicyOutput(Z=z, masks=np.ones((1, 3), dtype=int))
        rng = np.random.default_rng(8)
        for _ in range(20):
            actions, logp = sample_actions(out, rng)
            assert actions[0] == 0
            assert logp == 0.0

    def test_uniform_rows_chi_square(self):
        z = np.full((1, 3), 1 / 3)
        out = PolicyOutput(Z=z, masks=np.ones((1, 3), dtype=int))
        rng = np.random.default_rng(9)
        counts = np.zeros(3)
        for _ in range(30_000):
            actions, _ = sample_actions(out, rng)
            counts[actions[0]] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_samples_always_mask_valid(self):
        rng = np.random.default_rng(10)
        params = init_params(NATPP, LAYOUT.feature_dim, rng)
        for _ in range(50):
            g = sample_uniform(4, rng)
            out = forward(encode(g, LAYOUT), g.ops(), params)
            actions, _ = sample_actions(out, rng)
            assert (out.masks[np.arange(8), actions] == 1).all()

    def test_log_prob_consistency(self):
        rng = np.random.default_rng(11)
        params = init_params(NAT, LAYOUT.feature_dim, rng)
        g = sample_uniform(4, rng)
        out = forward(encode(g, LAYOUT), g.ops(), params)
        actions, logp = sample_actions(out, rng)
        assert logp == pytest.approx(log_prob_of(out, actions))


class TestArgmax:
    def test_plain_argmax(self):
        z = np.array([[0.2, 0.5, 0.3]])
        out = PolicyOutput(Z=z, masks=np.ones((1, 3), dtype=int))
        assert argmax_actions(out)[0] == 1

    def test_tie_breaks_low_index(self):
        z = np.array([[0.5, 0.5, 0.0]])
        out = PolicyOutput(Z=z, masks=np.ones((1, 3), dtype=int))
        assert argmax_actions(out)[0] == 0

    def test_single_set_bit(self):
        z = np.zeros((1, 13))
        z[0, 12] = 1.0
        masks = np.zeros((1, 13), dtype=int)
        masks[0, 12] = 1
        assert argmax_actions(PolicyOutput(Z=z, masks=masks))[0] == 12


class TestActionsToOps:
    def test_nat_translation(self):
        current = (OperationKind.CONV_3X3, OperationKind.MAX_POOL_5X5)
        ops = actions_to_ops(NAT, current, np.array([0, 2]))
        assert ops == (OperationKind.CONV_3X3, OperationKind.SKIP)

    def test_natpp_translation(self):
        current = (OperationKind.CONV_3X3,)
        ops = actions_to_ops(NATPP, current, np.array([OperationKind.SEP_CONV_3X3.index]))
        assert ops == (OperationKind.SEP_CONV_3X3,)


class TestGradient:
    def test_zero_reward_zero_lambda(self):
        rng = np.random.default_rng(12)
        params = init_params(NATPP, LAYOUT.feature_dim, rng)
        g = sample_uniform(4, rng)
        out = forward(encode(g, LAYOUT), g.ops(), params)
        actions, _ = sample_actions(out, rng)
        grads = policy_gradient(forward(encode(g, LAYOUT), g.ops(), params), params, actions, 0.0, 0.0)
        assert all(np.all(gw == 0) for gw in grads.gcn)
        assert np.all(grads.fc == 0)

    def test_masked_action_rejected(self):
        rng = np.random.default_rng(13)
        params = init_params(NATPP, LAYOUT.feature_dim, rng)
        while True:
            g = sample_uniform(4, rng)
            if OperationKind.SKIP in g.ops():
                break
        e = g.ops().index(OperationKind.SKIP)
        actions = np.array([op.index for op in g.ops()])
        actions[e] = OperationKind.CONV_3X3.index
        with pytest.raises(ValueError, match="mask"):
            policy_gradient(forward(encode(g, LAYOUT), g.ops(), params), params, actions, 1.0, 0.0)

    def test_non_finite_reward_rejected(self):
        rng = np.random.default_rng(14)
        params = init_params(NAT, LAYOUT.feature_dim, rng)
        g = sample_uniform(4, rng)
        with pytest.raises(ValueError, match="finite"):
            policy_gradient(forward(encode(g, LAYOUT), g.ops(), params), params, np.zeros(8, dtype=int), float("inf"), 0.0)

    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(15)
        params = init_params(mode, LAYOUT.feature_dim, rng, hidden_dim=8)
        g = sample_uniform(4, rng)
        enc = encode(g, LAYOUT)
        out = forward(enc, g.ops(), params)
        actions, _ = sample_actions(out, rng)
        reward, lam = 0.7, 0.05
        grads = policy_gradient(forward(enc, g.ops(), params), params, actions, reward, lam)

        def objective(flat):
            probe = params.copy()
            offset = 0
            for w in probe.gcn:
                w[:] = flat[offset : offset + w.size].reshape(w.shape)
                offset += w.size
            probe.fc[:] = flat[offset:].reshape(probe.fc.shape)
            o = forward(enc, g.ops(), probe)
            return reward * log_prob_of(o, actions) + lam * total_entropy(o)

        flat = np.concatenate([w.ravel() for w in params.gcn] + [params.fc.ravel()])
        analytic = np.concatenate([gw.ravel() for gw in grads.gcn] + [grads.fc.ravel()])
        assert grad_check(objective, analytic, flat) < 1e-4

    def test_entropy_step_never_decreases_entropy(self):
        rng = np.random.default_rng(16)
        params = init_params(NATPP, LAYOUT.feature_dim, rng)
        g = sample_uniform(4, rng)
        enc = encode(g, LAYOUT)
        out = forward(enc, g.ops(), params)
        actions, _ = sample_actions(out, rng)
        before = total_entropy(out)
        grads = policy_gradient(forward(enc, g.ops(), params), params, actions, 0.0, 1.0)
        ascend_(params, grads, 1e-4)
        after = total_entropy(forward(enc, g.ops(), params))
        assert after >= before - 1e-12


def reference_sample_actions(out, rng):
    """Per-edge ``rng.choice`` sampler that ``sample_actions`` must reproduce exactly."""
    k, c = out.Z.shape
    actions = np.empty(k, dtype=int)
    log_prob = 0.0
    for e in range(k):
        p = out.Z[e] / out.Z[e].sum()
        actions[e] = rng.choice(c, p=p)
        log_prob += float(np.log(out.Z[e, actions[e]]))
    return actions, log_prob


def reference_policy_gradient(out, params, actions, reward, entropy_weight):
    """Per-row ``g_u`` loop that ``policy_gradient`` must reproduce bit for bit."""
    a, hiddens, pres, m = out.cache
    k, c = out.Z.shape
    g_u = np.zeros((k, c))
    for e in range(k):
        p = out.Z[e]
        grad_logp = -p.copy()
        grad_logp[actions[e]] += 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            logp = np.where(p > 0, np.log(p), 0.0)
        h_row = float(-(p * logp).sum())
        grad_h = np.where(p > 0, -p * (logp + h_row), 0.0)
        g_u[e] = reward * grad_logp + entropy_weight * grad_h

    num_inter = k // 2
    g_m = np.zeros_like(m)
    grad_fc = np.zeros_like(params.fc)
    for l in range(num_inter):
        node_grad = np.concatenate([g_u[2 * l], g_u[2 * l + 1]])
        g_m[2 + l] = params.fc @ node_grad
        grad_fc += np.outer(m[2 + l], node_grad)

    grads = [np.zeros_like(w) for w in params.gcn]
    b = a @ hiddens[-1]
    grads[-1] = b.T @ g_m
    g_h = a.T @ (g_m @ params.gcn[-1].T)
    for i in range(params.depth - 2, -1, -1):
        g_pre = g_h * (pres[i] > 0)
        grads[i] = (a @ hiddens[i]).T @ g_pre
        g_h = a.T @ (g_pre @ params.gcn[i].T)
    return grads, grad_fc


def random_outputs(count, seed):
    """Forward outputs over both modes, 1-4 intermediates and peaked or flat logits."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        mode = NAT if i % 2 == 0 else NATPP
        params = init_params(mode, LAYOUT.feature_dim, rng, depth=int(rng.integers(1, 4)))
        params.fc *= float(rng.choice([0.1, 1.0, 30.0]))
        g = sample_uniform(int(rng.integers(1, 5)), rng)
        yield params, forward(encode(g, LAYOUT), g.ops(), params)


def one_hot_outputs():
    for c in (3, 13):
        for hot in range(c):
            z = np.zeros((4, c))
            z[:, hot] = 1.0
            z[1] = 0.0
            z[1, c - 1 - hot] = 1.0
            yield PolicyOutput(Z=z, masks=(z > 0).astype(int))


class TestReferenceEquivalence:
    def test_sampler_matches_per_edge_choice(self):
        outs = [out for _, out in random_outputs(200, 20)] + list(one_hot_outputs())
        for i, out in enumerate(outs):
            fast_rng, ref_rng = np.random.default_rng(i), np.random.default_rng(i)
            for _ in range(5):
                actions, logp = sample_actions(out, fast_rng)
                ref_actions, ref_logp = reference_sample_actions(out, ref_rng)
                assert np.array_equal(actions, ref_actions)
                assert logp == pytest.approx(ref_logp, rel=1e-12, abs=1e-12)
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize(
        "z", [[[0.5, np.nan, 0.5]], [[-0.5, 1.0, 0.5]]], ids=["nan", "negative"]
    )
    def test_sampler_rejects_invalid_rows_like_choice(self, z):
        out = PolicyOutput(Z=np.array(z), masks=np.ones((1, 3), dtype=int))
        with pytest.raises(ValueError):
            reference_sample_actions(out, np.random.default_rng(0))
        with pytest.raises(ValueError, match="probabilities"):
            sample_actions(out, np.random.default_rng(0))

    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_gradient_matches_per_row_loop(self, mode):
        rng = np.random.default_rng(21)
        checked = 0
        for params, out in random_outputs(120, 22):
            if params.mode != mode:
                continue
            actions, _ = sample_actions(out, rng)
            reward = float(rng.standard_normal())
            lam = float(rng.choice([0.0, 0.003, 0.1, 1.0]))
            grads = policy_gradient(out, params, actions, reward, lam)
            ref_gcn, ref_fc = reference_policy_gradient(out, params, actions, reward, lam)
            assert all(np.array_equal(a, b) for a, b in zip(grads.gcn, ref_gcn))
            assert np.array_equal(grads.fc, ref_fc)
            checked += 1
        assert checked == 60

    def test_gradient_rejects_output_without_cache(self):
        params = init_params(NAT, LAYOUT.feature_dim, np.random.default_rng(23))
        out = PolicyOutput(Z=np.full((8, 3), 1 / 3), masks=np.ones((8, 3), dtype=int))
        with pytest.raises(ValueError, match="cache"):
            policy_gradient(out, params, np.zeros(8, dtype=int), 1.0, 0.0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        params = init_params(NATPP, LAYOUT.feature_dim, rng, depth=3)
        path = str(tmp_path / "policy.json")
        save_policy(params, path)
        loaded = load_policy(path)
        assert loaded.mode == params.mode
        assert loaded.i_max == params.i_max
        assert all(np.array_equal(a, b) for a, b in zip(loaded.gcn, params.gcn))
        assert np.array_equal(loaded.fc, params.fc)

    @pytest.fixture()
    def payload(self, tmp_path):
        params = init_params(NAT, LAYOUT.feature_dim, np.random.default_rng(18))
        path = str(tmp_path / "policy.json")
        save_policy(params, path)
        with open(path) as fh:
            return json.load(fh)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("mode", lambda p: p.update(mode="bogus")),
            ("gcn_values[1]", lambda p: p["gcn_values"][1].__setitem__(0, float("nan"))),
            ("fc_values", lambda p: p["fc_values"].__setitem__(3, float("inf"))),
            ("fc_values", lambda p: p["fc_values"].pop()),
            ("fc_shape", lambda p: p.update(mode="nat++")),
            ("gcn_shapes[0]", lambda p: p.update(i_max=3)),
            ("gcn_shapes", lambda p: p.update(depth=3)),
            ("i_max", lambda p: p.update(i_max=0)),
            ("gcn_values[0]", lambda p: p["gcn_values"].__setitem__(0, "x")),
            ("depth", lambda p: p.pop("depth")),
        ],
    )
    def test_bad_payload_names_field(self, payload, tmp_path, field, edit):
        edit(payload)
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError) as info:
            load_policy(path)
        assert str(info.value).startswith(field + ":")
