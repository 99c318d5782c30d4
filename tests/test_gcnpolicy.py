"""Controller tests: forward distributions, sampling, and exact gradients."""

import base64
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from natforge.archgraph import (
    GraphEncoding,
    apply_transitions,
    encode,
    sample_uniform,
)
from natforge.evaluator import OracleProvider, make_oracle
from natforge.gcnpolicy import (
    NAT,
    NATPP,
    PolicyOutput,
    PolicyParams,
    _entropy_terms,
    _forward,
    _reward_logit_grads,
    actions_to_ops,
    ascend_,
    backprop,
    forward,
    init_params,
    load_policy,
    policy_gradient,
    sample_actions,
    save_policy,
    total_entropy,
)
from natforge.numkernel import checkpoint_text, grad_check
from natforge.opspace import OPERATIONS, OperationKind, nat_actions, transition_mask


def log_prob_of(out: PolicyOutput, actions: np.ndarray) -> float:
    """Joint log-probability of one action per edge: the REINFORCE objective's log term."""
    return float(np.log(out.Z[np.arange(out.num_edges), actions]).sum())


def zero_params(mode: str, depth: int = 2, hidden: int = 64) -> PolicyParams:
    p = init_params(mode, np.random.default_rng(0), hidden_dim=hidden, depth=depth)
    for w in p.gcn:
        w[:] = 0.0
    p.fc[:] = 0.0
    return p


class TestForward:
    def test_zero_params_nat_uniform(self):
        g = sample_uniform(4, np.random.default_rng(1))
        out = forward(encode(g), g.ops, zero_params(NAT))
        assert out.Z.shape == (8, 3)
        assert np.allclose(out.Z, 1 / 3)

    def test_zero_params_natpp_mask_uniform(self):
        g = sample_uniform(4, np.random.default_rng(2))
        out = forward(encode(g), g.ops, zero_params(NATPP))
        for e, op in enumerate(g.edges):
            mask = transition_mask(op.op)
            expected = mask.astype(float) / np.count_nonzero(mask)
            assert np.allclose(out.Z[e], expected)

    def test_conv_1x1_row_uniform_over_three(self):
        rng = np.random.default_rng(3)
        while True:
            g = sample_uniform(4, rng)
            if OperationKind.CONV_1X1.index in g.ops:
                break
        e = g.ops.tolist().index(OperationKind.CONV_1X1.index)
        out = forward(encode(g), g.ops, zero_params(NATPP))
        assert np.isclose(out.Z[e].max(), 1 / 3)
        assert np.isclose(out.Z[e].sum(), 1.0)

    def test_skip_source_forbids_convolutions(self):
        rng = np.random.default_rng(4)
        params = init_params(NATPP, rng)
        while True:
            g = sample_uniform(4, rng)
            if OperationKind.SKIP.index in g.ops:
                break
        e = g.ops.tolist().index(OperationKind.SKIP.index)
        out = forward(encode(g), g.ops, params)
        for op in OPERATIONS:
            if op.kernel is not None:
                assert out.Z[e, op.index] == 0.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        params = init_params(NATPP, rng)
        for _ in range(20):
            g = sample_uniform(4, rng)
            out = forward(encode(g), g.ops, params)
            assert np.abs(out.Z.sum(axis=1) - 1.0).max() <= 1e-9

    def test_depth_configurable(self):
        rng = np.random.default_rng(6)
        for depth in (1, 2, 5, 10):
            params = init_params(NATPP, rng, depth=depth)
            assert params.depth == depth
            g = sample_uniform(4, rng)
            out = forward(encode(g), g.ops, params)
            assert out.Z.shape == (8, 13)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        full = init_params(NATPP, rng)
        params = PolicyParams(NATPP, [full.gcn[0][:20], *full.gcn[1:]], full.fc)
        g = sample_uniform(4, rng)
        with pytest.raises(ValueError, match="feature dim"):
            forward(encode(g), g.ops, params)

    @pytest.mark.parametrize("bad", [-1, 13])
    def test_out_of_range_ops_rejected(self, bad):
        g = sample_uniform(2, np.random.default_rng(8))
        ops = g.ops.copy()
        ops[1] = bad
        with pytest.raises(ValueError, match="operation indices"):
            forward(encode(g), ops, zero_params(NATPP))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            init_params("both", np.random.default_rng(0))


class TestSampling:
    def test_degenerate_row_always_picked(self):
        z = np.zeros((1, 3))
        z[0, 0] = 1.0
        out = PolicyOutput(Z=z, masks=np.ones((1, 3), dtype=int))
        rng = np.random.default_rng(8)
        for _ in range(20):
            actions = sample_actions(out, rng)
            assert actions[0] == 0

    def test_uniform_rows_chi_square(self):
        z = np.full((1, 3), 1 / 3)
        out = PolicyOutput(Z=z, masks=np.ones((1, 3), dtype=int))
        rng = np.random.default_rng(9)
        counts = np.zeros(3)
        for _ in range(30_000):
            actions = sample_actions(out, rng)
            counts[actions[0]] += 1
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_samples_always_mask_valid(self):
        rng = np.random.default_rng(10)
        params = init_params(NATPP, rng)
        for _ in range(50):
            g = sample_uniform(4, rng)
            out = forward(encode(g), g.ops, params)
            actions = sample_actions(out, rng)
            assert (out.masks[np.arange(8), actions] == 1).all()


class TestArgmax:
    def test_plain_argmax(self):
        z = np.array([[0.2, 0.5, 0.3]])
        out = PolicyOutput(Z=z, masks=np.ones((1, 3), dtype=int))
        assert out.Z.argmax(axis=-1)[0] == 1

    def test_tie_breaks_low_index(self):
        z = np.array([[0.5, 0.5, 0.0]])
        out = PolicyOutput(Z=z, masks=np.ones((1, 3), dtype=int))
        assert out.Z.argmax(axis=-1)[0] == 0

    def test_single_set_bit(self):
        z = np.zeros((1, 13))
        z[0, 12] = 1.0
        masks = np.zeros((1, 13), dtype=int)
        masks[0, 12] = 1
        out = PolicyOutput(Z=z, masks=masks)
        assert out.Z.argmax(axis=-1)[0] == 12


class TestActionsToOps:
    def test_nat_translation(self):
        current = np.array([OperationKind.CONV_3X3.index, OperationKind.MAX_POOL_5X5.index])
        ops = actions_to_ops(NAT, current, np.array([0, 2]))
        assert ops.tolist() == [OperationKind.CONV_3X3.index, OperationKind.SKIP.index]

    def test_natpp_translation(self):
        current = np.array([OperationKind.CONV_3X3.index])
        ops = actions_to_ops(NATPP, current, np.array([OperationKind.SEP_CONV_3X3.index]))
        assert ops.tolist() == [OperationKind.SEP_CONV_3X3.index]

    @pytest.mark.parametrize("action", [-1, 3])
    def test_nat_action_out_of_range_rejected(self, action):
        current = np.array([OperationKind.CONV_3X3.index])
        with pytest.raises(ValueError, match="NAT actions"):
            actions_to_ops(NAT, current, np.array([action]))


class TestGradient:
    def test_zero_reward_zero_lambda(self):
        rng = np.random.default_rng(12)
        params = init_params(NATPP, rng)
        g = sample_uniform(4, rng)
        out = forward(encode(g), g.ops, params)
        actions = sample_actions(out, rng)
        grads = policy_gradient(forward(encode(g), g.ops, params), params, actions, 0.0, 0.0)
        assert all(np.all(gw == 0) for gw in grads.gcn)
        assert np.all(grads.fc == 0)

    def test_masked_action_rejected(self):
        rng = np.random.default_rng(13)
        params = init_params(NATPP, rng)
        while True:
            g = sample_uniform(4, rng)
            if OperationKind.SKIP.index in g.ops:
                break
        e = g.ops.tolist().index(OperationKind.SKIP.index)
        actions = g.ops.copy()
        actions[e] = OperationKind.CONV_3X3.index
        with pytest.raises(ValueError, match="mask"):
            policy_gradient(forward(encode(g), g.ops, params), params, actions, 1.0, 0.0)

    @pytest.mark.parametrize("bad", ["-1", "c"])
    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_out_of_range_action_rejected_not_wrapped(self, mode, bad):
        rng = np.random.default_rng(15)
        params = init_params(mode, rng)
        g = sample_uniform(4, rng)
        out = forward(encode(g), g.ops, params)
        c = params.num_actions
        action = -1 if bad == "-1" else c
        actions = sample_actions(out, rng)
        actions[5] = action
        message = rf"action {action} at edge 5 is not in \[0, {c}\)"
        with pytest.raises(ValueError, match=message):
            _reward_logit_grads(out.Z, out.masks, actions[None], [1.0])
        with pytest.raises(ValueError, match=message):
            policy_gradient(out, params, actions, 1.0, 0.1)
        # Every edge at -1 (or c) would index the last (or no) column.
        with pytest.raises(ValueError, match="at edge 0 is not in"):
            _reward_logit_grads(out.Z, out.masks, np.full((1, 8), action), [1.0])

    def test_non_finite_reward_rejected(self):
        rng = np.random.default_rng(14)
        params = init_params(NAT, rng)
        g = sample_uniform(4, rng)
        with pytest.raises(ValueError, match="finite"):
            policy_gradient(forward(encode(g), g.ops, params), params, np.zeros(8, dtype=int), float("inf"), 0.0)

    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_matches_finite_differences(self, mode):
        rng = np.random.default_rng(15)
        params = init_params(mode, rng, hidden_dim=8)
        g = sample_uniform(4, rng)
        enc = encode(g)
        out = forward(enc, g.ops, params)
        actions = sample_actions(out, rng)
        reward, lam = 0.7, 0.05
        grads = policy_gradient(forward(enc, g.ops, params), params, actions, reward, lam)

        def objective(flat):
            probe = params.copy()
            offset = 0
            for w in probe.gcn:
                w[:] = flat[offset : offset + w.size].reshape(w.shape)
                offset += w.size
            probe.fc[:] = flat[offset:].reshape(probe.fc.shape)
            o = forward(enc, g.ops, probe)
            return reward * log_prob_of(o, actions) + lam * total_entropy(o)

        flat = np.concatenate([w.ravel() for w in params.gcn] + [params.fc.ravel()])
        analytic = np.concatenate([gw.ravel() for gw in grads.gcn] + [grads.fc.ravel()])
        assert grad_check(objective, analytic, flat) < 1e-4

    def test_entropy_step_never_decreases_entropy(self):
        rng = np.random.default_rng(16)
        params = init_params(NATPP, rng)
        g = sample_uniform(4, rng)
        enc = encode(g)
        out = forward(enc, g.ops, params)
        actions = sample_actions(out, rng)
        before = total_entropy(out)
        grads = policy_gradient(forward(enc, g.ops, params), params, actions, 0.0, 1.0)
        ascend_(params, grads, 1e-4)
        after = total_entropy(forward(enc, g.ops, params))
        assert after >= before - 1e-12


class TestEstimator:
    """REINFORCE against the exact gradient of the expected planted-oracle reward.

    The oracle score is a sum over edges, so the expected reward's gradient
    in edge e's logits is pi_e * (t_e - pi_e . t_e), where t_e[a] scores the
    target of action a on edge e. The entropy term is exact, so it adds
    lambda * dH/du to both sides.
    """

    DRAWS = 2000

    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_mean_of_draws_matches_exact_gradient(self, mode):
        rng = np.random.default_rng(40)
        oracle = make_oracle(40)
        provider = OracleProvider(oracle)
        lam, baseline = 0.05, 0.3
        for num_inter, scale in [(1, 0.1), (2, 1.0), (3, 3.0), (4, 1.0)]:
            params = init_params(mode, rng, hidden_dim=16)
            params.fc *= scale
            beta = sample_uniform(num_inter, rng)
            out = forward(encode(beta), beta.ops, params)
            z = out.Z
            k = z.shape[0]
            if mode == NAT:
                targets = np.array([[op.index for op in nat_actions(e.op)] for e in beta.edges])
            else:
                targets = np.tile(np.arange(len(OPERATIONS)), (k, 1))
            t = oracle.table[np.arange(k)[:, None], targets]
            with np.errstate(divide="ignore"):
                logz = np.where(z > 0, np.log(z), 0.0)
            grad_h = np.where(z > 0, -z * (logz - (z * logz).sum(axis=1, keepdims=True)), 0.0)
            exact = z * (t - (z * t).sum(axis=1, keepdims=True)) + lam * grad_h

            [base] = provider.score_many([beta])
            draws = np.empty((self.DRAWS,) + z.shape)
            flat = []
            for s in range(self.DRAWS):
                actions = sample_actions(out, rng)
                alpha = apply_transitions(beta, actions_to_ops(mode, beta.ops, actions))
                reward = provider.score_many([alpha])[0] - base - baseline
                draws[s] = _reward_logit_grads(out.Z, out.masks, actions[None], [reward])[0]
                draws[s] += lam * _entropy_terms(out.Z)[1]
                flat.append(flat_grads(backprop(out, params, draws[s])))
            self.assert_within_clt(draws, exact)
            self.assert_within_clt(np.array(flat), flat_grads(backprop(out, params, exact)))

    @staticmethod
    def assert_within_clt(samples, exact):
        """Entry by entry, the sample mean is within 5 standard errors of ``exact``."""
        mean = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
        assert np.all(np.abs(mean - exact) <= 5 * se + 1e-12)


def flat_grads(grads):
    return np.concatenate([g.ravel() for g in grads.gcn] + [grads.fc.ravel()])


def reference_sample_actions(out, rng):
    """Per-edge ``rng.choice`` sampler that ``sample_actions`` must reproduce exactly."""
    k, c = out.Z.shape
    actions = np.empty(k, dtype=int)
    for e in range(k):
        p = out.Z[e] / out.Z[e].sum()
        actions[e] = rng.choice(c, p=p)
    return actions


def reference_policy_gradient(out, params, actions, reward, entropy_weight):
    """Per-row ``g_u`` loop and per-node head backprop, the gradient before the split.

    The reward term of ``_reward_logit_grads`` plus the weighted entropy gradient
    of ``_entropy_terms`` must reproduce its ``g_u`` bit for bit; ``backprop`` sums
    the head in another order, so its parameter gradients agree to rounding.
    """
    a, ahs, pres, m = out.cache
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
    grads[-1] = ahs[-1].T @ g_m
    g_h = a.T @ (g_m @ params.gcn[-1].T)
    for i in range(params.depth - 2, -1, -1):
        g_pre = g_h * (pres[i] > 0)
        grads[i] = ahs[i].T @ g_pre
        g_h = a.T @ (g_pre @ params.gcn[i].T)
    return g_u, grads, grad_fc


def random_outputs(count, seed):
    """Forward outputs over both modes, 1-4 intermediates and peaked or flat logits."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        mode = NAT if i % 2 == 0 else NATPP
        params = init_params(mode, rng, depth=int(rng.integers(1, 4)))
        params.fc *= float(rng.choice([0.1, 1.0, 30.0]))
        g = sample_uniform(int(rng.integers(1, 5)), rng)
        yield params, forward(encode(g), g.ops, params)


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
                actions = sample_actions(out, fast_rng)
                assert np.array_equal(actions, reference_sample_actions(out, ref_rng))
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize(
        "z, message",
        [
            ([[0.5, np.nan, 0.5]], "contain NaN or inf"),
            ([[-0.5, 1.0, 0.5]], "are not non-negative"),
            ([[0.2, 0.3, 0.5], [1e308, 1e308, 1.0]], "do not sum to 1"),
        ],
        ids=["nan", "negative", "overflowing-sum"],
    )
    def test_sampler_rejects_invalid_rows_like_choice(self, z, message):
        out = PolicyOutput(Z=np.array(z), masks=np.ones((len(z), 3), dtype=int))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError):
                reference_sample_actions(out, np.random.default_rng(0))
            with pytest.raises(ValueError, match=f"^probabilities {message}$"):
                sample_actions(out, np.random.default_rng(0))

    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_gradient_matches_per_row_loop(self, mode):
        rng = np.random.default_rng(21)
        checked = 0
        for params, out in random_outputs(120, 22):
            if params.mode != mode:
                continue
            actions = sample_actions(out, rng)
            reward = float(rng.standard_normal())
            lam = float(rng.choice([0.0, 0.003, 0.1, 1.0]))
            g_u = _reward_logit_grads(out.Z, out.masks, actions[None], [reward])[0]
            g_u += lam * _entropy_terms(out.Z)[1]
            grads = policy_gradient(out, params, actions, reward, lam)
            ref_g_u, ref_gcn, ref_fc = reference_policy_gradient(out, params, actions, reward, lam)
            assert np.array_equal(g_u, ref_g_u)
            for got, want in zip(grads.gcn + [grads.fc], ref_gcn + [ref_fc]):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13)
            checked += 1
        assert checked == 60

    def test_logit_grad_is_reward_plus_entropy_terms(self):
        """``policy_gradient`` backprops exactly the draw's reward and entropy terms."""
        rng = np.random.default_rng(27)
        for params, out in random_outputs(20, 28):
            actions = sample_actions(out, rng)
            reward, lam = float(rng.standard_normal()), float(rng.choice([0.0, 0.1, 1.0]))
            split = _reward_logit_grads(out.Z, out.masks, actions[None], [reward])[0]
            split += lam * _entropy_terms(out.Z)[1]
            got = flat_grads(policy_gradient(out, params, actions, reward, lam))
            assert np.array_equal(got, flat_grads(backprop(out, params, split)))

    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_batched_forward_matches_per_cell(self, mode):
        rng = np.random.default_rng(24)
        for trial in range(12):
            params = init_params(mode, rng, depth=trial % 3 + 1)
            params.fc *= float(rng.choice([0.1, 1.0, 30.0]))
            cells = [sample_uniform(trial % 4 + 1, rng) for _ in range(int(rng.integers(1, 40)))]
            encs = [encode(g) for g in cells]
            batch = GraphEncoding(
                adjacency=np.stack([e.adjacency for e in encs]),
                features=np.stack([e.features for e in encs]),
            )
            out = forward(batch, [g.ops for g in cells], params)
            assert out.cache is not None
            assert out.Z.shape == (len(cells), cells[0].num_edges, params.num_actions)
            g_u = rng.standard_normal(out.Z.shape) * (out.masks > 0)
            summed = 0.0
            for g, enc, z, masks, g_cell in zip(cells, encs, out.Z, out.masks, g_u):
                single = forward(enc, g.ops, params)
                assert single.cache is not None
                np.testing.assert_allclose(z, single.Z, rtol=1e-12, atol=0)
                assert np.array_equal(masks, single.masks)
                summed = summed + flat_grads(backprop(single, params, g_cell))
            stacked = flat_grads(backprop(out, params, g_u))
            np.testing.assert_allclose(stacked, summed, rtol=1e-12, atol=1e-13)

    def test_batched_forward_rejects_mismatched_ops(self):
        params = init_params(NATPP, np.random.default_rng(25))
        cells = [sample_uniform(2, np.random.default_rng(i)) for i in range(3)]
        batch = GraphEncoding(
            adjacency=np.stack([encode(g).adjacency for g in cells]),
            features=np.stack([encode(g).features for g in cells]),
        )
        with pytest.raises(ValueError, match="slots"):
            forward(batch, [g.ops for g in cells[:2]], params)

    def test_gradient_rejects_output_without_cache(self):
        params = init_params(NAT, np.random.default_rng(23))
        out = PolicyOutput(Z=np.full((8, 3), 1 / 3), masks=np.ones((8, 3), dtype=int))
        with pytest.raises(ValueError, match="cache"):
            policy_gradient(out, params, np.zeros(8, dtype=int), 1.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from([NAT, NATPP]),
        depth=st.integers(1, 3),
        num_intermediate=st.integers(1, 4),
        count=st.integers(1, 40),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
    )
    def test_cache_free_pass_is_forward_without_its_cache(
        self, seed, mode, depth, num_intermediate, count, scale
    ):
        """Inference's pass gives ``forward``'s bytes on a stacked group and keeps no cache,
        so ``backprop`` rejects its output."""
        rng = np.random.default_rng(seed)
        params = init_params(mode, rng, depth=depth)
        params.fc *= scale
        cells = [sample_uniform(num_intermediate, rng) for _ in range(count)]
        enc, ops = encode(cells), np.array([g.ops for g in cells])
        out = forward(enc, ops, params)
        bare = _forward(enc, ops, params, cache=False)
        assert same_bytes(bare.Z, out.Z)
        assert same_bytes(bare.masks, out.masks)
        assert out.cache is not None and bare.cache is None
        with pytest.raises(ValueError, match="^policy output has no backprop cache"):
            backprop(bare, params, np.zeros(bare.Z.shape))

    def test_backprop_rejects_mismatched_logit_gradient(self):
        params = init_params(NAT, np.random.default_rng(26))
        g = sample_uniform(3, np.random.default_rng(26))
        out = forward(encode(g), g.ops, params)
        with pytest.raises(ValueError, match="shape"):
            backprop(out, params, np.zeros((8, 3)))


def reference_backprop(out, params, g_u):
    """``backprop`` as it was before it stopped at the first layer's weight gradient.

    It also built the gradient for the input features, which nothing read.
    """
    a, ahs, pres, m = out.cache
    c = params.num_actions
    node_grad = g_u.reshape(g_u.shape[:-2] + (-1, 2 * c))
    num_inter = node_grad.shape[-2]
    g_m = np.zeros_like(m)
    g_m[..., 2 : 2 + num_inter, :] = node_grad @ params.fc.T

    def rows(x):
        return x.reshape(-1, x.shape[-1])

    grad_fc = rows(m[..., 2 : 2 + num_inter, :]).T @ rows(node_grad)
    a_t = np.swapaxes(a, -1, -2)
    grads = [None] * params.depth
    grads[-1] = rows(ahs[-1]).T @ rows(g_m)
    g_h = a_t @ (g_m @ params.gcn[-1].T)
    for i in range(params.depth - 2, -1, -1):
        g_pre = g_h * (pres[i] > 0)
        grads[i] = rows(ahs[i]).T @ rows(g_pre)
        g_h = a_t @ (g_pre @ params.gcn[i].T)
    return grads, grad_fc


def reference_entropy_terms(z):
    """The two entropy formulas as they were, each with its own ``where(z > 0, log z, 0)``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(z > 0, z * np.log(z), 0.0)
    total = float(-terms.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = np.where(z > 0, np.log(z), 0.0)
    row_entropy = -(z * logp).sum(axis=1, keepdims=True)
    return total, np.where(z > 0, -z * (logp + row_entropy), 0.0)


def same_bytes(got, want):
    """Equal bit for bit: signed zeros and NaN positions included."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def hand_built_rows():
    """Rows the policy never emits: NaN, negative, infinite and subnormal entries."""
    nan, inf = np.nan, np.inf
    return [
        np.array([[0.5, nan, 0.5], [0.2, 0.3, 0.5]]),
        np.array([[-0.5, 1.0, 0.5], [0.0, 0.0, 1.0]]),
        np.array([[nan, nan, nan], [-1.0, -0.0, -2.0]]),
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        np.array([[5e-324, 1.0, 0.0], [inf, 0.0, 0.0]]),
        np.array([[-inf, 0.5, 0.5]]),
    ]


class TestThetaStepRewrite:
    """The rewritten θ-step math gives the bytes of the formulas it replaced."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_backprop_matches_full_loop(self, mode, depth):
        rng = np.random.default_rng(40 + depth)
        for trial in range(8):
            params = init_params(mode, rng, depth=depth)
            params.fc *= float(rng.choice([0.1, 1.0, 30.0]))
            cells = [sample_uniform(trial % 4 + 1, rng) for _ in range(int(rng.integers(1, 6)))]
            outs = [forward(encode(cells[0]), cells[0].ops, params)]
            outs.append(forward(encode(cells), np.array([g.ops for g in cells]), params))
            for out in outs:
                g_u = rng.standard_normal(out.Z.shape) * (out.masks > 0)
                got = backprop(out, params, g_u)
                want_gcn, want_fc = reference_backprop(out, params, g_u)
                assert len(got.gcn) == depth
                for g, w in zip(got.gcn + [got.fc], want_gcn + [want_fc]):
                    assert same_bytes(g, w)

    def outputs(self):
        natpp = [out for params, out in random_outputs(60, 41) if params.mode == NATPP]
        nat = [out for params, out in random_outputs(60, 42) if params.mode == NAT]
        assert any((out.Z == 0).any() for out in natpp)  # masked zeros are covered
        assert all((out.masks == 1).all() for out in nat)
        return [out.Z for out in natpp + nat + list(one_hot_outputs())]

    def test_entropy_terms_match_both_formulas(self):
        for z in self.outputs():
            entropy, grad = _entropy_terms(z)
            want_entropy, want_grad = reference_entropy_terms(z)
            assert same_bytes(entropy, want_entropy) and same_bytes(grad, want_grad)
            out = PolicyOutput(Z=z, masks=(z > 0).astype(int))
            assert same_bytes(total_entropy(out), want_entropy)

    @pytest.mark.parametrize("z", hand_built_rows(), ids=range(6))
    def test_entropy_terms_match_on_invalid_rows(self, z):
        with np.errstate(invalid="ignore"):
            entropy, grad = _entropy_terms(z)
            want_entropy, want_grad = reference_entropy_terms(z)
        assert same_bytes(entropy, want_entropy) and same_bytes(grad, want_grad)
        assert np.array_equal(np.isnan(grad), np.isnan(want_grad))

    def test_entropy_terms_raise_no_warning(self):
        # An infinite entry makes inf - inf in the gradient, as it always did.
        rows = [z for z in hand_built_rows() if not np.isinf(z).any()] + self.outputs()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(divide="warn", invalid="warn", over="warn"):
                for z in rows:
                    _entropy_terms(z)

    def test_sampled_actions_are_int64(self):
        rng = np.random.default_rng(43)
        for _, out in random_outputs(10, 44):
            assert sample_actions(out, rng).dtype == np.int64
        batched = PolicyOutput(Z=np.full((6, 13), 1 / 13), masks=np.ones((6, 13), dtype=int))
        assert sample_actions(batched, rng).dtype == np.int64


def edit_array(holder, key, edit):
    """Decode the checkpoint array ``holder[key]``, apply ``edit`` and store it re-encoded.

    ``edit`` changes the float64 array in place or returns the array to store.
    """
    values = np.frombuffer(base64.b64decode(holder[key]), dtype="<f8").copy()
    edited = edit(values)
    holder[key] = checkpoint_text(values if edited is None else edited)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        params = init_params(NATPP, rng, depth=3)
        path = str(tmp_path / "policy.json")
        save_policy(params, path)
        loaded = load_policy(path)
        assert loaded.mode == params.mode
        with open(path) as fh:
            assert json.load(fh)["i_max"] == 4
        assert all(np.array_equal(a, b) for a, b in zip(loaded.gcn, params.gcn))
        assert np.array_equal(loaded.fc, params.fc)

    @pytest.fixture()
    def payload(self, tmp_path):
        params = init_params(NAT, np.random.default_rng(18))
        path = str(tmp_path / "policy.json")
        save_policy(params, path)
        with open(path) as fh:
            return json.load(fh)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("mode", lambda p: p.update(mode="bogus")),
            (
                "gcn_values[1]",
                lambda p: edit_array(p["gcn_values"], 1, lambda a: a.__setitem__(0, np.nan)),
            ),
            ("fc_values", lambda p: edit_array(p, "fc_values", lambda a: a.__setitem__(3, np.inf))),
            ("fc_values", lambda p: edit_array(p, "fc_values", lambda a: a[:-1])),
            ("fc_shape", lambda p: p.update(mode="nat++")),
            ("i_max", lambda p: p.update(i_max=3)),
            ("gcn_shapes[0]", lambda p: p["gcn_shapes"][0].__setitem__(0, 35)),
            ("gcn_shapes", lambda p: p.update(depth=3)),
            ("i_max", lambda p: p.update(i_max=0)),
            ("i_max", lambda p: p.update(i_max=5)),
            ("i_max", lambda p: p.update(i_max="4")),
            ("i_max", lambda p: p.update(i_max=True)),
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

    @pytest.mark.parametrize(
        "edit, found",
        [
            (lambda p: p.pop("format_version"), "missing"),
            (lambda p: p.update(format_version=1), "1"),
            (lambda p: p.update(format_version=2), "2"),
            (lambda p: p.update(format_version="3"), "'3'"),
        ],
        ids=["missing", "1", "2", "string"],
    )
    def test_format_version_named(self, payload, tmp_path, edit, found):
        assert payload["format_version"] == 3
        edit(payload)
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError) as info:
            load_policy(path)
        assert str(info.value) == f"format_version: expected 3, found {found}"
