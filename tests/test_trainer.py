"""Training-loop and inference tests."""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from natforge import gcnpolicy, trainer
from natforge.archgraph import (
    _flat,
    apply_transitions,
    cost_non_increasing,
    encode,
    sample_uniform,
    serialize_many,
    validate,
)
from natforge.cli import main
from natforge.evaluator import OracleProvider, make_oracle
from natforge.gcnpolicy import (
    NAT,
    NATPP,
    ParamGrads,
    PolicyOutput,
    _entropy_terms,
    _reward_logit_grads,
    actions_to_ops,
    ascend_,
    forward,
    init_params,
    load_policy,
    policy_gradient,
    sample_actions,
    save_policy,
)
from natforge.trainer import (
    INFER_CHUNK,
    TrainConfig,
    TrainLog,
    edge_match_rate,
    infer,
    random_policy_match_rate,
    uniform_policy_entropy,
)

FAST = dict(epochs=2)


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.mode == "nat++"
        assert cfg.provider == "oracle"
        assert cfg.m == 1 and cfg.n == 1
        assert cfg.entropy_weight == 0.003
        assert cfg.eta_w == 0.05
        assert cfg.eta_theta == 0.01
        assert cfg.epochs == 200
        assert cfg.use_baseline is False

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(m=0)
        with pytest.raises(ValueError):
            TrainConfig(entropy_weight=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(eta_theta=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(provider="real")

    @pytest.mark.parametrize("field", ["entropy_weight", "eta_w", "eta_theta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})

    def test_to_dict_round_trips_fields(self):
        cfg = TrainConfig(seed=5)
        d = cfg.to_dict()
        assert d["seed"] == 5
        assert TrainConfig(**d) == cfg


class TestLog:
    def test_iterations_strictly_increase(self):
        log = TrainLog()
        log.append({"iter": 1, "phase": "theta", "loss": 0.0, "mean_reward": 0.0, "entropy": 1.0})
        with pytest.raises(ValueError, match="increasing"):
            log.append({"iter": 1, "phase": "theta", "loss": 0.0, "mean_reward": 0.0, "entropy": 1.0})

    def test_jsonl_shape(self, tmp_path):
        cfg = TrainConfig(seed=0, **FAST)
        result = trainer.run(cfg)
        path = str(tmp_path / "log.jsonl")
        with open(path, "w") as fh:
            fh.write(result.log.to_jsonl())
        records = [json.loads(line) for line in open(path)]
        assert len(records) == 10 * 2  # oracle provider skips the w phase
        assert all(r["phase"] == "theta" for r in records)
        assert [r["iter"] for r in records] == list(range(1, 21))

    def test_supernet_runs_log_both_phases(self):
        cfg = TrainConfig(provider="supernet", seed=0, **FAST)
        result = trainer.run(cfg)
        phases = [r["phase"] for r in result.log.records]
        assert "w" in phases and "theta" in phases


class TestRun:
    def test_deterministic(self):
        a = trainer.run(TrainConfig(seed=3, **FAST))
        b = trainer.run(TrainConfig(seed=3, **FAST))
        assert all(np.array_equal(x, y) for x, y in zip(a.policy.gcn, b.policy.gcn))
        assert np.array_equal(a.policy.fc, b.policy.fc)
        assert a.log.records == b.log.records

    def test_oracle_run_has_no_supernet(self):
        result = trainer.run(TrainConfig(seed=0, **FAST))
        assert result.shared is None
        assert result.oracle is not None

    def test_supernet_run_has_no_oracle(self):
        result = trainer.run(TrainConfig(provider="supernet", seed=0, **FAST))
        assert result.oracle is None
        assert result.shared is not None

    def test_nat_mode_trains(self):
        result = trainer.run(TrainConfig(mode="nat", seed=0, **FAST))
        assert result.policy.mode == "nat"
        assert result.policy.fc.shape == (64, 6)

    def test_non_finite_supernet_loss_raises(self, monkeypatch):
        monkeypatch.setattr(trainer, "supernet_train_step", lambda *args: float("nan"))
        with pytest.raises(FloatingPointError, match="non-finite supernet loss at iteration 1$"):
            trainer.run(TrainConfig(provider="supernet", seed=0, **FAST))

    def test_overflowing_forward_raises(self):
        # One step at this rate leaves weights near 1e299: finite, but the
        # next forward overflows.
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match="^non-finite policy output$"
        ):
            trainer.run(TrainConfig(eta_theta=1e300, seed=0, **FAST))

    def test_non_finite_policy_weights_raise(self, monkeypatch):
        # A NaN logit gradient gives NaN weights, caught after the update.
        def nan_terms(z, masks, actions, rewards):
            return np.full((len(actions),) + z.shape, np.nan)

        monkeypatch.setattr(trainer, "_reward_logit_grads", nan_terms)
        with pytest.raises(FloatingPointError, match="^non-finite policy weights at iteration 1$"):
            trainer.run(TrainConfig(seed=0, **FAST))

    def test_baseline_option_changes_updates(self):
        a = trainer.run(TrainConfig(seed=1, **FAST))
        b = trainer.run(TrainConfig(seed=1, use_baseline=True, **FAST))
        assert not np.array_equal(a.policy.fc, b.policy.fc)


@pytest.fixture(scope="module")
def trained():
    return trainer.run(TrainConfig(seed=0, epochs=50))


class TestInfer:
    def test_argmax_decode_deterministic(self, trained):
        g = sample_uniform(4, np.random.default_rng(20))
        a = infer(trained.policy, g, decode="argmax")
        b = infer(trained.policy, g, decode="argmax")
        assert a == b

    def test_sample_decode_requires_rng(self, trained):
        g = sample_uniform(4, np.random.default_rng(21))
        with pytest.raises(ValueError, match="rng"):
            infer(trained.policy, g, decode="sample")

    def test_bad_decode_rejected(self, trained):
        g = sample_uniform(4, np.random.default_rng(22))
        with pytest.raises(ValueError, match="decode"):
            infer(trained.policy, g, decode="greedy")

    def test_output_valid_and_cheaper(self, trained):
        rng = np.random.default_rng(23)
        for _ in range(50):
            beta = sample_uniform(4, rng)
            alpha = infer(trained.policy, beta, decode="sample", rng=rng)
            validate(alpha)
            assert cost_non_increasing(beta, alpha)

    def test_topology_untouched(self, trained):
        beta = sample_uniform(4, np.random.default_rng(24))
        alpha = infer(trained.policy, beta, decode="argmax")
        for eb, ea in zip(beta.edges, alpha.edges):
            assert (eb.target_node, eb.slot, eb.source_node) == (
                ea.target_node,
                ea.slot,
                ea.source_node,
            )


def reference_infer(policy, beta, decode, rng):
    """Per-cell inference that ``_infer_ops`` must reproduce: encode, forward, decode, apply."""
    out = forward(encode(beta), beta.ops, policy)
    if decode == "argmax":
        actions = out.Z.argmax(axis=1)
    else:
        actions = sample_actions(out, rng)
    return apply_transitions(beta, actions_to_ops(policy.mode, beta.ops, actions))


def reference_run(cfg):
    """Oracle θ steps with one forward per cell, and a one-cell score and one
    ``policy_gradient`` per draw.

    The m cells of a step are drawn before their rewrites; with m = 1 this is
    the order of one forward per cell. Returns the policy, the per-step mean
    rewards and the generator.
    """
    rng = np.random.default_rng(cfg.seed)
    policy = init_params(cfg.mode, rng, hidden_dim=cfg.hidden_dim, depth=cfg.depth)
    provider = OracleProvider(make_oracle(cfg.seed, num_edges=2 * cfg.num_intermediate))
    baseline = 0.0
    mean_rewards = []
    for _ in range(cfg.epochs * cfg.iters_theta):
        betas = [sample_uniform(cfg.num_intermediate, rng) for _ in range(cfg.m)]
        total = None
        rewards = []
        for beta in betas:
            out = forward(encode(beta), beta.ops, policy)
            [base] = provider.score_many([beta])
            for _ in range(cfg.n):
                actions = sample_actions(out, rng)
                alpha = apply_transitions(beta, actions_to_ops(cfg.mode, beta.ops, actions))
                r = provider.score_many([alpha])[0] - base
                rewards.append(r)
                grads = policy_gradient(out, policy, actions, r - baseline, cfg.entropy_weight)
                parts = grads.gcn + [grads.fc]
                total = parts if total is None else [t + p for t, p in zip(total, parts)]
        step = ParamGrads(gcn=total[:-1], fc=total[-1])
        step.scale_(1.0 / (cfg.m * cfg.n))
        ascend_(policy, step, cfg.eta_theta)
        mean_rewards.append(float(np.mean(rewards)))
        baseline = cfg.baseline_decay * baseline + (1 - cfg.baseline_decay) * mean_rewards[-1]
    return policy, mean_rewards, rng


class TestReferenceEquivalence:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_run_matches_per_draw_gradients(self, monkeypatch, mode, m):
        cfg = TrainConfig(
            mode=mode,
            m=m,
            n=3,
            use_baseline=True,
            entropy_weight=0.1,
            epochs=4,
            seed=7,
        )
        generators = []
        real = trainer.sample_uniform

        def spy(num_intermediate, rng):
            generators.append(rng)
            return real(num_intermediate, rng)

        monkeypatch.setattr(trainer, "sample_uniform", spy)
        result = trainer.run(cfg)
        ref_policy, ref_rewards, ref_rng = reference_run(cfg)
        assert [r["mean_reward"] for r in result.log.records] == ref_rewards
        assert generators[-1].bit_generator.state == ref_rng.bit_generator.state
        got, want = result.policy, ref_policy
        for a, b in zip(got.gcn + [got.fc], want.gcn + [want.fc]):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("decode", ["sample", "argmax"])
    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_infer_ops_matches_per_cell_loop(self, mode, decode):
        rng = np.random.default_rng(30)
        cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(2 * INFER_CHUNK + 37)]
        for scale in (0.1, 1.0, 30.0):
            policy = init_params(mode, rng, depth=2)
            policy.fc *= scale
            fast_rng, one_rng, ref_rng = (np.random.default_rng(31) for _ in range(3))
            fast = trainer._infer_ops(policy, _flat(cells), decode, fast_rng)
            ref = [reference_infer(policy, g, decode, ref_rng) for g in cells]
            np.testing.assert_array_equal(fast, _flat(ref)[3])
            assert fast_rng.bit_generator.state == ref_rng.bit_generator.state
            assert [infer(policy, g, decode=decode, rng=one_rng) for g in cells] == ref
            assert one_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_empty_input(self, trained):
        new = trainer._infer_ops(trained.policy, _flat([]), "sample", np.random.default_rng(0))
        assert new.size == 0


class TestOptimizeCommand:
    @pytest.mark.parametrize("decode", ["sample", "argmax"])
    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_output_is_per_cell_reference_inference(self, tmp_path, monkeypatch, mode, decode):
        """``natforge optimize`` writes ``serialize_many`` of ``reference_infer`` cell by cell
        and leaves its generator where the per-cell loop leaves one."""
        rng = np.random.default_rng(40)
        cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(2 * INFER_CHUNK + 37)]
        blocks = []
        for g in cells:
            header, *edges = serialize_many([g]).splitlines()
            edges = [edges[i] for i in rng.permutation(len(edges))]
            edges.insert(int(rng.integers(len(edges) + 1)), "# a comment")
            blocks.append("\n".join([header] + edges))
        in_path, policy_path, out_path = (str(tmp_path / n) for n in ("in.txt", "p.json", "o.txt"))
        with open(in_path, "w") as fh:
            fh.write("\n\n".join(blocks) + "\n")
        params = init_params(mode, rng)
        params.fc *= 3.0
        save_policy(params, policy_path)
        policy = load_policy(policy_path)
        ref_rng = np.random.default_rng(9)
        expected = serialize_many([reference_infer(policy, g, decode, ref_rng) for g in cells])

        made = []
        real = np.random.default_rng

        def spy(seed):
            made.append(real(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", spy)
        args = ["optimize", "--in", in_path, "--policy", policy_path, "--decode", decode]
        result = CliRunner().invoke(main, args + ["--seed", "9", "--out", out_path])
        assert result.exit_code == 0, result.output
        with open(out_path) as fh:
            assert fh.read() == expected
        assert len(made) == 1
        assert made[0].bit_generator.state == ref_rng.bit_generator.state


class TestCacheFreeInference:
    """Inference runs the policy's cache-free pass, never the training ``forward``."""

    @pytest.mark.parametrize("decode", ["sample", "argmax"])
    def test_inference_runs_without_forward(self, tmp_path, monkeypatch, decode):
        rng = np.random.default_rng(41)
        cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(2 * INFER_CHUNK + 37)]
        in_path, policy_path, out_path = (str(tmp_path / n) for n in ("in.txt", "p.json", "o.txt"))
        with open(in_path, "w") as fh:
            fh.write(serialize_many(cells))
        params = init_params(NATPP, rng)
        params.fc *= 3.0
        save_policy(params, policy_path)
        policy = load_policy(policy_path)
        ref_rng = np.random.default_rng(9)
        expected = [reference_infer(policy, g, decode, ref_rng) for g in cells]

        def no_forward(*args):
            raise AssertionError("inference called the training forward")

        monkeypatch.setattr(gcnpolicy, "forward", no_forward)
        monkeypatch.setattr(trainer, "forward", no_forward)
        new = trainer._infer_ops(policy, _flat(cells), decode, np.random.default_rng(9))
        np.testing.assert_array_equal(new, _flat(expected)[3])
        args = ["optimize", "--in", in_path, "--policy", policy_path, "--decode", decode]
        result = CliRunner().invoke(main, args + ["--seed", "9", "--out", out_path])
        assert result.exit_code == 0, result.output
        with open(out_path) as fh:
            assert fh.read() == serialize_many(expected)

    @pytest.mark.parametrize("decode", ["sample", "argmax"])
    def test_overflowing_policy_raises(self, decode):
        rng = np.random.default_rng(42)
        policy = init_params(NATPP, rng)
        for w in policy.gcn + [policy.fc]:
            w *= 1e299
        cells = [sample_uniform(int(rng.integers(1, 5)), rng) for _ in range(20)]
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match="^non-finite policy output$"
        ):
            trainer._infer_ops(policy, _flat(cells), decode, rng)


class TestDrawSet:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from([NAT, NATPP]),
        m=st.integers(1, 3),
        n=st.sampled_from([1, 3, 8]),
        num_intermediate=st.integers(1, 4),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
    )
    def test_one_draw_call_equals_per_draw_calls(self, seed, mode, m, n, num_intermediate, scale):
        rng = np.random.default_rng(seed)
        policy = init_params(mode, rng)
        policy.fc *= scale
        betas = [sample_uniform(num_intermediate, rng) for _ in range(m)]
        ops = np.array([b.ops for b in betas])
        out = forward(encode(betas), ops, policy)

        fast_rng, ref_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        rows = PolicyOutput(Z=trainer._per_draw(out.Z, n), masks=trainer._per_draw(out.masks, n))
        drawn = sample_actions(rows, fast_rng)
        alphas = apply_transitions(
            [b for b in betas for _ in range(n)],
            actions_to_ops(mode, trainer._per_draw(ops, n), drawn),
        )

        ref_actions, ref_alphas = [], []
        for i, beta in enumerate(betas):
            cell = PolicyOutput(Z=out.Z[i], masks=out.masks[i])
            for _ in range(n):
                actions = sample_actions(cell, ref_rng)
                ref_actions.append(actions)
                ref_alphas.append(apply_transitions(beta, actions_to_ops(mode, beta.ops, actions)))
        assert np.array_equal(drawn.reshape(m * n, -1), np.stack(ref_actions))
        assert alphas == ref_alphas
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state


def reference_reward_logit_grad(z, actions, reward):
    """One draw's reward term, with the arithmetic of a one-draw ``_reward_logit_grads``."""
    grad_logp = -z
    grad_logp[np.arange(len(z)), actions] += 1.0
    return reward * grad_logp


def reference_logit_grads(out, actions, rewards, baseline, cfg):
    """``trainer._logit_grads`` as one reward term per draw, each plus the weighted entropy
    gradient added to its cell's row in draw order."""
    g_u = np.zeros(out.Z.shape)
    entropies = []
    for i in range(len(out.Z)):
        cell = PolicyOutput(Z=out.Z[i], masks=out.masks[i])
        entropy, h_grad = _entropy_terms(cell.Z)
        entropies.append(entropy)
        h_term = cfg.entropy_weight * h_grad
        for j in range(i * cfg.n, (i + 1) * cfg.n):
            r_eff = rewards[j] - baseline if cfg.use_baseline else rewards[j]
            g_u[i] += reference_reward_logit_grad(cell.Z, actions[j], r_eff) + h_term
    return g_u, entropies


class TestStackedLogitGrads:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from([NAT, NATPP]),
        m=st.integers(1, 3),
        n=st.sampled_from([1, 3, 8]),
        use_baseline=st.booleans(),
        entropy_weight=st.sampled_from([0.0, 0.1]),
        scale=st.sampled_from([0.1, 1.0, 30.0]),
    )
    def test_equals_per_draw_reward_logit_grad(
        self, seed, mode, m, n, use_baseline, entropy_weight, scale
    ):
        # With no entropy weight and a zero reward, a term can be -0.0, which the
        # row's sum from +0.0 turns into +0.0.
        rng = np.random.default_rng(seed)
        cfg = TrainConfig(
            mode=mode, m=m, n=n, use_baseline=use_baseline, entropy_weight=entropy_weight
        )
        policy = init_params(mode, rng)
        policy.fc *= scale
        betas = [sample_uniform(cfg.num_intermediate, rng) for _ in range(m)]
        out, _, actions = trainer._draw(betas, policy, rng, n)
        # Accuracy differences: multiples of 1/256 with signed zeros among them.
        rewards = (rng.integers(-3, 4, size=m * n) / 256).tolist()
        rewards[0] = -0.0
        baseline = float(rng.choice([0.0, -0.0, 0.01]))
        g_u, entropies = trainer._logit_grads(out, actions, rewards, baseline, cfg)
        ref_g_u, ref_entropies = reference_logit_grads(out, actions, rewards, baseline, cfg)
        assert g_u.tobytes() == ref_g_u.tobytes()
        assert entropies == ref_entropies
        cell = PolicyOutput(Z=out.Z[0], masks=out.masks[0])
        for j in range(n):
            want = reference_reward_logit_grad(cell.Z, actions[j], rewards[j])
            got = _reward_logit_grads(cell.Z, cell.masks, actions[j][None], [rewards[j]])[0]
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", [NAT, NATPP])
    def test_bad_draws_raise_reward_logit_grad_messages(self, mode):
        rng = np.random.default_rng(33)
        cfg = TrainConfig(mode=mode, m=2, n=3)
        policy = init_params(mode, rng)
        betas = [sample_uniform(cfg.num_intermediate, rng) for _ in range(cfg.m)]
        out, _, actions = trainer._draw(betas, policy, rng, cfg.n)
        rewards = [0.01] * (cfg.m * cfg.n)
        c = policy.num_actions
        bad = [("action", 4, 5, c, rf"^action {c} at edge 5 is not in \[0, {c}\)$")]
        bad.append(("action", 2, 0, -1, rf"^action -1 at edge 0 is not in \[0, {c}\)$"))
        bad.append(("reward", 1, None, float("nan"), "^reward must be finite$"))
        bad.append(("reward", 5, None, float("inf"), "^reward must be finite$"))
        if mode == NATPP:
            # Draw 4 (cell 1) takes the first cleared bit of the first edge that has one.
            edge = int(np.argmin(out.masks[1].min(axis=1)))
            masked = int(np.argmin(out.masks[1, edge]))
            assert not out.masks[1, edge, masked]
            message = f"^action at edge {edge} violates its transition mask$"
            bad.append(("action", 4, edge, masked, message))
        for kind, j, edge, value, message in bad:
            a, r = actions.copy(), list(rewards)
            if kind == "action":
                a[j, edge] = value
            else:
                r[j] = value
            cell = PolicyOutput(Z=out.Z[j // cfg.n], masks=out.masks[j // cfg.n])
            with pytest.raises(ValueError, match=message):
                _reward_logit_grads(cell.Z, cell.masks, a[j][None], [r[j]])
            with pytest.raises(ValueError, match=message):
                trainer._logit_grads(out, a, r, 0.0, cfg)


class TestDrawIsSampledInference:
    @pytest.mark.parametrize("scale", [0.1, 1.0, 30.0])
    @pytest.mark.parametrize("mode", [NAT, NATPP])
    @pytest.mark.parametrize("seed", range(5))
    def test_one_draw_per_cell_equals_infer_ops(self, seed, mode, scale):
        """With n = 1, ``_draw`` of same-size cells is ``_infer_ops``'s sampling decode."""
        rng = np.random.default_rng(seed)
        policy = init_params(mode, rng)
        policy.fc *= scale
        num_intermediate = int(rng.integers(1, 5))
        betas = [sample_uniform(num_intermediate, rng) for _ in range(int(rng.integers(1, 9)))]
        draw_rng, infer_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        _, alphas, _ = trainer._draw(betas, policy, draw_rng, 1)
        nodes, bounds, sources, ops = _flat(betas)
        new = trainer._infer_ops(policy, (nodes, bounds, sources, ops), "sample", infer_rng)
        for got, want in zip(_flat(alphas), (nodes, bounds, sources, new)):
            np.testing.assert_array_equal(got, want)
        assert draw_rng.bit_generator.state == infer_rng.bit_generator.state


class TestMatchRates:
    def test_match_rate_bounds(self):
        result = trainer.run(TrainConfig(seed=0, **FAST))
        rate = edge_match_rate(result.policy, result.oracle, np.random.default_rng(0), num_graphs=10)
        assert 0.0 <= rate <= 1.0

    def test_random_policy_rate_value(self):
        # mean over the 13 sources of 1/(number of valid targets)
        from natforge.opspace import OPERATIONS, transition_mask

        counts = [len(np.flatnonzero(transition_mask(op))) for op in OPERATIONS]
        expected = np.mean([1.0 / n for n in counts])
        assert random_policy_match_rate() == pytest.approx(expected)
        assert random_policy_match_rate() == 0.22771203155818542

    def test_uniform_entropy_value(self):
        from natforge.opspace import OPERATIONS, transition_mask

        counts = [len(np.flatnonzero(transition_mask(op))) for op in OPERATIONS]
        expected = 8 * np.mean(np.log(counts))
        assert uniform_policy_entropy() == pytest.approx(expected)
        assert uniform_policy_entropy() == 13.088387215976184
