"""Reward provider tests: synthetic data, toy supernet, planted oracle."""

import copy
import json

import numpy as np
import pytest
from scipy import stats

from natforge import trainer
from natforge.archgraph import EdgeSlot, apply_transitions, make_cell, sample_uniform
from natforge.evaluator import (
    OracleProvider,
    SupernetProvider,
    _windows,
    accuracy,
    graph_logits,
    init_shared,
    load_shared,
    make_dataset,
    make_oracle,
    save_shared,
    supernet_train_step,
)
from natforge.numkernel import cross_entropy_logits
from natforge.opspace import OPERATIONS, OperationKind, TypeClass, transition_mask
from natforge.trainer import TrainConfig


def chain_cell(op: OperationKind, num_intermediate: int = 4):
    edges = []
    for l in range(num_intermediate):
        edges.append(EdgeSlot(l, 0, -2 if l == 0 else l - 1, op))
        edges.append(EdgeSlot(l, 1, -1, op))
    return make_cell(num_intermediate + 3, edges)


class TestDataset:
    def test_deterministic(self):
        a, b = make_dataset(3), make_dataset(3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_shapes_and_balance(self):
        ds = make_dataset(0)
        assert ds.inputs.shape == (3000, 16)
        assert ds.split == 2000
        counts = np.bincount(ds.labels, minlength=8)
        assert counts.min() >= 370  # 3000/8 = 375 up to remainder

    def test_val_batch_fixed(self):
        ds = make_dataset(1)
        x1, y1 = ds.val_batch(256)
        x2, y2 = ds.val_batch(256)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        assert len(y1) == 256


class TestSupernetForward:
    def test_all_null_graph_is_constant_classifier(self):
        rng = np.random.default_rng(0)
        w = init_shared(rng, 4)
        ds = make_dataset(0)
        x, y = ds.val_batch(64)
        logits = graph_logits(chain_cell(OperationKind.NULL), w, x)
        assert np.allclose(logits, logits[0])
        assert accuracy(chain_cell(OperationKind.NULL), w, x, y) == pytest.approx(
            (logits[0].argmax() == y).mean()
        )

    def test_untrained_accuracy_near_chance(self):
        rng = np.random.default_rng(1)
        w = init_shared(rng, 4)
        ds = make_dataset(1)
        x, y = ds.val_batch(512)
        acc = accuracy(chain_cell(OperationKind.CONV_3X3), w, x, y)
        assert 0.02 < acc < 0.35

    def test_forward_is_pure(self):
        rng = np.random.default_rng(2)
        w = init_shared(rng, 4)
        ds = make_dataset(2)
        x, _ = ds.val_batch(32)
        g = sample_uniform(4, np.random.default_rng(3))
        assert np.array_equal(graph_logits(g, w, x), graph_logits(g, w, x))

    def test_intermediate_chain_uses_computed_nodes(self):
        # A cell whose node 1 reads node 0 must see tanh-ed features, not raw input.
        rng = np.random.default_rng(4)
        w = init_shared(rng, 2)
        ds = make_dataset(0)
        x, _ = ds.val_batch(16)
        g = make_cell(
            5,
            (
                EdgeSlot(0, 0, -2, OperationKind.SKIP),
                EdgeSlot(0, 1, -1, OperationKind.NULL),
                EdgeSlot(1, 0, 0, OperationKind.SKIP),
                EdgeSlot(1, 1, -1, OperationKind.NULL),
            ),
        )
        logits = graph_logits(g, w, x)
        node0 = np.tanh(x)
        node1 = np.tanh(node0)
        expected = np.concatenate([node0, node1], axis=1) @ w.head_w + w.head_b
        assert np.allclose(logits, expected)

    def test_parameter_sharing_identity(self):
        rng = np.random.default_rng(5)
        w = init_shared(rng, 4)
        a = chain_cell(OperationKind.CONV_3X3)
        b = apply_transitions(a, tuple(
            OperationKind.CONV_3X3 if e % 2 == 0 else OperationKind.SKIP
            for e in range(8)
        ))
        # both graphs use the same bank entry object for shared (slot, op) pairs
        for e in range(0, 8, 2):
            assert w.bank[(e, a.edges[e].op)] is w.bank[(e, b.edges[e].op)]


class TestSupernetTraining:
    def test_all_null_blocks_bank_credit(self):
        rng = np.random.default_rng(6)
        w = init_shared(rng, 4)
        ds = make_dataset(0)
        x, y = ds.train_batch(rng, 32)
        before = {k: {n: a.copy() for n, a in e.items()} for k, e in w.bank.items()}
        head_before = w.head_b.copy()
        supernet_train_step(w, [chain_cell(OperationKind.NULL)], x, y, 1e-2)
        for k, entry in w.bank.items():
            for name, arr in entry.items():
                assert np.array_equal(arr, before[k][name])
        assert not np.array_equal(w.head_b, head_before)

    def test_small_step_descends(self):
        rng = np.random.default_rng(7)
        w = init_shared(rng, 4)
        ds = make_dataset(0)
        passes = 0
        for _ in range(100):
            g = sample_uniform(4, rng)
            x, y = ds.train_batch(rng, 64)
            before = supernet_train_step(w, [g], x, y, 1e-3)
            after = supernet_train_step(w, [g], x, y, 0.0)
            passes += after <= before
        assert passes >= 95

    def test_deterministic_checkpoints(self, tmp_path):
        def run():
            rng = np.random.default_rng(8)
            w = init_shared(rng, 4)
            ds = make_dataset(8)
            for _ in range(20):
                g = sample_uniform(4, rng)
                x, y = ds.train_batch(rng, 32)
                supernet_train_step(w, [g], x, y, 0.05)
            return w

        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_shared(run(), p1)
        save_shared(run(), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_trained_dense_graph_beats_half(self):
        rng = np.random.default_rng(0)
        w = init_shared(rng, 4)
        ds = make_dataset(0)
        for _ in range(2000):
            g = sample_uniform(4, rng)
            x, y = ds.train_batch(rng, 64)
            supernet_train_step(w, [g], x, y, 0.05)
        x_val, y_val = ds.val_batch(256)
        assert accuracy(chain_cell(OperationKind.CONV_3X3), w, x_val, y_val) > 0.5

    def test_usage_counts_uniform_under_uniform_sampling(self):
        rng = np.random.default_rng(9)
        w = init_shared(rng, 4)
        ds = make_dataset(9)
        for _ in range(800):
            g = sample_uniform(4, rng)
            x, y = ds.train_batch(rng, 16)
            supernet_train_step(w, [g], x, y, 0.01)
        counts = np.array([w.usage_counts[(e, op)] for e in range(8) for op in OPERATIONS])
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        w = init_shared(rng, 4)
        path = str(tmp_path / "w.json")
        save_shared(w, path)
        loaded = load_shared(path)
        assert loaded.feature_dim == w.feature_dim
        assert np.array_equal(loaded.head_w, w.head_w)
        assert set(loaded.bank) == set(w.bank)
        for key in w.bank:
            for name in w.bank[key]:
                assert np.array_equal(loaded.bank[key][name], w.bank[key][name])


class TestOracle:
    def test_optimum_unique_and_reachable_everywhere(self):
        for seed in range(20):
            oracle = make_oracle(seed)
            for e in range(oracle.num_edges):
                best = oracle.planted_optimum(e)
                assert best in (OperationKind.SKIP, OperationKind.NULL)
                row = oracle.table[e]
                assert (row < row[best.index]).sum() == 12
                for src in OPERATIONS:
                    assert transition_mask(src).allows(best)
                    assert oracle.best_reachable(e, src) is best

    def test_deterministic(self):
        assert np.array_equal(make_oracle(5).table, make_oracle(5).table)

    def test_reward_direct_table_sum(self):
        table = np.zeros((8, 13))
        table[:, OperationKind.SKIP.index] = 1.0
        from natforge.evaluator import PlantedOracle

        provider = OracleProvider(PlantedOracle(table=table))
        beta = chain_cell(OperationKind.NULL)
        alpha = apply_transitions(beta, (OperationKind.SKIP,) * 8)
        assert provider.reward(alpha, beta) == 8.0


class TestProviders:
    @pytest.fixture()
    def providers(self):
        rng = np.random.default_rng(11)
        w = init_shared(rng, 4)
        ds = make_dataset(11)
        x, y = ds.val_batch(128)
        return OracleProvider(make_oracle(11)), SupernetProvider(w, x, y)

    def test_reward_zero_on_identity(self, providers):
        g = sample_uniform(4, np.random.default_rng(12))
        for p in providers:
            assert p.reward(g, g) == 0.0

    def test_reward_antisymmetry(self, providers):
        rng = np.random.default_rng(13)
        beta = sample_uniform(4, rng)
        actions = []
        for e in beta.edges:
            ops = transition_mask(e.op).ops()
            actions.append(ops[int(rng.integers(len(ops)))])
        alpha = apply_transitions(beta, tuple(actions))
        for p in providers:
            assert p.reward(alpha, beta) == pytest.approx(-p.reward(beta, alpha))

    def test_topology_mismatch_rejected(self, providers):
        rng = np.random.default_rng(14)
        a = sample_uniform(4, rng)
        while True:
            b = sample_uniform(4, rng)
            if [e.source_node for e in b.edges] != [e.source_node for e in a.edges]:
                break
        for p in providers:
            with pytest.raises(ValueError, match="topology"):
                p.reward(a, b)

    def test_reward_is_score_difference(self, providers):
        rng = np.random.default_rng(15)
        for _ in range(20):
            beta = sample_uniform(4, rng)
            actions = []
            for e in beta.edges:
                ops = transition_mask(e.op).ops()
                actions.append(ops[int(rng.integers(len(ops)))])
            alpha = apply_transitions(beta, tuple(actions))
            for p in providers:
                assert p.reward(alpha, beta) == p.score(alpha) - p.score(beta)


class TestSharedCheckpointValidation:
    @pytest.fixture()
    def payload(self, tmp_path):
        path = str(tmp_path / "w.json")
        save_shared(init_shared(np.random.default_rng(19), 2), path)
        with open(path) as fh:
            return json.load(fh)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("feature_dim", lambda p: p.pop("feature_dim")),
            ("num_classes", lambda p: p.update(num_classes=0)),
            ("head_w", lambda p: p["head_w"][0].__setitem__(0, float("nan"))),
            ("head_w", lambda p: p.update(num_intermediate=3)),
            ("head_b", lambda p: p["head_b"].append(0.0)),
            ("bank", lambda p: p["bank"].pop("3:conv_5x5")),
            ("bank", lambda p: p["bank"].update({"4:conv_1x1": {"mix": []}})),
            ("bank['0:sep_conv_3x3']", lambda p: p["bank"]["0:sep_conv_3x3"].pop("diag")),
            ("bank['1:conv_3x3'].mix", lambda p: p["bank"]["1:conv_3x3"]["mix"].pop()),
            (
                "bank['2:dil_sep_conv_5x5'].diag",
                lambda p: p["bank"]["2:dil_sep_conv_5x5"]["diag"].__setitem__(1, float("-inf")),
            ),
        ],
    )
    def test_bad_payload_names_field(self, payload, tmp_path, field, edit):
        edit(payload)
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError) as info:
            load_shared(path)
        assert str(info.value).startswith(field + ":")

    def test_reload_rewrites_same_bytes(self, tmp_path):
        rng = np.random.default_rng(20)
        w = init_shared(rng, 4)
        ds = make_dataset(20)
        for _ in range(5):
            x, y = ds.train_batch(rng, 16)
            supernet_train_step(w, [sample_uniform(4, rng)], x, y, 0.05)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_shared(w, p1)
        save_shared(load_shared(p1), p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()


# ---------------------------------------------------------------------------
# Reference implementations: the supernet forward that scans every edge for
# each node, the max pool that caches its argmax, and the average-pool
# backward that accumulates with np.add.at. The product code must match them
# bit for bit.


def _ref_edge_forward(op, x, entry):
    tc = op.type_class
    if tc is TypeClass.NULL:
        return np.zeros_like(x), None
    if tc is TypeClass.SKIP:
        return x, None
    if tc is TypeClass.CONV:
        return x @ entry["mix"], (x,)
    if tc is TypeClass.SEP_CONV:
        u = x * entry["diag"]
        return u @ entry["mix"], (x, u)
    if tc is TypeClass.DIL_SEP_CONV:
        xr = np.roll(x, op.kernel, axis=1)
        u = xr * entry["diag"]
        return u @ entry["mix"], (xr, u)
    win = _windows(x.shape[1], op.kernel)
    vals = x[:, win]
    if tc is TypeClass.MAX_POOL:
        return vals.max(axis=2), (win, vals.argmax(axis=2))
    return vals.mean(axis=2), (win,)


def _ref_edge_backward(op, gy, entry, cache, grad_entry):
    tc = op.type_class
    if tc is TypeClass.NULL:
        return np.zeros_like(gy)
    if tc is TypeClass.SKIP:
        return gy
    if tc is TypeClass.CONV:
        (x,) = cache
        grad_entry["mix"] += x.T @ gy
        return gy @ entry["mix"].T
    if tc is TypeClass.SEP_CONV:
        x, u = cache
        grad_entry["mix"] += u.T @ gy
        gu = gy @ entry["mix"].T
        grad_entry["diag"] += (gu * x).sum(axis=0)
        return gu * entry["diag"]
    if tc is TypeClass.DIL_SEP_CONV:
        xr, u = cache
        grad_entry["mix"] += u.T @ gy
        gu = gy @ entry["mix"].T
        grad_entry["diag"] += (gu * xr).sum(axis=0)
        return np.roll(gu * entry["diag"], -op.kernel, axis=1)
    rows = np.arange(gy.shape[0])[:, None]
    gx = np.zeros_like(gy)
    if tc is TypeClass.MAX_POOL:
        win, arg = cache
        cols = win[np.arange(win.shape[0])[None, :], arg]
        np.add.at(gx, (rows, cols), gy)
        return gx
    (win,) = cache
    k = win.shape[1]
    for j in range(k):
        np.add.at(gx, (rows, win[None, :, j]), gy / k)
    return gx


def _ref_forward_graph(graph, w, x):
    nodes = {-2: x, -1: x}
    edge_caches = [None] * len(graph.edges)
    for l in range(graph.num_intermediate):
        pre = np.zeros_like(x)
        for e_idx, edge in enumerate(graph.edges):
            if edge.target_node != l:
                continue
            entry = w.bank.get((e_idx, edge.op))
            y, cache = _ref_edge_forward(edge.op, nodes[edge.source_node], entry)
            edge_caches[e_idx] = cache
            pre = pre + y
        nodes[l] = np.tanh(pre)
    feats = np.concatenate([nodes[l] for l in range(graph.num_intermediate)], axis=1)
    return feats @ w.head_w + w.head_b, (nodes, edge_caches, feats)


def _ref_train_step(w, graphs, x, labels, lr):
    d = w.feature_dim
    grad_bank = {}
    grad_head_w = np.zeros_like(w.head_w)
    grad_head_b = np.zeros_like(w.head_b)
    total_loss = 0.0
    for graph in graphs:
        logits, (nodes, edge_caches, feats) = _ref_forward_graph(graph, w, x)
        loss, dlogits = cross_entropy_logits(logits, labels)
        total_loss += loss
        grad_head_w += feats.T @ dlogits
        grad_head_b += dlogits.sum(axis=0)
        dfeats = dlogits @ w.head_w.T
        node_grads = {
            l: dfeats[:, l * d : (l + 1) * d].copy() for l in range(graph.num_intermediate)
        }
        for l in range(graph.num_intermediate - 1, -1, -1):
            gpre = node_grads[l] * (1.0 - nodes[l] ** 2)
            for e_idx, edge in enumerate(graph.edges):
                if edge.target_node != l:
                    continue
                key = (e_idx, edge.op)
                entry = w.bank.get(key)
                gentry = None
                if entry is not None:
                    gentry = grad_bank.setdefault(
                        key, {name: np.zeros_like(arr) for name, arr in entry.items()}
                    )
                gx = _ref_edge_backward(edge.op, gpre, entry, edge_caches[e_idx], gentry)
                if edge.source_node >= 0:
                    node_grads[edge.source_node] += gx
    scale = 1.0 / len(graphs)
    w.head_w -= lr * scale * grad_head_w
    w.head_b -= lr * scale * grad_head_b
    for key, gentry in grad_bank.items():
        for name, g in gentry.items():
            w.bank[key][name] -= lr * scale * g
    return total_loss * scale


def _same_weights(a, b):
    return (
        np.array_equal(a.head_w, b.head_w)
        and np.array_equal(a.head_b, b.head_b)
        and a.bank.keys() == b.bank.keys()
        and all(
            np.array_equal(a.bank[key][name], b.bank[key][name])
            for key in a.bank
            for name in a.bank[key]
        )
    )


class TestReferenceEquivalence:
    @pytest.mark.parametrize("num_intermediate", [1, 2, 4])
    def test_logits_and_train_step_match_reference(self, num_intermediate):
        rng = np.random.default_rng(30 + num_intermediate)
        ds = make_dataset(30)
        w = init_shared(rng, num_intermediate)
        x_val, _ = ds.val_batch(64)
        for _ in range(200):
            graphs = [sample_uniform(num_intermediate, rng) for _ in range(int(rng.integers(1, 3)))]
            for g in graphs:
                assert np.array_equal(graph_logits(g, w, x_val), _ref_forward_graph(g, w, x_val)[0])
            x, y = ds.train_batch(rng, 32)
            ref = copy.deepcopy(w)
            loss = supernet_train_step(w, graphs, x, y, 0.05)
            assert loss == _ref_train_step(ref, graphs, x, y, 0.05)
            assert _same_weights(w, ref)

    def test_pool_ties_match_reference(self):
        # A node fed only by null edges is all zeros, so pooling it ties everywhere.
        rng = np.random.default_rng(40)
        w = init_shared(rng, 2)
        ds = make_dataset(40)
        x, y = ds.train_batch(rng, 16)
        pools = (OperationKind.MAX_POOL_3X3, OperationKind.MAX_POOL_5X5, OperationKind.AVG_POOL_5X5)
        for pool in pools:
            g = make_cell(
                5,
                (
                    EdgeSlot(0, 0, -2, OperationKind.NULL),
                    EdgeSlot(0, 1, -1, OperationKind.NULL),
                    EdgeSlot(1, 0, 0, pool),
                    EdgeSlot(1, 1, -1, pool),
                ),
            )
            ref = copy.deepcopy(w)
            assert supernet_train_step(w, [g], x, y, 0.05) == _ref_train_step(ref, [g], x, y, 0.05)
            assert _same_weights(w, ref)


class TestTrainerScoring:
    @pytest.mark.parametrize("provider", ["oracle", "supernet"])
    def test_beta_scored_once_per_draw_set(self, monkeypatch, provider):
        base = OracleProvider if provider == "oracle" else SupernetProvider
        counts = {"score": 0, "reward": 0}

        class Counting(base):
            def score(self, graph):
                counts["score"] += 1
                return super().score(graph)

            def reward(self, alpha, beta):
                counts["reward"] += 1
                return super().reward(alpha, beta)

        monkeypatch.setattr(trainer, base.__name__, Counting)
        cfg = TrainConfig(provider=provider, m=2, n=3, epochs=2, iters_theta=3, iters_w=1)
        trainer.run(cfg)
        theta_steps = cfg.epochs * cfg.iters_theta
        assert counts["score"] == theta_steps * cfg.m * (cfg.n + 1)
        assert counts["reward"] == 0
