"""Reward provider tests: synthetic data, toy supernet, planted oracle."""

import base64
import copy
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from natforge import evaluator, trainer
from natforge.archgraph import (
    EdgeSlot,
    apply_transitions,
    make_cell,
    same_topology,
    sample_uniform,
)
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
    shared_file,
    supernet_train_step,
)
from natforge.numkernel import atomic_write, checkpoint_text, cross_entropy_logits
from natforge.opspace import OPERATIONS, OperationKind, TypeClass, transition_mask
from natforge.trainer import TrainConfig


def chain_cell(op: OperationKind, num_intermediate: int = 4):
    edges = []
    for l in range(num_intermediate):
        edges.append(EdgeSlot(l, 0, -2 if l == 0 else l - 1, op))
        edges.append(EdgeSlot(l, 1, -1, op))
    return make_cell(num_intermediate + 3, edges)


def _random_rewrite(beta, rng):
    """``beta`` with a uniformly drawn valid transition on every edge."""
    actions = []
    for e in beta.edges:
        ops = [OPERATIONS[i] for i in np.flatnonzero(transition_mask(e.op))]
        actions.append(ops[int(rng.integers(len(ops)))].index)
    return apply_transitions(beta, actions)


def _input_fed_pairs(graphs):
    """The distinct non-null (edge index, operation index) pairs of ``graphs`` fed by an input node."""
    return {
        (e, o)
        for g in graphs
        for e, (src, o) in enumerate(zip(g.sources.tolist(), g.ops.tolist()))
        if src < 0 and o != OperationKind.NULL.index
    }


#: Operations without weights: their output on an input node is the same on every edge slot.
_WEIGHT_FREE = {
    op.index
    for op in OPERATIONS
    if op.type_class in (TypeClass.MAX_POOL, TypeClass.AVG_POOL, TypeClass.SKIP)
}
_POOLS = (
    OperationKind.MAX_POOL_3X3,
    OperationKind.MAX_POOL_5X5,
    OperationKind.AVG_POOL_3X3,
    OperationKind.AVG_POOL_5X5,
)


def _memo_keys(graphs):
    """The scoring memo's keys for ``graphs``: each weighted input-fed (edge, op) pair, and
    each weight-free operation on an input-fed edge by its index alone."""
    return {o if o in _WEIGHT_FREE else (e, o) for e, o in _input_fed_pairs(graphs)}


def _forwards(keys):
    """The operation of each ``_read_edge`` that computes ``keys``, counted."""
    return Counter(key if key in _WEIGHT_FREE else key[1] for key in keys)


def _spy_input_fed_forwards(monkeypatch, x_t, calls):
    """Append to ``calls`` the operation index of each ``_read_edge`` on ``x_t`` itself.

    A read-only forward passes its feature-major batch itself only to the
    edges fed by an input node, so with a provider's own batch as ``x_t``
    these are the scoring memo's misses.
    """
    real = evaluator._read_edge

    def spy(o, inputs, entry):
        if inputs is x_t:
            calls.append(o)
        return real(o, inputs, entry)

    monkeypatch.setattr(evaluator, "_read_edge", spy)


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
        b = apply_transitions(a, [
            (OperationKind.CONV_3X3 if e % 2 == 0 else OperationKind.SKIP).index
            for e in range(8)
        ])
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
        atomic_write([shared_file(run(), 8, p1)])
        atomic_write([shared_file(run(), 8, p2)])
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
        # A supernet step trains bank entry (e, ops[e]) of each of its cells, so
        # the (slot, op) usage under uniform sampling is counted from the cells.
        rng = np.random.default_rng(9)
        ops = np.stack([sample_uniform(4, rng).ops for _ in range(800)])
        counts = np.bincount((np.arange(8) * len(OPERATIONS) + ops).ravel())
        assert counts.shape == (8 * len(OPERATIONS),)
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        w = init_shared(rng, 4)
        path = str(tmp_path / "w.json")
        atomic_write([shared_file(w, 10, path)])
        loaded, data_seed = load_shared(path)
        assert data_seed == 10
        with open(path) as fh:
            assert json.load(fh)["feature_dim"] == 16
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
                    assert transition_mask(src)[best.index] == 1

    def test_deterministic(self):
        assert np.array_equal(make_oracle(5).table, make_oracle(5).table)

    def test_reward_direct_table_sum(self):
        table = np.zeros((8, 13))
        table[:, OperationKind.SKIP.index] = 1.0
        from natforge.evaluator import PlantedOracle

        provider = OracleProvider(PlantedOracle(table=table))
        beta = chain_cell(OperationKind.NULL)
        alpha = apply_transitions(beta, [OperationKind.SKIP.index] * 8)
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
        alpha = _random_rewrite(beta, rng)
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
            alpha = _random_rewrite(beta, rng)
            for p in providers:
                [score_alpha], [score_beta] = p.score_many([alpha]), p.score_many([beta])
                assert p.reward(alpha, beta) == score_alpha - score_beta


def edit_array(holder, key, edit):
    """Decode the checkpoint array ``holder[key]``, apply ``edit`` and store it re-encoded.

    ``edit`` changes the float64 array in place or returns the array to store.
    """
    values = np.frombuffer(base64.b64decode(holder[key]), dtype="<f8").copy()
    edited = edit(values)
    holder[key] = checkpoint_text(values if edited is None else edited)


class TestSharedCheckpointValidation:
    @pytest.fixture()
    def payload(self, tmp_path):
        path = str(tmp_path / "w.json")
        atomic_write([shared_file(init_shared(np.random.default_rng(19), 2), 19, path)])
        with open(path) as fh:
            return json.load(fh)

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("feature_dim", lambda p: p.pop("feature_dim")),
            pytest.param("feature_dim", lambda p: p.update(feature_dim=8), id="feature_dim-8"),
            ("num_classes", lambda p: p.update(num_classes=0)),
            pytest.param("num_classes", lambda p: p.update(num_classes=7), id="num_classes-7"),
            pytest.param("data_seed", lambda p: p.pop("data_seed"), id="data_seed-missing"),
            pytest.param("data_seed", lambda p: p.update(data_seed=-1), id="data_seed--1"),
            pytest.param("data_seed", lambda p: p.update(data_seed=True), id="data_seed-true"),
            pytest.param("data_seed", lambda p: p.update(data_seed="3"), id="data_seed-string"),
            ("head_w", lambda p: edit_array(p, "head_w", lambda a: a.__setitem__(0, np.nan))),
            ("head_w", lambda p: p.update(num_intermediate=3)),
            ("head_b", lambda p: edit_array(p, "head_b", lambda a: np.append(a, 0.0))),
            ("bank", lambda p: p["bank"].pop("3:conv_5x5")),
            ("bank", lambda p: p["bank"].update({"4:conv_1x1": {"mix": []}})),
            ("bank['0:sep_conv_3x3']", lambda p: p["bank"]["0:sep_conv_3x3"].pop("diag")),
            (
                "bank['1:conv_3x3'].mix",
                lambda p: edit_array(
                    p["bank"]["1:conv_3x3"], "mix", lambda a: a.reshape(16, 16)[:-1]
                ),
            ),
            (
                "bank['2:dil_sep_conv_5x5'].diag",
                lambda p: edit_array(
                    p["bank"]["2:dil_sep_conv_5x5"], "diag", lambda a: a.__setitem__(1, -np.inf)
                ),
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
            load_shared(path)
        assert str(info.value) == f"format_version: expected 3, found {found}"

    def test_reload_rewrites_same_bytes(self, tmp_path):
        rng = np.random.default_rng(20)
        w = init_shared(rng, 4)
        ds = make_dataset(20)
        for _ in range(5):
            x, y = ds.train_batch(rng, 16)
            supernet_train_step(w, [sample_uniform(4, rng)], x, y, 0.05)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        atomic_write([shared_file(w, 20, p1)])
        atomic_write([shared_file(*load_shared(p1), p2)])
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
    d = x.shape[1]
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
    # Bytes, not values: -0.0 and +0.0 must not pass for each other.
    return (
        a.head_w.tobytes() == b.head_w.tobytes()
        and a.head_b.tobytes() == b.head_b.tobytes()
        and a.bank.keys() == b.bank.keys()
        and all(
            a.bank[key][name].tobytes() == b.bank[key][name].tobytes()
            for key in a.bank
            for name in a.bank[key]
        )
    )


def _steps_match_reference(w, graphs, x, y, steps=1):
    """Train ``w`` and a copy of it, by the product step and by the reference, in lockstep."""
    ref = copy.deepcopy(w)
    for _ in range(steps):
        loss = supernet_train_step(w, graphs, x, y, 0.05)
        assert loss == _ref_train_step(ref, graphs, x, y, 0.05)
        assert _same_weights(w, ref)


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

    @pytest.mark.parametrize("feature_dim", [16])
    def test_every_slot_and_op_matches_reference(self, feature_dim):
        rng = np.random.default_rng(50 + feature_dim)
        w = init_shared(rng, 4)
        x_val = rng.standard_normal((64, feature_dim))
        covered = set()
        for trial in range(3):
            topology = sample_uniform(4, rng)
            cells = [
                make_cell(topology.num_nodes, [replace(e, op=op) for e in topology.edges])
                for op in OPERATIONS
            ]
            cells += [sample_uniform(4, rng) for _ in range(13)]
            for g in cells:
                covered.update(enumerate(g.ops.tolist()))
                assert np.array_equal(graph_logits(g, w, x_val), _ref_forward_graph(g, w, x_val)[0])
                x, y = rng.standard_normal((32, feature_dim)), rng.integers(0, len(w.head_b), 32)
                graphs = [g] if trial < 2 else [g, sample_uniform(4, rng)]
                ref = copy.deepcopy(w)
                loss = supernet_train_step(w, graphs, x, y, 0.05)
                assert loss == _ref_train_step(ref, graphs, x, y, 0.05)
                assert _same_weights(w, ref)
        assert covered == {(e, op.index) for e in range(8) for op in OPERATIONS}

    def test_slots_are_the_bank_entries(self, tmp_path):
        w = init_shared(np.random.default_rng(41), 2)
        path = str(tmp_path / "w.json")
        atomic_write([shared_file(w, 41, path)])
        learnable = (TypeClass.CONV, TypeClass.SEP_CONV, TypeClass.DIL_SEP_CONV)
        for shared in (w, load_shared(path)[0], copy.deepcopy(w)):
            assert len(shared.slots) == 4
            for e, row in enumerate(shared.slots):
                for entry, op in zip(row, OPERATIONS, strict=True):
                    assert entry is shared.bank.get((e, op))
                    assert (entry is None) == (op.type_class not in learnable)

    def test_deep_copy_trains_its_own_bank(self):
        rng = np.random.default_rng(42)
        ds = make_dataset(42)
        w = init_shared(rng, 4)
        before = copy.deepcopy(w)
        trained = copy.deepcopy(w)
        x, y = ds.train_batch(rng, 32)
        cells = [chain_cell(op) for op in OPERATIONS]
        for g in cells:
            supernet_train_step(trained, [g], x, y, 0.05)
        assert _same_weights(w, before)
        ref = copy.deepcopy(w)
        for g in cells:
            _ref_train_step(ref, [g], x, y, 0.05)
        assert _same_weights(trained, ref)
        assert not _same_weights(trained, w)

    def test_negative_zero_inputs_keep_reference_bits(self):
        # A node summed from zeros is never -0.0, even when an edge passes -0.0 through.
        w = init_shared(np.random.default_rng(43), 2)
        x, _ = make_dataset(43).val_batch(16)
        x[:, 3] = -0.0
        g = make_cell(
            5,
            (
                EdgeSlot(0, 0, -2, OperationKind.SKIP),
                EdgeSlot(0, 1, -1, OperationKind.NULL),
                EdgeSlot(1, 0, 0, OperationKind.MAX_POOL_3X3),
                EdgeSlot(1, 1, -1, OperationKind.SKIP),
            ),
        )
        feats = evaluator._read_nodes(g, w, x.T.copy(), {})
        assert feats.T.tobytes() == _ref_forward_graph(g, w, x)[1][2].tobytes()

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

    @pytest.mark.parametrize(
        "pool, feature_dim",
        [(pool, d) for pool in _POOLS for d in (16, 7)]
        + [(OperationKind.MAX_POOL_5X5, 3), (OperationKind.AVG_POOL_5X5, 3)],
        ids=lambda v: v.value if isinstance(v, OperationKind) else f"d{v}",
    )
    def test_pool_slices_match_window_reductions(self, pool, feature_dim):
        # The window gather and reductions the shifted slices replace; at d = 3 a 5-wide
        # window wraps past its start. Rounded inputs tie; rows of -0.0 and of mixed
        # signed zeros fill whole windows; NaN and infinities spread through their windows.
        rng = np.random.default_rng(67)
        x = np.round(rng.standard_normal((512, feature_dim)))
        x[:32] = -0.0
        x[32:64] = rng.choice([-0.0, 0.0], size=(32, feature_dim))
        specials = [np.nan, np.inf, -np.inf, -0.0, 0.0]
        x[64:128] = rng.choice(specials + [1.0, -1.0], size=(64, feature_dim))
        vals = x[:, _windows(feature_dim, pool.kernel)]
        # inf - inf in a sum is NaN, as it should be.
        with np.errstate(invalid="ignore"):
            if pool.type_class is TypeClass.MAX_POOL:
                want = np.maximum.reduce(vals, axis=2)
            else:
                want = np.add.reduce(vals, axis=2) / pool.kernel
            y = evaluator._read_edge(pool.index, x.T.copy(), None).T
        assert y.tobytes() == want.tobytes()
        # An all -0.0 window keeps its max, but averages to +0.0: the sum starts from +0.0.
        assert np.signbit(y[:32]).all() == (pool.type_class is TypeClass.MAX_POOL)

    @pytest.mark.parametrize("pool", [OperationKind.MAX_POOL_3X3, OperationKind.MAX_POOL_5X5])
    def test_max_pool_backward_matches_add_at(self, pool):
        # Rounded inputs tie inside most windows; NaN takes the argmax of its windows.
        rng = np.random.default_rng(44)
        x = np.round(rng.standard_normal((64, 16)))
        x[3, 5] = x[9, 2] = x[9, 3] = np.nan
        x[7] = 0.0
        gy = rng.standard_normal((64, 16))
        gy[11, 4] = np.nan
        gy[12] = -0.0
        x_t = x.T.copy()
        y = evaluator._read_edge(pool.index, x_t, None).T
        ref_y, ref_cache = _ref_edge_forward(pool, x, None)
        assert y.tobytes() == ref_y.tobytes()
        grads, dx = evaluator._edge_backward(pool.index, gy, None, x_t, True)
        assert grads is None
        assert dx.tobytes() == _ref_edge_backward(pool, gy, None, ref_cache, None).tobytes()
        assert evaluator._edge_backward(pool.index, gy, None, x_t, False) == (None, None)

    @pytest.mark.parametrize("op", OPERATIONS, ids=lambda op: op.value)
    def test_parameter_gradients_do_not_depend_on_need_dx(self, monkeypatch, op):
        # Chain node l > 0 takes edge 2l from node l - 1; every other edge is input-fed.
        w = init_shared(np.random.default_rng(45), 4)
        x, y = make_dataset(45).train_batch(np.random.default_rng(46), 32)
        backward = evaluator._edge_backward
        asked = []

        def both_ways(o, gy, entry, x_t, need_dx):
            asked.append(need_dx)
            (grads, dx), (bare, no_dx) = (backward(o, gy, entry, x_t, n) for n in (True, False))
            assert dx is not None and no_dx is None
            if grads is None:
                assert bare is None
            else:
                assert {k: g.tobytes() for k, g in bare.items()} == {
                    k: g.tobytes() for k, g in grads.items()
                }
            return backward(o, gy, entry, x_t, need_dx)

        monkeypatch.setattr(evaluator, "_edge_backward", both_ways)
        _steps_match_reference(w, [chain_cell(op)], x, y)
        # Null edges have no backward; the others are walked from the last node.
        assert asked == ([] if op is OperationKind.NULL else [True, False] * 3 + [False, False])

    def test_cells_sharing_entries_accumulate_like_reference(self):
        # Three rewrites of one cell share most (edge, op) entries, so later cells add in place.
        rng = np.random.default_rng(47)
        ds = make_dataset(47)
        w = init_shared(rng, 4)
        shared = 0
        for _ in range(40):
            beta = sample_uniform(4, rng)
            graphs = [beta, _random_rewrite(beta, rng), _random_rewrite(beta, rng)]
            keys = [(e, o) for g in graphs for e, o in enumerate(g.ops.tolist())]
            shared += len(keys) - len(set(keys))
            x, y = ds.train_batch(rng, 32)
            _steps_match_reference(w, graphs, x, y)
        assert shared > 100

    def test_saturated_nodes_feeding_null_edges_keep_reference_bits(self, monkeypatch):
        # Scaled weights drive tanh to exactly +-1.0, where gpre = node gradient * 0.0 is a
        # signed zero; nodes 0, 1 and 2 each feed a null edge.
        w = init_shared(np.random.default_rng(48), 4)
        for entry in w.bank.values():
            entry["mix"] *= 40.0
        x, y = make_dataset(48).train_batch(np.random.default_rng(49), 32)
        x *= 10.0
        g = make_cell(
            7,
            (
                EdgeSlot(0, 0, -2, OperationKind.CONV_3X3),
                EdgeSlot(0, 1, -1, OperationKind.SEP_CONV_3X3),
                EdgeSlot(1, 0, 0, OperationKind.NULL),
                EdgeSlot(1, 1, -1, OperationKind.DIL_SEP_CONV_5X5),
                EdgeSlot(2, 0, 0, OperationKind.CONV_1X1),
                EdgeSlot(2, 1, 1, OperationKind.NULL),
                EdgeSlot(3, 0, 2, OperationKind.NULL),
                EdgeSlot(3, 1, 0, OperationKind.MAX_POOL_3X3),
            ),
        )
        feats = evaluator._read_nodes(g, w, x.T.copy(), {})
        assert all((np.abs(feats[16 * l : 16 * (l + 1)]) == 1.0).any() for l in range(3))
        backward = evaluator._edge_backward
        signed_zeros = []

        def spy(o, gy, entry, x_t, need_dx):
            signed_zeros.append(np.count_nonzero((gy == 0.0) & np.signbit(gy)))
            return backward(o, gy, entry, x_t, need_dx)

        monkeypatch.setattr(evaluator, "_edge_backward", spy)
        _steps_match_reference(w, [g], x, y, steps=5)
        assert sum(signed_zeros) > 0

    def test_first_gradient_is_a_sum_from_zeros(self):
        first = {"g": np.array([-0.0, 0.0, 2.0, np.nan])}
        acc = evaluator._sum_into(None, first)
        assert acc is first
        assert acc["g"].tobytes() == (np.zeros(4) + [-0.0, 0.0, 2.0, np.nan]).tobytes()
        assert evaluator._sum_into(acc, {"g": np.array([-0.0, -0.0, 1.0, 0.0])}) is acc
        assert acc["g"].tobytes() == np.array([0.0, 0.0, 3.0, np.nan]).tobytes()

    def test_feature_major_left_operand_keeps_row_major_bits(self):
        # The training step takes its mix and head gradients as x_t @ gy and feats @ dlogits
        # over feature-major inputs; the reference step takes them as x.T @ gy through a
        # transposed view of the row-major input. The forward takes an edge's mix as
        # mix.T @ x_t and the head as feats.T @ head_w, where the reference takes x @ mix.
        # A BLAS that gives these products different bits fails here, not only through the
        # golden digests: OpenBLAS 0.3.31's Haswell kernel does, for mix.T @ x_t at batch 7.
        rng = np.random.default_rng(71)
        shapes = [(16, 16)] + [(16 * i, 8) for i in range(1, 5)]
        for batch in (1, 7, 16, 32, 64, 256):
            for rows, cols in shapes:
                for _ in range(20):
                    x, gy = rng.standard_normal((batch, rows)), rng.standard_normal((batch, cols))
                    assert (x.T.copy() @ gy).tobytes() == (x.T @ gy).tobytes(), (batch, rows, cols)
        for batch in (1, 7, 128, 256):
            for rows, cols in shapes:
                for _ in range(20):
                    x, mix = rng.standard_normal((batch, rows)), rng.standard_normal((rows, cols))
                    x_t, want = x.T.copy(), (x @ mix).tobytes()
                    assert (mix.T @ x_t).T.tobytes() == want, ("edge", batch, rows, cols)
                    assert (x_t.T @ mix).tobytes() == want, ("head", batch, rows, cols)

    def test_every_op_on_input_fed_and_intermediate_fed_edges(self):
        # Node l > 0 takes OPERATIONS[l % 13] from node l - 1 and every node takes
        # OPERATIONS[(l + 5) % 13] from input -1, so each operation sits on both kinds of edge.
        edges = []
        for l in range(14):
            edges.append(EdgeSlot(l, 0, l - 1 if l else -2, OPERATIONS[l % 13]))
            edges.append(EdgeSlot(l, 1, -1, OPERATIONS[(l + 5) % 13]))
        g = make_cell(17, edges)
        fed = {True: set(), False: set()}
        for src, o in zip(g.sources.tolist(), g.ops.tolist(), strict=True):
            fed[src >= 0].add(o)
        assert fed[True] == fed[False] == set(range(13))
        rng = np.random.default_rng(50)
        w = init_shared(rng, 14)
        x, y = make_dataset(50).train_batch(rng, 32)
        assert np.array_equal(graph_logits(g, w, x), _ref_forward_graph(g, w, x)[0])
        _steps_match_reference(w, [g], x, y, steps=5)


class TestDrawSetScoring:
    @pytest.mark.parametrize("batch", [1, 7, 128])
    @pytest.mark.parametrize("num_intermediate", [1, 2, 3, 4])
    def test_accuracy_many_is_one_cell_accuracy(self, num_intermediate, batch):
        rng = np.random.default_rng(60 + num_intermediate)
        ds = make_dataset(60)
        w = init_shared(rng, num_intermediate)
        for _ in range(20):
            x, y = ds.train_batch(rng, 64)
            supernet_train_step(w, [sample_uniform(num_intermediate, rng)], x, y, 0.05)
        x_val, y_val = ds.val_batch(batch)
        topology = sample_uniform(num_intermediate, rng)
        pools = (OperationKind.MAX_POOL_3X3, OperationKind.MAX_POOL_5X5)
        pools += (OperationKind.AVG_POOL_3X3, OperationKind.AVG_POOL_5X5)
        cells = [sample_uniform(num_intermediate, rng) for _ in range(50)]
        cells += [
            make_cell(topology.num_nodes, [replace(e, op=pool) for e in topology.edges])
            for pool in pools
        ]
        beta = sample_uniform(num_intermediate, rng)
        draw_set = [beta] + [_random_rewrite(beta, rng) for _ in range(8)]
        # Rounded inputs tie inside the pooling windows.
        for x in (x_val, np.round(x_val)):
            for graphs in (cells, draw_set):
                want = [accuracy(g, w, x, y_val) for g in graphs]
                assert SupernetProvider(w, x, y_val).score_many(graphs) == want
                memo = {}
                for g in graphs:
                    got = evaluator._head(evaluator._read_nodes(g, w, x.T.copy(), memo), w)
                    assert got.tobytes() == _ref_forward_graph(g, w, x)[0].tobytes()
                # The memo holds exactly the non-null edges fed by an input node, each
                # weight-free operation once under its index, as (feature, batch) arrays.
                assert set(memo) == _memo_keys(graphs)
                for key, y in memo.items():
                    e, o = (None, key) if key in _WEIGHT_FREE else key
                    entry = None if e is None else w.bank[e, OPERATIONS[o]]
                    want_y = _ref_edge_forward(OPERATIONS[o], x, entry)[0]
                    assert y.shape == (16, batch) and y.flags.c_contiguous
                    assert y.T.tobytes() == want_y.tobytes()

    def test_intermediate_count_mismatch_rejected(self):
        w = init_shared(np.random.default_rng(61), 2)
        x, y = make_dataset(61).val_batch(16)
        cells = [sample_uniform(2, np.random.default_rng(62)), chain_cell(OperationKind.SKIP)]
        with pytest.raises(ValueError, match="intermediate count"):
            SupernetProvider(w, x, y).score_many(cells)

    def test_provider_keeps_its_own_copy_of_the_batch(self):
        rng = np.random.default_rng(68)
        w = init_shared(rng, 4)
        x_val, y_val = make_dataset(68).val_batch(256)
        x_original, y_original = x_val.copy(), y_val.copy()
        cells = [sample_uniform(4, rng) for _ in range(12)]
        provider = SupernetProvider(w, x_val, y_val)
        want = [accuracy(g, w, x_original, y_original) for g in cells]
        x_val[:] = rng.standard_normal(x_val.shape)
        assert provider.score_many(cells) == want
        assert [accuracy(g, w, x_val, y_original) for g in cells] != want
        y_val[:] = (y_val + 1) % 8
        assert provider.score_many(cells) == want
        assert [accuracy(g, w, x_original, y_val) for g in cells] != want

    def test_scores_follow_the_weights(self):
        # No output computed under older weights is reused by a later call.
        rng = np.random.default_rng(63)
        ds = make_dataset(63)
        w = init_shared(rng, 4)
        x_val, y_val = ds.val_batch(256)
        provider = SupernetProvider(w, x_val, y_val)
        beta = sample_uniform(4, rng)
        draw_set = [beta] + [_random_rewrite(beta, rng) for _ in range(8)]
        before = provider.score_many(draw_set)
        for _ in range(30):
            x, y = ds.train_batch(rng, 64)
            supernet_train_step(w, [sample_uniform(4, rng)], x, y, 0.1)
            after = provider.score_many(draw_set)
            assert after == [accuracy(g, w, x_val, y_val) for g in draw_set]
        assert after != before

    def test_memo_kept_across_calls_under_unchanged_weights(self, monkeypatch):
        rng = np.random.default_rng(64)
        ds = make_dataset(64)
        w = init_shared(rng, 4)
        x_val, y_val = ds.val_batch(256)
        provider = SupernetProvider(w, x_val, y_val)
        draw_sets = []
        for _ in range(2):
            beta = sample_uniform(4, rng)
            draw_sets.append([beta] + [_random_rewrite(beta, rng) for _ in range(8)])
        first, second = (_memo_keys(d) for d in draw_sets)
        # The second call needs some outputs the first computed, and some it did not.
        assert first & second and second - first
        calls = []
        _spy_input_fed_forwards(monkeypatch, provider._x_t, calls)
        scores = [provider.score_many(d) for d in draw_sets]
        # Each weighted input-fed (edge, op) and each weight-free op is computed once.
        assert Counter(calls) == _forwards(first | second)
        assert scores == [[accuracy(g, w, x_val, y_val) for g in d] for d in draw_sets]

    def test_memo_ends_when_the_weights_change(self, monkeypatch):
        rng = np.random.default_rng(65)
        ds = make_dataset(65)
        w = init_shared(rng, 4)
        x_val, y_val = ds.val_batch(256)
        provider = SupernetProvider(w, x_val, y_val)
        beta = sample_uniform(4, rng)
        draw_set = [beta] + [_random_rewrite(beta, rng) for _ in range(8)]
        keys = _memo_keys(draw_set)
        weighted = {key for key in keys if key not in _WEIGHT_FREE}
        # Weight-free outputs are kept when the weights change, weighted ones are not.
        assert weighted and keys - weighted
        calls = []
        _spy_input_fed_forwards(monkeypatch, provider._x_t, calls)
        want = _forwards(keys)
        for _ in range(3):
            provider.score_many(draw_set)
            assert Counter(calls) == want
            calls.clear()
            provider.score_many(draw_set)
            assert calls == []
            x, y = ds.train_batch(rng, 64)
            supernet_train_step(w, [sample_uniform(4, rng)], x, y, 0.1)
            # The step's own forward runs on its training batch, not on x_val.
            assert calls == []
            want = _forwards(weighted)
        after = provider.score_many(draw_set)
        assert Counter(calls) == want
        assert after == [accuracy(g, w, x_val, y_val) for g in draw_set]

    def test_kept_pool_outputs_score_like_accuracy_after_weight_steps(self):
        # Every input-fed edge of the pool cells takes a pool, so each later score reads
        # the weight-free outputs kept from before the steps.
        rng = np.random.default_rng(66)
        ds = make_dataset(66)
        w = init_shared(rng, 4)
        x_val, y_val = ds.val_batch(256)
        provider = SupernetProvider(w, x_val, y_val)
        topology = sample_uniform(4, rng)
        cells = [
            make_cell(topology.num_nodes, [replace(e, op=pool) for e in topology.edges])
            for pool in _POOLS
        ]
        cells += [sample_uniform(4, rng) for _ in range(8)]
        before = provider.score_many(cells)
        kept = {key: y for key, y in provider._memo.items() if key in _WEIGHT_FREE}
        assert set(kept) >= {pool.index for pool in _POOLS}
        for _ in range(5):
            x, y = ds.train_batch(rng, 64)
            supernet_train_step(w, [sample_uniform(4, rng)], x, y, 0.1)
        after = provider.score_many(cells)
        assert after == [accuracy(g, w, x_val, y_val) for g in cells]
        assert after != before
        for key, y in kept.items():
            assert provider._memo[key] is y
        for g in cells:
            got = evaluator._head(evaluator._read_nodes(g, w, provider._x_t, provider._memo), w)
            assert got.tobytes() == _ref_forward_graph(g, w, x_val)[0].tobytes()


class TestBatchChecks:
    """A malformed batch is rejected with its shapes, not scored."""

    @pytest.fixture
    def scored(self):
        w = init_shared(np.random.default_rng(0), 4)
        x, y = make_dataset(0).val_batch(256)
        return sample_uniform(4, np.random.default_rng(1)), w, x, y

    def test_too_few_labels_rejected(self, scored):
        g, w, x, y = scored
        msg = r"with B >= 1 and B labels, got x \(256, 16\) and labels \(1,\)"
        with pytest.raises(ValueError, match=msg):
            accuracy(g, w, x, y[:1])
        with pytest.raises(ValueError, match=msg):
            SupernetProvider(w, x, y[:1])

    def test_empty_batch_rejected(self, scored):
        g, w, x, y = scored
        msg = r"B >= 1 and B labels, got x \(0, 16\) and labels \(0,\)"
        with pytest.raises(ValueError, match=msg):
            accuracy(g, w, x[:0], y[:0])
        with pytest.raises(ValueError, match=msg):
            SupernetProvider(w, x[:0], y[:0])
        with pytest.raises(ValueError, match=r"with B >= 1, got x \(0, 16\)$"):
            graph_logits(g, w, x[:0])

    def test_wrong_feature_count_rejected(self, scored):
        g, w, x, y = scored
        msg = (
            r"^batch: expected x of shape \(B, 16\) with B >= 1 and B labels, "
            r"got x \(256, 15\) and labels \(256,\)$"
        )
        with pytest.raises(ValueError, match=msg):
            accuracy(g, w, x[:, :15], y)
        with pytest.raises(ValueError, match=msg):
            SupernetProvider(w, x[:, :15], y)
        with pytest.raises(ValueError, match=r"got x \(256, 15\)$"):
            graph_logits(g, w, x[:, :15])


_BAD_LABELS = [
    (lambda y: _with(y, 5, -1), r"got -1 at index 5$"),
    (lambda y: _with(y, 7, 8), r"got 8 at index 7$"),
    # Every label of a float array is bad, integral or not: the first is named.
    (lambda y: _with(y, 0, 3).astype(float), r"got 3\.0 at index 0$"),
]


def _with(y, i, value):
    y = y.copy()
    y[i] = value
    return y


class TestLabelChecks:
    """A label that is not an integer class in [0, 8) is rejected by name, before any write."""

    @pytest.fixture
    def batch(self):
        w = init_shared(np.random.default_rng(0), 4)
        x, y = make_dataset(0).train_batch(np.random.default_rng(1), 64)
        return sample_uniform(4, np.random.default_rng(2)), w, x, y

    @staticmethod
    def _rejected(w, call, msg):
        before = copy.deepcopy(w)
        prefix = r"^batch: expected integer labels in \[0, 8\), "
        with pytest.raises(ValueError, match=prefix + msg):
            call()
        assert w._writes == 0
        assert _same_weights(w, before)

    @pytest.mark.parametrize("bad, msg", _BAD_LABELS, ids=["minus-one", "eight", "float"])
    def test_accuracy(self, batch, bad, msg):
        g, w, x, y = batch
        self._rejected(w, lambda: accuracy(g, w, x, bad(y)), msg)

    @pytest.mark.parametrize("bad, msg", _BAD_LABELS, ids=["minus-one", "eight", "float"])
    def test_supernet_provider(self, batch, bad, msg):
        g, w, x, y = batch
        self._rejected(w, lambda: SupernetProvider(w, x, bad(y)), msg)

    @pytest.mark.parametrize("bad, msg", _BAD_LABELS, ids=["minus-one", "eight", "float"])
    def test_supernet_train_step(self, batch, bad, msg):
        g, w, x, y = batch
        self._rejected(w, lambda: supernet_train_step(w, [g], x, bad(y), 0.05), msg)

    def test_first_bad_label_is_named(self, batch):
        g, w, x, y = batch
        y = _with(_with(y, 9, 8), 20, -3)
        self._rejected(w, lambda: accuracy(g, w, x, y), r"got 8 at index 9$")


class TestTrainStepChecks:
    """A malformed step is rejected before it counts a write or changes a weight."""

    @pytest.fixture
    def step(self):
        w = init_shared(np.random.default_rng(0), 4)
        x, y = make_dataset(0).train_batch(np.random.default_rng(1), 64)
        return w, [sample_uniform(4, np.random.default_rng(2))], x, y

    @staticmethod
    def _rejected(w, graphs, x, y, msg, lr=0.05):
        before = copy.deepcopy(w)
        with pytest.raises(ValueError, match=msg):
            supernet_train_step(w, graphs, x, y, lr)
        assert w._writes == 0
        assert _same_weights(w, before)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_lr_rejected(self, step, lr):
        w, graphs, x, y = step
        self._rejected(w, graphs, x, y, rf"^lr must be finite, got {lr}$", lr=lr)

    def test_no_graphs_rejected(self, step):
        w, _, x, y = step
        self._rejected(w, [], x, y, r"^graphs: expected at least one cell$")

    def test_empty_batch_rejected(self, step):
        w, graphs, x, y = step
        self._rejected(w, graphs, x[:0], y[:0], r"got x \(0, 16\) and labels \(0,\)$")

    def test_wrong_feature_count_rejected(self, step):
        w, graphs, x, y = step
        self._rejected(w, graphs, x[:, :15], y, r"got x \(64, 15\) and labels \(64,\)$")

    def test_too_few_labels_rejected(self, step):
        w, graphs, x, y = step
        self._rejected(w, graphs, x, y[:10], r"got x \(64, 16\) and labels \(10,\)$")

    def test_intermediate_count_mismatch_rejected(self, step):
        # The second graph is rejected after the first has been through forward and backward.
        w, graphs, x, y = step
        mismatched = graphs + [chain_cell(OperationKind.SKIP, 2)]
        self._rejected(w, mismatched, x, y, "intermediate count")


class TestTrainerScoring:
    @pytest.mark.parametrize("provider", ["oracle", "supernet"])
    def test_beta_scored_once_per_draw_set(self, monkeypatch, provider):
        base = OracleProvider if provider == "oracle" else SupernetProvider
        per_step = ("_pass", "_sample_rows", "_checked_ops", "backprop")
        per_phase = ("_encode", "_inputs")
        counts = dict.fromkeys(("reward",) + per_step + per_phase, 0)
        calls = []  # the cells of each score_many call, kept alive so no id is reused

        class Counting(base):
            def score_many(self, graphs):
                calls.append(list(graphs))
                return super().score_many(graphs)

            def reward(self, alpha, beta):
                counts["reward"] += 1
                return super().reward(alpha, beta)

        def counting(name):
            real = getattr(trainer, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(trainer, base.__name__, Counting)
        for name in per_step + per_phase:
            monkeypatch.setattr(trainer, name, counting(name))
        cfg = TrainConfig(provider=provider, m=2, n=3, epochs=2)
        trainer.run(cfg)
        steps = cfg.iters_theta
        # Per θ phase: one call on its input cells, then one per step on that step's rewrites.
        assert len(calls) == cfg.epochs * (1 + steps)
        scored = [g for graphs in calls for g in graphs]
        assert len(scored) == cfg.epochs * steps * cfg.m * (cfg.n + 1)
        assert len({id(g) for g in scored}) == len(scored)  # each cell scored exactly once
        for epoch in range(cfg.epochs):
            betas, *alphas = calls[epoch * (1 + steps) : (epoch + 1) * (1 + steps)]
            assert len(betas) == steps * cfg.m
            for s, group in enumerate(alphas):
                assert len(group) == cfg.m * cfg.n
                for j, alpha in enumerate(group):
                    assert same_topology(alpha, betas[s * cfg.m + j // cfg.n])
        assert counts["reward"] == 0
        # One pass, one draw call, one group rewrite check and one backprop per θ step;
        # one encoding and one θ-free stage per θ phase.
        for name in per_step:
            assert counts[name] == cfg.epochs * steps, name
        for name in per_phase:
            assert counts[name] == cfg.epochs, name

    def test_one_input_fed_forward_per_pair_and_theta_phase(self, monkeypatch):
        # The input-fed forwards in call order, and per θ phase the index of
        # its first forward and the cells it scored.
        forwards, phases = [], []
        after_w_step = [True]

        class Recording(SupernetProvider):
            def __init__(self, w, x_val, y_val):
                super().__init__(w, x_val, y_val)
                _spy_input_fed_forwards(monkeypatch, self._x_t, forwards)

            def score_many(self, graphs):
                if after_w_step[0]:
                    phases.append((len(forwards), []))
                    after_w_step[0] = False
                phases[-1][1].extend(graphs)
                return super().score_many(graphs)

        real_step = trainer.supernet_train_step

        def step(*args):
            after_w_step[0] = True
            return real_step(*args)

        monkeypatch.setattr(trainer, "SupernetProvider", Recording)
        monkeypatch.setattr(trainer, "supernet_train_step", step)
        cfg = TrainConfig(mode="nat++", provider="supernet", n=8, epochs=2)
        trainer.run(cfg)
        assert len(phases) == cfg.epochs
        ends = [start for start, _ in phases[1:]] + [len(forwards)]
        seen = set()
        for (start, scored), end in zip(phases, ends):
            assert len(scored) == cfg.iters_theta * (cfg.n + 1)
            # Each weighted pair once per θ phase, each weight-free op once per run.
            keys = _memo_keys(scored)
            assert Counter(forwards[start:end]) == _forwards(keys - seen)
            seen |= {key for key in keys if key in _WEIGHT_FREE}

    def test_pool_forwards_per_supernet_train_run(self, monkeypatch):
        # The benchmark's supernet-train recipe at seed 0: at most one forward per pool.
        forwards = []

        class Recording(SupernetProvider):
            def __init__(self, w, x_val, y_val):
                super().__init__(w, x_val, y_val)
                _spy_input_fed_forwards(monkeypatch, self._x_t, forwards)

        monkeypatch.setattr(trainer, "SupernetProvider", Recording)
        cfg = TrainConfig(
            mode="nat++", provider="supernet", n=8, use_baseline=True, entropy_weight=0.1,
            epochs=10, seed=0,
        )
        trainer.run(cfg)
        pools = Counter(o for o in forwards if o in {pool.index for pool in _POOLS})
        assert set(pools.values()) == {1} and len(pools) <= 4
