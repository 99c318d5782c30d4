"""Numeric primitive tests: softmax variants, entropy, gradient checker, file writes,
checkpoint arrays."""

import base64
import errno
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natforge import numkernel
from natforge.evaluator import init_shared, load_shared, shared_file
from natforge.gcnpolicy import (
    NATPP,
    PolicyOutput,
    init_params,
    load_policy,
    save_policy,
    total_entropy,
)
from natforge.numkernel import (
    atomic_write,
    bmsoftmax,
    checkpoint_array,
    checkpoint_text,
    cross_entropy_logits,
    glorot_uniform,
    grad_check,
    softmax,
)


class TestBmsoftmax:
    def test_equal_logits_two_set_bits(self):
        out = bmsoftmax(np.zeros(3), np.array([1, 0, 1]))
        assert np.allclose(out, [0.5, 0.0, 0.5])
        assert out[1] == 0.0

    def test_direct_evaluation(self):
        out = bmsoftmax(np.array([math.log(2.0), 0.0, 0.0]), np.array([1, 1, 0]))
        assert np.allclose(out, [2 / 3, 1 / 3, 0.0])

    def test_all_ones_reduces_to_softmax(self):
        # Bit for bit: the NAT policy is BMSoftmax under an all-ones mask, and
        # its checkpoints keep their bytes only if this holds exactly.
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.standard_normal(7) * 5
            assert np.array_equal(bmsoftmax(u, np.ones(7)), softmax(u))
        scale = np.exp(rng.uniform(np.log(1e-3), np.log(700.0), size=(2000, 1)))
        u = rng.standard_normal((2000, 3)) * scale
        assert np.array_equal(bmsoftmax(u, np.ones(u.shape, dtype=int)), softmax(u))

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(5)
        v = np.array([1, 1, 0, 1, 0])
        assert np.abs(bmsoftmax(u, v) - bmsoftmax(u + 123.4, v)).max() <= 1e-9

    def test_huge_logit_on_cleared_bit_safe(self):
        out = bmsoftmax(np.array([0.0, 1e9, 0.0]), np.array([1, 0, 1]))
        assert np.allclose(out, [0.5, 0.0, 0.5])

    def test_all_zero_mask_rejected(self):
        with pytest.raises(ValueError, match="at least one set bit"):
            bmsoftmax(np.zeros(3), np.zeros(3))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            bmsoftmax(np.zeros(3), np.ones(4))

    def test_batched_rows(self):
        u = np.zeros((2, 3))
        v = np.array([[1, 1, 1], [0, 1, 1]])
        out = bmsoftmax(u, v)
        assert np.allclose(out[0], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(out[1], [0.0, 0.5, 0.5])

    def test_property_valid_distribution(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 14))
            u = rng.standard_normal(n) * 10
            v = (rng.random(n) < 0.5).astype(int)
            if v.sum() == 0:
                v[int(rng.integers(n))] = 1
            out = bmsoftmax(u, v)
            assert abs(out.sum() - 1.0) <= 1e-9
            assert (out[v == 0] == 0.0).all()
            assert (out >= 0.0).all()

    def test_matches_two_where_formula_bit_for_bit(self):
        """One ``where(on, shifted, -inf)`` before ``exp`` gives the bytes of the
        formula that zeroed cleared bits after ``exp``, special logits included."""
        rng = np.random.default_rng(4)
        specials = np.array([np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0])
        for trial in range(400):
            shape = (int(rng.integers(1, 9)), int(rng.integers(1, 14)))
            u = rng.standard_normal(shape) * float(rng.choice([0.1, 1.0, 50.0]))
            if trial % 2:
                hit = rng.random(shape) < 0.2
                u[hit] = rng.choice(specials, size=int(hit.sum()))
            v = (rng.random(shape) < 0.6).astype(int)
            v[np.arange(shape[0]), rng.integers(shape[1], size=shape[0])] = 1
            with np.errstate(all="ignore"):
                on = v != 0
                shifted = u - np.where(on, u, -np.inf).max(axis=-1, keepdims=True)
                e = np.where(on, np.exp(np.where(on, shifted, 0.0)), 0.0)
                want = e / e.sum(axis=-1, keepdims=True)
                got = bmsoftmax(u, v)
            assert got.tobytes() == want.tobytes()

    def test_matches_embedded_subvector_softmax(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(6)
        v = np.array([1, 0, 1, 1, 0, 1])
        sub = softmax(u[v == 1])
        expected = np.zeros(6)
        expected[v == 1] = sub
        assert np.allclose(bmsoftmax(u, v), expected)


def entropy(p: np.ndarray) -> float:
    """Entropy of one distribution through the package's one entropy, ``total_entropy``."""
    return total_entropy(PolicyOutput(Z=p[None, :], masks=(p > 0)[None, :].astype(int)))


class TestEntropy:
    def test_uniform_three(self):
        assert entropy(np.full(3, 1 / 3)) == pytest.approx(math.log(3))

    def test_one_hot_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_zero_terms_drop(self):
        assert entropy(np.array([0.5, 0.0, 0.5])) == pytest.approx(math.log(2))

    def test_bounded_by_log_popcount(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 14))
            v = (rng.random(n) < 0.5).astype(int)
            if v.sum() == 0:
                v[0] = 1
            p = bmsoftmax(rng.standard_normal(n), v)
            assert entropy(p) <= math.log(v.sum()) + 1e-12


class TestGradCheck:
    def test_square_function(self):
        point = np.array([3.0])
        err = grad_check(lambda x: float(x[0] ** 2), np.array([6.0]), point)
        assert err < 1e-8

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(5)
        analytic = softmax(u) - np.eye(5)[2]  # d/du of -log softmax(u)[2]
        labels = np.array([2])
        _, grad = cross_entropy_logits(u[None, :], labels)
        assert np.array_equal(grad[0], analytic)
        err = grad_check(lambda x: cross_entropy_logits(x[None, :], labels)[0], analytic, u.copy())
        assert err < 1e-6

    def test_detects_wrong_gradient(self):
        point = np.array([3.0])
        err = grad_check(lambda x: float(x[0] ** 2), np.array([12.0]), point)
        assert err == pytest.approx(0.5, abs=1e-6)

    def test_non_finite_reported(self):
        with pytest.raises(FloatingPointError):
            grad_check(lambda x: float("nan"), np.array([1.0]), np.array([1.0]))


class TestCrossEntropy:
    def test_matches_manual_value(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        loss, _ = cross_entropy_logits(logits, labels)
        expected = -math.log(math.exp(1) / (math.exp(1) + 1))
        assert loss == pytest.approx(expected)

    def test_gradient_against_finite_differences(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((4, 5))
        labels = np.array([0, 3, 2, 4])
        _, grad = cross_entropy_logits(logits, labels)
        err = grad_check(
            lambda x: cross_entropy_logits(x.reshape(4, 5), labels)[0],
            grad.ravel(),
            logits.ravel().copy(),
        )
        assert err < 1e-6


class TestGlorot:
    def test_bounds_and_determinism(self):
        a = glorot_uniform(np.random.default_rng(7), 30, 70)
        b = glorot_uniform(np.random.default_rng(7), 30, 70)
        limit = math.sqrt(6.0 / 100)
        assert np.array_equal(a, b)
        assert np.abs(a).max() <= limit


class TestAtomicWrite:
    def test_replaces_target_and_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write([(path, "first\n")])
        atomic_write([(path, "second\n")])
        assert open(path).read() == "second\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_failed_rename_removes_temp_and_names_target(self, tmp_path):
        target = tmp_path / "adir"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            atomic_write([(str(target), "text\n")])
        assert info.value.filename == str(target)
        assert str(info.value) == f"[Errno 21] Is a directory: {str(target)!r}"
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]

    def test_failed_write_removes_temp(self, tmp_path):
        with pytest.raises(TypeError):
            atomic_write([(str(tmp_path / "out.txt"), b"not text")])
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_names_target(self, tmp_path):
        path = str(tmp_path / "missing" / "out.txt")
        with pytest.raises(FileNotFoundError) as info:
            atomic_write([(path, "text\n")])
        assert info.value.filename == path
        assert str(info.value) == f"[Errno 2] No such file or directory: {path!r}"
        assert list(tmp_path.iterdir()) == []

    def test_writes_every_file_of_the_unit(self, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        atomic_write([(str(path), path.name) for path in paths])
        assert [p.read_text() for p in paths] == ["a.txt", "b.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]

    def test_unit_that_raises_writes_nothing(self, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            path.write_text("old")
        with pytest.raises(TypeError):
            atomic_write([(str(paths[0]), "new"), (str(paths[1]), b"not text")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt"]
        assert [p.read_text() for p in paths] == ["old", "old"]
        atomic_write([(str(paths[1]), "new")])
        assert [p.read_text() for p in paths] == ["old", "new"]

    def test_directory_target_is_rejected_before_any_write(self, tmp_path):
        (tmp_path / "b").mkdir()
        target = str(tmp_path / "b")
        with pytest.raises(IsADirectoryError) as info:
            atomic_write([(str(tmp_path / "a.txt"), "a"), (target, "b")])
        assert info.value.filename == target
        assert str(info.value) == f"[Errno 21] Is a directory: {target!r}"
        assert [p.name for p in tmp_path.iterdir()] == ["b"]
        assert list((tmp_path / "b").iterdir()) == []

    def test_failed_later_write_removes_earlier_temp(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "missing" / "b.txt"
        with pytest.raises(FileNotFoundError) as info:
            atomic_write([(str(first), "a"), (str(second), "b")])
        assert info.value.filename == str(second)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_keeps_the_renames_before_it(self, tmp_path, monkeypatch):
        paths = [tmp_path / name for name in ("a.txt", "b.txt", "c.txt")]
        for path in paths:
            path.write_text("old")
        replace, calls = os.replace, []

        def replace_failing_second(src, dst):
            calls.append(dst)
            if len(calls) == 2:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, dst)
            replace(src, dst)

        monkeypatch.setattr(numkernel.os, "replace", replace_failing_second)
        with pytest.raises(PermissionError) as info:
            atomic_write([(str(path), "new") for path in paths])
        assert info.value.filename == str(paths[1])
        assert str(info.value) == f"[Errno 13] Permission denied: {str(paths[1])!r}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.txt", "c.txt"]
        assert [p.read_text() for p in paths] == ["new", "old", "old"]


#: Finite float64 values at the edges of the range, each a distinct bit pattern.
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]

finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def fill(arrays, values, rng):
    """Overwrite each array with ``values`` and ``EDGE_VALUES``, tiled and shuffled."""
    pool = np.array(values + EDGE_VALUES)
    for a in arrays:
        flat = np.resize(pool, a.size)
        rng.shuffle(flat)
        a[...] = flat.reshape(a.shape)


class TestCheckpointArrays:
    @settings(deadline=None, max_examples=40)
    @given(values=st.lists(finite_floats, max_size=40), seed=st.integers(0, 2**32 - 1))
    def test_both_checkpoints_round_trip_bit_exact(self, values, seed):
        rng = np.random.default_rng(seed)
        params = init_params(NATPP, rng)
        shared = init_shared(rng, 1)
        bank = [a for entry in shared.bank.values() for a in entry.values()]
        fill([*params.gcn, params.fc, shared.head_w, shared.head_b, *bank], values, rng)
        with tempfile.TemporaryDirectory() as tmp:
            save_policy(params, f"{tmp}/policy.json")
            atomic_write([shared_file(shared, 3, f"{tmp}/supernet.json")])
            loaded = load_policy(f"{tmp}/policy.json")
            loaded_shared, _ = load_shared(f"{tmp}/supernet.json")
        for a, b in zip([*params.gcn, params.fc], [*loaded.gcn, loaded.fc], strict=True):
            assert (a.shape, a.tobytes()) == (b.shape, b.tobytes())
        assert loaded_shared.head_w.tobytes() == shared.head_w.tobytes()
        assert loaded_shared.head_b.tobytes() == shared.head_b.tobytes()
        for key, entry in shared.bank.items():
            for name, a in entry.items():
                assert loaded_shared.bank[key][name].tobytes() == a.tobytes()

    def test_text_is_base64_of_little_endian_float64(self):
        a = np.array([[1.0, -0.0], [5e-324, 2.5]])
        text = checkpoint_text(a)
        assert text == base64.b64encode(a.astype("<f8").tobytes()).decode()
        assert "\n" not in text and len(text) % 4 == 0
        assert checkpoint_text(a.T) == checkpoint_text(np.ascontiguousarray(a.T))
        assert checkpoint_text(a.astype(">f8")) == text

    def test_read_array_is_native_writable_and_shaped(self):
        a = np.arange(6.0)
        read = checkpoint_array(checkpoint_text(a), (2, 3), "f")
        assert read.dtype == np.float64 and read.dtype.isnative
        assert read.flags.writeable and read.flags.c_contiguous
        assert np.array_equal(read, a.reshape(2, 3))
        read[0, 0] = 9.0

    @pytest.mark.parametrize(
        "value",
        [
            pytest.param([0.0] * 6, id="list"),
            pytest.param(1.5, id="number"),
            pytest.param(None, id="null"),
            pytest.param("!" + checkpoint_text(np.zeros(6)), id="non-alphabet"),
            pytest.param(checkpoint_text(np.zeros(6)) + "\n", id="line-break"),
            pytest.param(checkpoint_text(np.zeros(6)).replace("A", "\u00c5", 1), id="non-ascii"),
            pytest.param(checkpoint_text(np.zeros(6))[:-1], id="unpadded"),
            pytest.param(base64.b64encode(bytes(47)).decode(), id="47-bytes"),
            pytest.param(base64.b64encode(bytes(7)).decode(), id="7-bytes"),
        ],
    )
    def test_undecodable_value_names_field(self, value):
        with pytest.raises(ValueError) as info:
            checkpoint_array(value, (2, 3), "bank['0:conv_1x1'].mix")
        assert str(info.value) == "bank['0:conv_1x1'].mix: not base64 of float64 bytes"

    @pytest.mark.parametrize("size", [5, 7, 0])
    def test_wrong_value_count_names_field(self, size):
        with pytest.raises(ValueError) as info:
            checkpoint_array(checkpoint_text(np.zeros(size)), (2, 3), "head_w")
        assert str(info.value) == f"head_w: shape ({size},), expected (2, 3)"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_field(self, bad):
        values = np.zeros(6)
        values[4] = bad
        with pytest.raises(ValueError) as info:
            checkpoint_array(checkpoint_text(values), (6,), "fc_values")
        assert str(info.value) == "fc_values: contains NaN or infinity"
