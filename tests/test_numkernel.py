"""Numeric primitive tests: softmax variants, entropy, gradient checker, checkpoint arrays."""

import math

import numpy as np
import pytest

from natforge.numkernel import (
    bmsoftmax,
    cross_entropy_logits,
    entropy,
    glorot_uniform,
    grad_check,
    log_softmax,
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
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.standard_normal(7) * 5
            assert np.abs(bmsoftmax(u, np.ones(7)) - softmax(u)).max() <= 1e-12

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

    def test_matches_embedded_subvector_softmax(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(6)
        v = np.array([1, 0, 1, 1, 0, 1])
        sub = softmax(u[v == 1])
        expected = np.zeros(6)
        expected[v == 1] = sub
        assert np.allclose(bmsoftmax(u, v), expected)


class TestEntropy:
    def test_uniform_three(self):
        assert entropy(np.full(3, 1 / 3)) == pytest.approx(math.log(3))

    def test_one_hot_zero(self):
        assert entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_zero_terms_drop(self):
        assert entropy(np.array([0.5, 0.0, 0.5])) == pytest.approx(math.log(2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            entropy(np.array([1.1, -0.1]))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            entropy(np.array([0.5, 0.2]))

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

    def test_log_softmax_gradient(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(5)
        p = softmax(u)
        analytic = np.eye(5)[2] - p  # d/du of log_softmax(u)[2]
        err = grad_check(lambda x: float(log_softmax(x)[2]), analytic, u.copy())
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
