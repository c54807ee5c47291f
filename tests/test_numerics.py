"""Tensor ops, autodiff, AdamW, and the finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agadapt.errors import NumericError
from agadapt.numerics import (
    OptimizerState,
    Parameter,
    Tensor,
    adamw_step,
    attention_map,
    backward,
    causal_mask,
    cross_entropy,
    embedding,
    finite_diff_grad,
    gelu,
    layer_norm,
    no_grad,
    shift_rows,
    softmax_rows,
)

RNG = np.random.default_rng(1234)


def relerr(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return np.max(np.abs(a - b) / denom)


def gradcheck(build, x0, tol=1e-6, h=1e-5):
    """Analytic gradient of build(Parameter) vs central differences."""
    p = Parameter("p", np.array(x0, dtype=np.float64))
    ana = backward(build(p), [p])["p"]
    num = finite_diff_grad(lambda arr: build(Parameter("p", arr)).item(), x0, h=h)
    return relerr(ana, num)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_symmetry(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_shift_invariance_exact(self):
        a = softmax_rows(np.array([[5.0, 5.0]]))
        b = softmax_rows(np.array([[0.0, 0.0]]))
        assert np.array_equal(a.data, b.data)
        np.testing.assert_allclose(a.data, [[0.5, 0.5]])

    def test_two_logit_value(self):
        # frozen from exp(x)/sum(exp(x)) evaluated in extended precision
        out = softmax_rows(np.array([[1.0, 2.0]]))
        np.testing.assert_allclose(out.data, [[0.26894142137, 0.73105857863]],
                                   atol=1e-5)

    def test_masked_entries_exact_zero(self):
        out = softmax_rows(np.array([[0.3, -np.inf, 0.9]]))
        assert out.data[0, 1] == 0.0
        assert abs(out.data[0].sum() - 1.0) < 1e-12

    def test_fully_masked_row_errors(self):
        with pytest.raises(NumericError, match="degenerate attention row"):
            softmax_rows(np.array([[-np.inf, -np.inf]]))

    @given(arrays(np.float64, (4, 6), elements=st.floats(-50, 50)))
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one(self, m):
        out = softmax_rows(m).data
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_gradient(self):
        x0 = RNG.normal(size=(3, 5))
        c = Tensor(RNG.normal(size=(3, 5)))
        assert gradcheck(lambda p: (softmax_rows(p) * c).sum(), x0) < 1e-6


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

class TestCrossEntropy:
    def test_uniform(self):
        assert cross_entropy(np.zeros((1, 4)), [2]).item() == pytest.approx(math.log(4), abs=1e-12)

    def test_perfect_prediction_is_zero(self):
        # every other column at -inf leaves the target all the mass
        logits = np.full((3, 5), -np.inf)
        ids = np.array([1, 4, 0])
        logits[np.arange(3), ids] = 0.7
        assert cross_entropy(logits, ids).item() == 0.0

    def test_direct_summation_example(self):
        # rows put 0.5 and 0.25 on their targets: -(ln .5 + ln .25)
        logits = np.log(np.array([[0.5, 0.5], [0.25, 0.75]]))
        expected = -(math.log(0.5) + math.log(0.25))
        assert cross_entropy(logits, [0, 0]).item() == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.07944, abs=1e-5)

    def test_non_negative_random(self):
        for _ in range(50):
            logits = RNG.normal(size=(4, 7))
            assert cross_entropy(logits, RNG.integers(0, 7, 4)).item() >= 0.0

    def test_matches_log_of_softmax(self):
        logits = RNG.normal(size=(3, 4, 9)) * 4.0
        ids = RNG.integers(0, 9, (3, 4))
        probs = softmax_rows(logits).data
        expected = -np.log(np.take_along_axis(probs, ids[..., None], axis=-1)).sum()
        assert cross_entropy(logits, ids).item() == pytest.approx(expected, rel=1e-12)

    def test_rejects_out_of_range_ids(self):
        for ids in ([2], [-1], [0.0]):
            with pytest.raises(NumericError):
                cross_entropy(np.zeros((1, 2)), ids)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(NumericError):
            cross_entropy(np.zeros((2, 3)), [0, 1, 2])
        with pytest.raises(NumericError):
            cross_entropy(np.zeros((2, 3)), [0, 1], row_mask=[1.0, 1.0, 1.0])

    def test_row_mask(self):
        logits = np.log(np.array([[0.5, 0.5], [0.1, 0.9]]))
        masked = cross_entropy(logits, [0, 0], row_mask=np.array([1.0, 0.0]))
        assert masked.item() == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_gradient_through_softmax(self):
        # (B, N, M) rows as in training: row 0 is masked, and the shorter
        # sequence is padded with <blnk> (id 6) under mask 0; masked rows
        # must get exactly zero gradient
        x0 = RNG.normal(size=(2, 4, 8))
        ids = np.array([[0, 3, 1, 7], [2, 5, 6, 6]])
        mask = np.array([[0.0, 1.0, 1.0, 1.0], [0.0, 1.0, 0.0, 0.0]])
        build = lambda p: cross_entropy(p, ids, row_mask=mask) * 1.7
        assert gradcheck(build, x0) < 1e-6
        p = Parameter("p", x0)
        grad = backward(build(p), [p])["p"]
        assert np.all(grad[mask == 0.0] == 0.0)
        assert np.all(np.abs(grad.sum(axis=-1)) < 1e-12)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------

def reference_adamw(w, grads, lr, beta1, beta2, eps, wd):
    """Textbook decoupled-weight-decay recurrence, kept independent of the
    implementation under test."""
    m = 0.0
    v = 0.0
    for t, g in enumerate(grads, start=1):
        w = w * (1.0 - lr * wd)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        w = w - lr * mhat / (math.sqrt(vhat) + eps)
    return w


class TestAdamW:
    def test_zero_grad_no_decay_unchanged(self):
        p = Parameter("w", np.array([1.0, -2.0, 3.0]))
        state = OptimizerState(lr=0.1, weight_decay=0.0)
        before = p.data.copy()
        adamw_step(state, {"w": p}, {"w": np.zeros(3)})
        assert np.array_equal(p.data, before)
        assert state.step == 1

    def test_zero_grad_decay_scales(self):
        lr, wd = 0.05, 0.2
        p = Parameter("w", np.array([2.0, -4.0]))
        state = OptimizerState(lr=lr, weight_decay=wd)
        adamw_step(state, {"w": p}, {"w": np.zeros(2)})
        np.testing.assert_allclose(p.data, np.array([2.0, -4.0]) * (1 - lr * wd),
                                   rtol=0, atol=0)

    def test_matches_reference_recurrence(self):
        grads = [1.0, -0.3, 0.7, 0.2, -1.5]
        p = Parameter("w", np.array([1.0]))
        state = OptimizerState(lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                               weight_decay=0.0)
        for g in grads:
            adamw_step(state, {"w": p}, {"w": np.array([g])})
        expected = reference_adamw(1.0, grads, 1e-3, 0.9, 0.999, 1e-8, 0.0)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)

    def test_matches_reference_with_decay(self):
        grads = [0.5, 0.1, -0.9]
        p = Parameter("w", np.array([0.7]))
        state = OptimizerState(lr=2e-3, weight_decay=0.05)
        for g in grads:
            adamw_step(state, {"w": p}, {"w": np.array([g])})
        expected = reference_adamw(0.7, grads, 2e-3, 0.9, 0.999, 1e-8, 0.05)
        assert p.data[0] == pytest.approx(expected, rel=1e-12)

    def test_frozen_parameter_rejected_and_untouched(self):
        p = Parameter("theta", np.array([1.0]), trainable=False)
        before = p.data.copy()
        state = OptimizerState()
        with pytest.raises(NumericError):
            adamw_step(state, {"theta": p}, {"theta": np.array([1.0])})
        assert np.array_equal(p.data, before)

    def test_shape_mismatch_errors(self):
        p = Parameter("w", np.zeros(3))
        with pytest.raises(NumericError, match="shape"):
            adamw_step(OptimizerState(), {"w": p}, {"w": np.zeros(4)})

    def test_step_counter_increments(self):
        p = Parameter("w", np.zeros(2))
        state = OptimizerState()
        for expected in (1, 2, 3):
            adamw_step(state, {"w": p}, {"w": np.ones(2)})
            assert state.step == expected


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

class TestBackward:
    def test_sum_of_squares(self):
        w = Parameter("w", np.array([1.0, 2.0]))
        store = backward((w * w).sum(), [w])
        np.testing.assert_allclose(store["w"], [2.0, 4.0])

    def test_unreached_parameter_gets_zeros(self):
        w = Parameter("w", np.array([1.0, 2.0]))
        other = Parameter("other", np.array([5.0]))
        store = backward((w * w).sum(), [w, other])
        assert np.array_equal(store["other"], np.zeros(1))

    def test_non_scalar_loss_errors(self):
        w = Parameter("w", np.array([1.0, 2.0]))
        with pytest.raises(NumericError, match="scalar"):
            backward(w * w, [w])

    def test_deterministic(self):
        def run():
            w = Parameter("w", np.arange(6.0).reshape(2, 3))
            loss = (softmax_rows(w) * Tensor(np.arange(6.0).reshape(2, 3))).sum()
            return backward(loss, [w])["w"]

        assert np.array_equal(run(), run())

    def test_reused_node_accumulates(self):
        w = Parameter("w", np.array([3.0]))
        y = w * w  # two parent slots referencing w
        store = backward(y.sum(), [w])
        np.testing.assert_allclose(store["w"], [6.0])


# ---------------------------------------------------------------------------
# elementary op gradients vs the finite-difference oracle
# ---------------------------------------------------------------------------

class TestOpGradients:
    def test_gelu(self):
        assert gradcheck(lambda p: gelu(p).sum(), RNG.normal(size=(4, 3))) < 1e-6

    def test_layer_norm_all_inputs(self):
        x0 = RNG.normal(size=(3, 8))
        g0 = RNG.normal(size=8)
        b0 = RNG.normal(size=8)
        c = Tensor(RNG.normal(size=(3, 8)))
        assert gradcheck(lambda p: (layer_norm(p, Tensor(g0), Tensor(b0)) * c).sum(), x0) < 1e-6
        assert gradcheck(lambda p: (layer_norm(Tensor(x0), p, Tensor(b0)) * c).sum(), g0) < 1e-6
        assert gradcheck(lambda p: (layer_norm(Tensor(x0), Tensor(g0), p) * c).sum(), b0) < 1e-6

    def test_embedding(self):
        ids = np.array([0, 3, 3, 1])
        c = Tensor(RNG.normal(size=(4, 5)))
        assert gradcheck(lambda p: (embedding(p, ids) * c).sum(),
                         RNG.normal(size=(4, 5))) < 1e-6

    def test_matmul_batched(self):
        a0 = RNG.normal(size=(2, 3, 4))
        w = Tensor(RNG.normal(size=(4, 3)))
        c = Tensor(RNG.normal(size=(2, 3, 3)))
        assert gradcheck(lambda p: ((p @ w) * c).sum(), a0) < 1e-6

    def test_getitem_advanced(self):
        c = Tensor(RNG.normal(size=(3, 2)))
        assert gradcheck(lambda p: (p[:, [1, 1]] * c).sum(),
                         RNG.normal(size=(3, 4))) < 1e-6

    def test_shift_rows(self):
        c = Tensor(RNG.normal(size=(1, 4, 3)))
        assert gradcheck(lambda p: (shift_rows(p.reshape(1, 4, 3), axis=1) * c).sum(),
                         RNG.normal(size=(4, 3))) < 1e-6

    def test_attention_map_both_inputs(self):
        q0 = RNG.normal(size=(4, 3))
        k0 = RNG.normal(size=(4, 3))
        c = Tensor(RNG.normal(size=(4, 4)))
        assert gradcheck(lambda p: (attention_map(p, Tensor(k0)) * c).sum(), q0, h=1e-4) < 1e-5
        assert gradcheck(lambda p: (attention_map(Tensor(q0), p) * c).sum(), k0, h=1e-4) < 1e-5

    def test_attention_map_causal_offset(self):
        # two queries at positions 3 and 4 over five keys
        q0 = RNG.normal(size=(2, 3))
        k0 = RNG.normal(size=(5, 3))
        c = Tensor(RNG.normal(size=(2, 5)))
        assert gradcheck(lambda p: (attention_map(p, Tensor(k0)) * c).sum(), q0, h=1e-4) < 1e-5
        assert gradcheck(lambda p: (attention_map(Tensor(q0), p) * c).sum(), k0, h=1e-4) < 1e-5


class TestCausalMask:
    def test_offset_zero_is_square_mask_bitwise(self):
        for n in range(1, 8):
            square = np.triu(np.full((n, n), -np.inf), k=1)
            assert np.array_equal(causal_mask(n), square)
            assert np.array_equal(causal_mask(n, 0), square)

    def test_offset_mask_layout(self):
        m = causal_mask(2, 3)
        assert m.shape == (2, 5)
        for i in range(2):
            for j in range(5):
                assert m[i, j] == (0.0 if j <= 3 + i else -np.inf)

    def test_query_block_matches_square_map_rows(self):
        q = RNG.normal(size=(2, 6, 4))
        k = RNG.normal(size=(2, 6, 4))
        full = attention_map(Tensor(q), Tensor(k)).data
        for start in range(6):
            block = attention_map(Tensor(q[:, start:]), Tensor(k)).data
            np.testing.assert_allclose(block, full[:, start:], rtol=0.0, atol=1e-15)

    def test_more_queries_than_keys_errors(self):
        with pytest.raises(NumericError):
            attention_map(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2))))


# ---------------------------------------------------------------------------
# finite differences and misc
# ---------------------------------------------------------------------------

class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-4)
        assert g[0] == pytest.approx(6.0, abs=1e-7)

    def test_constant(self):
        g = finite_diff_grad(lambda x: 7.5, np.array([1.0, -2.0]), h=1e-4)
        assert np.array_equal(g, np.zeros(2))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda x: 0.0, np.zeros(1), h=0.0)


class TestTensorBasics:
    def test_float64_row_major(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]
        assert t.data.size == 4

    def test_attention_map_zero_dim_errors(self):
        with pytest.raises(NumericError):
            attention_map(Tensor(np.zeros((2, 0))), Tensor(np.zeros((2, 0))))

    def test_no_grad_blocks_recording(self):
        w = Parameter("w", np.ones(3))
        with no_grad():
            y = (w * w).sum()
        assert y._grad_fn is None and not y.requires_grad
