"""Tensor ops, autodiff, AdamW, and the finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agadapt.errors import NumericError
from agadapt.numerics import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    OptimizerState,
    Parameter,
    Tensor,
    adamw_step,
    attention_map,
    backward,
    causal_mask,
    column_squared_error,
    cross_entropy,
    embedding,
    finite_diff_grad,
    gelu,
    layer_norm,
    linear,
    recording,
)
from scipy.special import erf

RNG = np.random.default_rng(1234)


def relerr(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return np.max(np.abs(a - b) / denom)


def gradcheck(build, x0, tol=1e-6, h=1e-5):
    """Analytic gradient of build(Parameter) vs central differences."""
    p = Parameter("p", np.array(x0, dtype=np.float64))
    with recording([p]):
        ana = backward(build(p), [p])["p"]
    num = finite_diff_grad(lambda arr: build(Parameter("p", arr)).item(), x0, h=h)
    return relerr(ana, num)


# ---------------------------------------------------------------------------
# softmax: the row softmax of attention_map, the package's only softmax
# ---------------------------------------------------------------------------

def row_softmax(scores, mask=None):
    """Row softmax of (n, m) `scores` through `attention_map`: keys sqrt(m) I
    make q k^T / sqrt(m) equal to the scores, up to rounding when m is not
    a perfect square. `mask` is an additive (-inf) mask on the scores."""
    scores = scores if isinstance(scores, Tensor) else Tensor(np.asarray(scores, dtype=float))
    m = scores.shape[-1]
    keys = Tensor(math.sqrt(m) * np.eye(m))
    return attention_map(scores, keys, causal=False, extra_mask=mask)


class TestSoftmax:
    def test_symmetry(self):
        out = row_softmax([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_shift_invariance_exact(self):
        a = row_softmax([[5.0, 5.0, 5.0, 5.0]])
        b = row_softmax([[0.0, 0.0, 0.0, 0.0]])
        assert np.array_equal(a.data, b.data)
        np.testing.assert_allclose(a.data, [[0.25, 0.25, 0.25, 0.25]])

    def test_two_logit_value(self):
        # frozen from exp(x)/sum(exp(x)) evaluated in extended precision
        out = row_softmax([[1.0, 2.0]])
        np.testing.assert_allclose(out.data, [[0.26894142137, 0.73105857863]],
                                   atol=1e-5)

    def test_masked_entries_exact_zero(self):
        out = row_softmax([[0.3, 0.0, 0.9, -0.2]], mask=np.array([0.0, -np.inf, 0.0, -np.inf]))
        assert out.data[0, 1] == 0.0 and out.data[0, 3] == 0.0
        assert abs(out.data[0].sum() - 1.0) < 1e-12

    def test_fully_masked_row_errors(self):
        with pytest.raises(NumericError, match="degenerate attention row"):
            row_softmax([[0.5, 0.1], [0.2, 0.3]],
                        mask=np.array([[0.0, 0.0], [-np.inf, -np.inf]]))

    def test_non_finite_output_errors(self):
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match="non-finite attention map"):
            row_softmax([[np.inf, 0.0]])

    @given(arrays(np.float64, (4, 6), elements=st.floats(-50, 50)))
    @settings(max_examples=200, deadline=None)
    def test_rows_sum_to_one(self, m):
        out = row_softmax(m).data
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12)
        assert np.all((out >= 0.0) & (out <= 1.0))

    def test_gradient(self):
        x0 = RNG.normal(size=(3, 5))
        c = Tensor(RNG.normal(size=(3, 5)))
        assert gradcheck(lambda p: (row_softmax(p) * c).sum(), x0) < 1e-6

    def test_gradient_masked_entries_get_none(self):
        # masked scores get exactly zero gradient, here through the queries
        mask = np.array([[0.0, -np.inf, 0.0, 0.0], [0.0, 0.0, 0.0, -np.inf]])
        c = Tensor(RNG.normal(size=(2, 4)))
        build = lambda p: (row_softmax(p, mask) * c).sum()
        x0 = RNG.normal(size=(2, 4))
        assert gradcheck(build, x0) < 1e-6
        p = Parameter("p", x0)
        with recording([p]):
            grad = backward(build(p), [p])["p"]
        assert grad[0, 1] == 0.0 and grad[1, 3] == 0.0


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
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
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
        with recording([p]):
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


def adamw_oracle(state, params, grads):
    """The allocating AdamW update that `adamw_step` replaced; the in-place
    version must reproduce it bit for bit."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for name in sorted(grads):
        p, g = params[name], grads[name]
        m = state.m.get(name, np.zeros_like(p.data))
        v = state.v.get(name, np.zeros_like(p.data))
        if state.weight_decay != 0.0:
            p.data *= (1.0 - state.lr * state.weight_decay)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
        state.m[name], state.v[name] = m, v
        p.data -= state.lr * ((m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS))


class TestAdamW:
    @pytest.mark.parametrize("wd", [0.0, 0.01])
    def test_twenty_steps_bit_identical_to_oracle(self, wd):
        rng = np.random.default_rng(5)
        shapes = {"w": (6, 4), "b": (4,), "t": (2, 3, 5)}
        init = {n: rng.normal(size=s) for n, s in shapes.items()}
        runs = []
        for step_fn in (adamw_step, adamw_oracle):
            params = {n: Parameter(n, a.copy()) for n, a in init.items()}
            state = OptimizerState(lr=3e-3, weight_decay=wd)
            grad_rng = np.random.default_rng(9)
            for _ in range(20):
                grads = {n: grad_rng.normal(size=s) * 10.0 ** grad_rng.uniform(-6, 2)
                         for n, s in shapes.items()}
                step_fn(state, params, grads)
            runs.append((params, state))
        (new, s_new), (old, s_old) = runs
        for n in shapes:
            assert np.array_equal(new[n].data, old[n].data)
            assert np.array_equal(s_new.m[n], s_old.m[n])
            assert np.array_equal(s_new.v[n], s_old.v[n])

    def test_non_finite_update_errors(self):
        # the bad gradient is on "b", the second parameter in update order; the
        # raise must leave both parameters, every moment and the step as they
        # were, on the first step and on a later one
        good = {"a": np.array([0.5, -0.2]), "b": np.array([0.1, 0.3])}
        bad = {"a": good["a"], "b": np.array([np.inf, 0.0])}
        for warm_steps in (0, 2):
            params = {"a": Parameter("a", np.array([1.0, 2.0])),
                      "b": Parameter("b", np.array([3.0, -1.0]))}
            state = OptimizerState(weight_decay=0.01)
            for _ in range(warm_steps):
                adamw_step(state, params, good)
            data = {n: p.data.copy() for n, p in params.items()}
            m = {n: a.copy() for n, a in state.m.items()}
            v = {n: a.copy() for n, a in state.v.items()}
            step = state.step
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NumericError, match="non-finite.*'b'"):
                adamw_step(state, params, bad)
            for n, p in params.items():
                assert np.array_equal(p.data, data[n]), n
            assert state.m.keys() == m.keys() and state.v.keys() == v.keys()
            for n in m:
                assert np.array_equal(state.m[n], m[n]), n
                assert np.array_equal(state.v[n], v[n]), n
            assert state.step == step

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
        state = OptimizerState(lr=1e-3, weight_decay=0.0)
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
        with recording([w]):
            store = backward((w * w).sum(), [w])
        np.testing.assert_allclose(store["w"], [2.0, 4.0])

    def test_unreached_parameter_gets_zeros(self):
        w = Parameter("w", np.array([1.0, 2.0]))
        other = Parameter("other", np.array([5.0]))
        with recording([w, other]):
            store = backward((w * w).sum(), [w, other])
        assert np.array_equal(store["other"], np.zeros(1))

    def test_non_scalar_loss_errors(self):
        w = Parameter("w", np.array([1.0, 2.0]))
        with recording([w]), pytest.raises(NumericError, match="scalar"):
            backward(w * w, [w])

    def test_deterministic(self):
        def run():
            w = Parameter("w", np.arange(6.0).reshape(2, 3))
            with recording([w]):
                loss = (row_softmax(w) * Tensor(np.arange(6.0).reshape(2, 3))).sum()
                return backward(loss, [w])["w"]

        assert np.array_equal(run(), run())

    def test_reused_node_accumulates(self):
        w = Parameter("w", np.array([3.0]))
        with recording([w]):
            y = w * w  # two parent slots referencing w
            store = backward(y.sum(), [w])
        np.testing.assert_allclose(store["w"], [6.0])

    def test_sweep_releases_interior_nodes_and_keeps_leaf_grads(self):
        w = Parameter("w", RNG.normal(size=(4, 3)))
        b = Parameter("b", RNG.normal(size=3))
        x = Tensor(RNG.normal(size=(2, 5, 4)), requires_grad=True)  # a plain leaf
        with recording([w, b]):
            h = linear(x, w, b)
            a = gelu(h)
            y = layer_norm(a + h, Tensor(np.ones(3)), Tensor(np.zeros(3)))
            loss = cross_entropy(y, np.array([[0, 1, 2, 0, 1], [2, 2, 1, 0, 0]]))
            interior = [h, a, y, loss]
            assert all(t._grad_fn is not None and t._parents for t in interior)
            store = backward(loss, [w, b])
        for t in interior:
            assert t.grad is None and t._grad_fn is None and t._parents is None
        assert x.grad is not None and x.grad.shape == x.shape
        assert w.grad is store["w"] and b.grad is store["b"]
        assert np.isfinite(loss.item())  # a consumed node keeps its value

    def test_second_backward_over_consumed_graph_raises(self):
        w = Parameter("w", np.array([1.0, 2.0]))
        with recording([w]):
            y = w * w
            loss = y.sum()
            backward(loss, [w])
            with pytest.raises(NumericError, match="consumed"):
                loss.backward()
            with pytest.raises(NumericError, match="consumed"):
                backward((y * 2.0).sum(), [w])  # a new loss over a consumed node

    def test_loss_that_recorded_no_node_raises(self):
        w = Parameter("w", np.array([1.0, 2.0]))
        loss = (w * w).sum()  # outside recording
        with pytest.raises(NumericError, match="recorded no node"):
            backward(loss, [w])
        assert w.grad is None


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

    def test_gelu_matches_unfused_formula_bitwise(self):
        x = RNG.normal(size=(5, 7)) * 3.0
        g = RNG.normal(size=(5, 7))
        p = Parameter("p", x)
        with recording([p]):
            out = gelu(p)
        cdf = 0.5 * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
        assert np.array_equal(out.data, x * cdf)
        pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
        (grad,) = out._grad_fn(g)
        assert np.array_equal(grad, g * (cdf + x * pdf))

    def test_layer_norm_matches_unfused_formula_bitwise(self):
        x = RNG.normal(size=(3, 5, 16)) * 3.0 + 1.0
        gain, bias = RNG.normal(size=16), RNG.normal(size=16)
        g = RNG.normal(size=(3, 5, 16))
        params = [Parameter("x", x.copy()), Parameter("gain", gain), Parameter("bias", bias)]
        with recording(params):
            out = layer_norm(*params)
            dx, dgain, dbias = out._grad_fn(g)
        # the formula with one fresh array per step, as a reference
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        xhat = xc * inv
        assert np.array_equal(out.data, xhat * gain + bias)
        assert np.array_equal(params[0].data, x)
        dxhat = g * gain
        want_dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                         - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        assert np.array_equal(dx, want_dx)
        assert np.array_equal(dgain, (g * xhat).sum(axis=(0, 1)))
        assert np.array_equal(dbias, g.sum(axis=(0, 1)))

    def test_embedding(self):
        ids = np.array([0, 3, 3, 1])
        c = Tensor(RNG.normal(size=(4, 5)))
        assert gradcheck(lambda p: (embedding(p, ids) * c).sum(),
                         RNG.normal(size=(4, 5))) < 1e-6

    def test_embedding_repeated_ids_batch(self):
        # (B, N) ids as in the decoder, with an id repeated within and across rows
        ids = np.array([[0, 2, 2, 5], [2, 1, 5, 5]])
        c = Tensor(RNG.normal(size=(2, 4, 3)))
        assert gradcheck(lambda p: (embedding(p, ids) * c).sum(),
                         RNG.normal(size=(6, 3))) < 1e-6

    def test_embedding_grad_sums_like_add_at_bitwise(self):
        ids = RNG.integers(0, 9, (7, 11))
        g = RNG.normal(size=(7, 11, 5)) * 10.0 ** RNG.uniform(-6, 6, (7, 11, 1))
        w = Parameter("w", RNG.normal(size=(9, 5)))
        with recording([w]):
            (grad,) = embedding(w, ids)._grad_fn(g)
        expected = np.zeros((9, 5))
        np.add.at(expected, ids, g)
        assert np.array_equal(grad, expected)

    def test_getitem_basic(self):
        # ints and slices, as the guidance path's maps[i, head, :n, :n]
        c = Tensor(RNG.normal(size=(3, 3)))
        assert gradcheck(lambda p: (p[1, 0, :3, 1:] * c).sum(),
                         RNG.normal(size=(2, 2, 4, 4))) < 1e-6
        c = Tensor(RNG.normal(size=(4, 1)))
        assert gradcheck(lambda p: (p[..., None, 2] * c).sum(),
                         RNG.normal(size=(4, 3))) < 1e-6

    def test_column_squared_error_duplicate_pick_and_masked_rows(self):
        # (B, H, N, M) = (2, 2, 4, 5); pick (0, 1) twice, columns (1, 3)
        other = Tensor(RNG.normal(size=(2, 2, 4, 5)))
        picks = [(0, 1), (1, 0), (0, 1)]
        goal = RNG.normal(size=(2, 4, 2))
        mask = np.array([[True, True, True, False], [True, False, False, False]])

        def build(p):
            return column_squared_error([p, other], picks, (1, 3), goal, mask)

        x0 = RNG.normal(size=(2, 2, 4, 5))
        assert gradcheck(build, x0) < 1e-6
        p = Parameter("p", x0)
        with recording([p]):
            grad = backward(build(p), [p])["p"]
        keep = np.zeros(x0.shape, dtype=bool)
        keep[:, 1, :, [1, 3]] = True
        keep &= mask[:, None, :, None]
        assert np.all(grad[~keep] == 0.0)
        a = x0[:, 1][..., [1, 3]]
        b = other.data[:, 0][..., [1, 3]]
        m = mask[..., None]
        want = 2.0 * np.sum(((a - goal) * m) ** 2) + np.sum(((b - goal) * m) ** 2)
        assert build(p).item() == pytest.approx(want, rel=1e-12)

    def test_matmul_batched(self):
        a0 = RNG.normal(size=(2, 3, 4))
        w = Tensor(RNG.normal(size=(4, 3)))
        c = Tensor(RNG.normal(size=(2, 3, 3)))
        assert gradcheck(lambda p: ((p @ w) * c).sum(), a0) < 1e-6

    def test_getitem_advanced(self):
        c = Tensor(RNG.normal(size=(3, 2)))
        assert gradcheck(lambda p: (p[:, [1, 1]] * c).sum(),
                         RNG.normal(size=(3, 4))) < 1e-6

    def test_getitem_repeated_index_accumulates(self):
        p = Parameter("p", np.arange(4.0))
        with recording([p]):
            store = backward(p[np.array([2, 2, 0])].sum(), [p])
        assert np.array_equal(store["p"], [1.0, 0.0, 2.0, 0.0])

    def test_attention_map_both_inputs(self):
        q0 = RNG.normal(size=(4, 3))
        k0 = RNG.normal(size=(4, 3))
        c = Tensor(RNG.normal(size=(4, 4)))
        assert gradcheck(lambda p: (attention_map(p, Tensor(k0)) * c).sum(), q0, h=1e-4) < 1e-5
        assert gradcheck(lambda p: (attention_map(Tensor(q0), p) * c).sum(), k0, h=1e-4) < 1e-5

    def test_attention_map_padded_columns(self):
        # (B, H, n, d) stacks over keys whose last columns are padding
        q0 = RNG.normal(size=(2, 2, 3, 4))
        k0 = RNG.normal(size=(2, 2, 5, 4))
        pad = np.zeros((2, 1, 1, 5))
        pad[0, ..., 4:] = -np.inf
        pad[1, ..., 2:] = -np.inf
        c = Tensor(RNG.normal(size=(2, 2, 3, 5)))
        build_q = lambda p: (attention_map(p, Tensor(k0), causal=False, extra_mask=pad) * c).sum()
        build_k = lambda p: (attention_map(Tensor(q0), p, causal=False, extra_mask=pad) * c).sum()
        assert gradcheck(build_q, q0, h=1e-4) < 1e-5
        assert gradcheck(build_k, k0, h=1e-4) < 1e-5
        k = Parameter("k", k0)
        with recording([k]):
            assert np.all(backward(build_k(k), [k])["k"][1, :, 2:] == 0.0)

    def test_attention_map_per_head_prior(self):
        # causal self-attention with an additive prior on head 1's column 1,
        # shaped (B, H, 1, N) like the decoder's LID prior
        q0 = RNG.normal(size=(1, 2, 4, 3))
        k0 = RNG.normal(size=(1, 2, 4, 3))
        prior = np.zeros((1, 2, 1, 4))
        prior[0, 1, 0, 1] = 3.0
        c = Tensor(RNG.normal(size=(1, 2, 4, 4)))
        build_q = lambda p: (attention_map(p, Tensor(k0), extra_mask=prior) * c).sum()
        build_k = lambda p: (attention_map(Tensor(q0), p, extra_mask=prior) * c).sum()
        assert gradcheck(build_q, q0, h=1e-4) < 1e-5
        assert gradcheck(build_k, k0, h=1e-4) < 1e-5

    def test_attention_map_matches_unfused_chain_bitwise(self):
        q = RNG.normal(size=(2, 3, 5, 4))
        k = RNG.normal(size=(2, 3, 6, 4))
        extra = np.zeros((2, 1, 1, 6))
        extra[1, ..., 5] = -np.inf
        scores = (q @ np.swapaxes(k, -1, -2)) * (1.0 / math.sqrt(4)) + causal_mask(5, 1) + extra
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        expected = e / e.sum(axis=-1, keepdims=True)
        out = attention_map(Tensor(q), Tensor(k), extra_mask=extra)
        assert np.array_equal(out.data, expected)

    def test_attention_map_causal_offset(self):
        # two queries at positions 3 and 4 over five keys
        q0 = RNG.normal(size=(2, 3))
        k0 = RNG.normal(size=(5, 3))
        c = Tensor(RNG.normal(size=(2, 5)))
        assert gradcheck(lambda p: (attention_map(p, Tensor(k0)) * c).sum(), q0, h=1e-4) < 1e-5
        assert gradcheck(lambda p: (attention_map(Tensor(q0), p) * c).sum(), k0, h=1e-4) < 1e-5


class TestLinear:
    def test_forward_bitwise_equals_matmul_plus_bias(self):
        x = RNG.normal(size=(3, 4, 5))
        w = RNG.normal(size=(5, 6))
        b = RNG.normal(size=6)
        assert np.array_equal(linear(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b)

    def test_gradients_all_inputs_3d(self):
        x0 = RNG.normal(size=(2, 3, 4))
        w0 = RNG.normal(size=(4, 5))
        b0 = RNG.normal(size=5)
        c = Tensor(RNG.normal(size=(2, 3, 5)))
        assert gradcheck(lambda p: (linear(p, Tensor(w0), Tensor(b0)) * c).sum(), x0) < 1e-6
        assert gradcheck(lambda p: (linear(Tensor(x0), p, Tensor(b0)) * c).sum(), w0) < 1e-6
        assert gradcheck(lambda p: (linear(Tensor(x0), Tensor(w0), p) * c).sum(), b0) < 1e-6

    def test_input_without_grad_gets_none(self):
        x = Tensor(RNG.normal(size=(2, 3, 4)))
        w = Parameter("w", RNG.normal(size=(4, 2)))
        b = Parameter("b", np.zeros(2))
        with recording([w]):
            out = linear(x, w, b)
            gx, gw, gb = out._grad_fn(np.ones((2, 3, 2)))
            assert gx is None and gb is None and gw.shape == (4, 2)
            backward(out.sum(), [w, b])
        assert x.grad is None and b.grad is None


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

    def test_parameters_record_only_inside_recording(self):
        w = Parameter("w", np.ones(3))
        y = (w * w).sum()
        assert y._grad_fn is None and not y.requires_grad
        with recording([w]):
            y = (w * w).sum()
        assert y._grad_fn is not None and y.requires_grad
        assert not w.requires_grad
        with pytest.raises(RuntimeError), recording([w]):
            assert w.requires_grad
            raise RuntimeError("step failed")
        assert not w.requires_grad and not (w * w).requires_grad
