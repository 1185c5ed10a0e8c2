import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumppipe import nncore, tcn
from jumppipe.dataio import ImuSession
from jumppipe.nncore import (AdamState, ConvKernel, DimensionError, adam_step,
                             conv1d_backward, conv1d_dilated,
                             cross_entropy_loss, relu, relu_backward,
                             softmax_backward, softmax_rows, tmse_loss)


def naive_conv(x, kernel):
    """O(T*k) reference convolution for the oracle checks."""
    T, _ = x.shape
    k, d = kernel.kernel_size, kernel.dilation
    half = (k - 1) // 2
    out = np.tile(kernel.bias, (T, 1))
    for t in range(T):
        for i in range(k):
            src = t + (i - half) * d
            if 0 <= src < T:
                out[t] += x[src] @ kernel.weights[i]
    return out


class TestConv1d:
    def test_identity_kernel(self):
        kernel = ConvKernel(weights=np.eye(3)[None], bias=np.zeros(3), dilation=1)
        x = np.random.default_rng(0).normal(size=(7, 3))
        np.testing.assert_allclose(conv1d_dilated(x, kernel), x)

    def test_zero_input_gives_bias(self):
        kernel = ConvKernel(weights=np.ones((3, 2, 4)), bias=np.array([1., 2., 3., 4.]),
                            dilation=2)
        out = conv1d_dilated(np.zeros((5, 2)), kernel)
        np.testing.assert_allclose(out, np.tile([1., 2., 3., 4.], (5, 1)))

    def test_hand_example_dilation2(self):
        x = np.array([[1.], [2.], [3.], [4.], [5.]])
        kernel = ConvKernel(weights=np.ones((3, 1, 1)), bias=np.zeros(1), dilation=2)
        out = conv1d_dilated(x, kernel)
        # taps at t-2, t, t+2 with zero padding; frozen from the naive oracle
        np.testing.assert_allclose(out[:, 0], [4., 6., 9., 6., 8.])
        np.testing.assert_allclose(out, naive_conv(x, kernel))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.choice([1, 3, 5])
        d = int(rng.integers(1, 5))
        kernel = ConvKernel(weights=rng.normal(size=(k, 3, 2)),
                            bias=rng.normal(size=2), dilation=d)
        x = rng.normal(size=(int(rng.integers(1, 30)), 3))
        np.testing.assert_allclose(conv1d_dilated(x, kernel),
                                   naive_conv(x, kernel), atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        kernel = ConvKernel(weights=rng.normal(size=(3, 2, 3)),
                            bias=np.zeros(3), dilation=2)
        x, y = rng.normal(size=(10, 2)), rng.normal(size=(10, 2))
        lhs = conv1d_dilated(2.5 * x - 0.5 * y, kernel)
        rhs = 2.5 * conv1d_dilated(x, kernel) - 0.5 * conv1d_dilated(y, kernel)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_channel_mismatch(self):
        kernel = ConvKernel(weights=np.ones((3, 2, 1)), bias=np.zeros(1),
                            dilation=1)
        with pytest.raises(DimensionError):
            conv1d_dilated(np.zeros((4, 3)), kernel)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            ConvKernel(weights=np.ones((2, 1, 1)), bias=np.zeros(1), dilation=1)


def padded_conv(x, kernel):
    """The zero-padded form of the convolution: one padded copy of x, and
    each tap a product of T of its rows."""
    k, d, T = kernel.kernel_size, kernel.dilation, x.shape[0]
    pad = (k - 1) // 2 * d
    xp = np.pad(x, ((pad, pad), (0, 0)))
    out = np.tile(kernel.bias, (T, 1))
    for i in range(k):
        out += xp[i * d : i * d + T] @ kernel.weights[i]
    return out


class TestPadFreeForward:
    """conv1d_dilated adds each tap into offset rows instead of padding x; it
    must equal the padded form byte for byte, also where a tap reaches one
    row or none."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_short_inputs_every_dilation(self, k):
        rng = np.random.default_rng(k)
        for d in range(1, 65):
            kernel = ConvKernel(rng.normal(size=(k, 6, 16)),
                                rng.normal(size=16), d)
            for T in sorted({1, 2, 3, d - 1, d, d + 1, 2 * d + 1} - {0}):
                x = rng.normal(size=(T, 6))
                assert conv1d_dilated(x, kernel).tobytes() == \
                    padded_conv(x, kernel).tobytes(), (k, d, T)

    @pytest.mark.parametrize("layout", ["C", "F", "reversed"])
    def test_long_input_any_layout(self, layout):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1000, 16))
        x = {"C": x, "F": np.asfortranarray(x), "reversed": x[::-1]}[layout]
        for d in (1, 8, 64):
            kernel = ConvKernel(rng.normal(size=(3, 16, 16)),
                                rng.normal(size=16), d)
            assert conv1d_dilated(x, kernel).tobytes() == \
                padded_conv(x, kernel).tobytes()

    @pytest.mark.parametrize("T", [1, 2, 150])
    def test_predict_short_sessions(self, T, monkeypatch):
        # 7 layers reach dilation 64, so taps reach one row or none
        weights = tcn.build_mstcn(tcn.MsTcnConfig(
            num_stages=2, stage=tcn.SsTcnConfig(num_layers=7, num_filters=8)))
        session = ImuSession("s", np.random.default_rng(T).normal(size=(T, 6)))
        probs, labels = tcn.predict(weights, session)
        monkeypatch.setattr(nncore, "conv1d_dilated", padded_conv)
        ref_probs, ref_labels = tcn.predict(weights, session)
        assert probs.shape == (T, weights.config.stage.num_classes)
        assert probs.tobytes() == ref_probs.tobytes()
        assert labels.tobytes() == ref_labels.tobytes()


class TestRelu:
    def test_basic(self):
        np.testing.assert_allclose(relu(np.array([[-1., 0., 2.]])), [[0., 0., 2.]])

    def test_identity_region(self):
        x = np.abs(np.random.default_rng(0).normal(size=(4, 3)))
        np.testing.assert_allclose(relu(x), x)

    def test_gradient_mask(self):
        x = np.array([[-1., 2., 0.]])
        g = np.array([[5., 5., 5.]])
        np.testing.assert_allclose(relu_backward(x, g), [[0., 5., 0.]])

    def test_masked_entries_are_positive_zero(self):
        # as np.where gives them, also under a negative gradient
        x = np.array([[-1., 2., 0., -3.]])
        g = np.array([[-5., -5., -5., 7.]])
        out = relu_backward(x, g)
        assert out.tobytes() == np.array([[0., -5., 0., 0.]]).tobytes()


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0., 0.]])), [[0.5, 0.5]])

    def test_constant_row(self):
        out = softmax_rows(np.full((1, 4), -17.3))
        np.testing.assert_allclose(out, [[0.25] * 4])

    def test_log_ratio(self):
        out = softmax_rows(np.log(np.array([[1., 3.]])))
        np.testing.assert_allclose(out, [[0.25, 0.75]])

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4),
                    min_size=2, max_size=8))
    @settings(max_examples=50)
    def test_rows_sum_to_one(self, row):
        out = softmax_rows(np.array([row]))
        assert abs(out.sum() - 1.0) < 1e-9
        assert (out >= 0).all()


class TestLosses:
    def test_ce_perfect(self):
        probs = np.array([[1., 0.], [0., 1.]])
        assert cross_entropy_loss(probs, [0, 1])[0] == 0.0

    def test_ce_uniform(self):
        probs = np.full((3, 8), 1 / 8)
        assert (cross_entropy_loss(probs, [0, 3, 7])[0]
                == pytest.approx(math.log(8)))

    def test_ce_hand_example(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        expected = (-math.log(0.5) - math.log(0.75)) / 2
        assert cross_entropy_loss(probs, [0, 1])[0] == pytest.approx(expected)

    def test_ce_length_mismatch(self):
        with pytest.raises(DimensionError):
            cross_entropy_loss(np.full((3, 2), 0.5), [0, 1])

    def test_tmse_constant(self):
        probs = np.tile([0.3, 0.7], (5, 1))
        assert tmse_loss(probs)[0] == 0.0

    def test_tmse_degenerate_single_class(self):
        assert tmse_loss(np.ones((4, 1)))[0] == 0.0

    def test_tmse_short_sequence(self):
        assert tmse_loss(np.array([[0.4, 0.6]]))[0] == 0.0

    def test_tmse_hand_example(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]])
        expected = (math.log(1.8) ** 2 + math.log(5) ** 2) / 2
        assert tmse_loss(probs)[0] == pytest.approx(expected)

    def test_tmse_column_permutation_invariance(self):
        rng = np.random.default_rng(2)
        probs = softmax_rows(rng.normal(size=(6, 4)))
        perm = [2, 0, 3, 1]
        assert (tmse_loss(probs)[0]
                == pytest.approx(tmse_loss(probs[:, perm])[0]))

    @pytest.mark.parametrize("seed", range(5))
    def test_losses_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        probs = softmax_rows(rng.normal(size=(10, 4)))
        labels = rng.integers(0, 4, size=10)
        assert cross_entropy_loss(probs, labels)[0] >= 0
        assert tmse_loss(probs)[0] >= 0


def finite_diff(fn, arr, eps=1e-5):
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn()
        flat[i] = orig - eps
        minus = fn()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2 * eps)
    return grad


class TestGradients:
    @pytest.mark.parametrize("seed", range(3))
    def test_conv_grads_match_finite_difference(self, seed):
        rng = np.random.default_rng(seed)
        kernel = ConvKernel(weights=rng.normal(size=(3, 2, 3)),
                            bias=rng.normal(size=3), dilation=2)
        x = rng.normal(size=(9, 2))
        target = rng.normal(size=(9, 3))

        def loss():
            return ((conv1d_dilated(x, kernel) - target) ** 2).sum()

        gy = 2 * (conv1d_dilated(x, kernel) - target)
        gx, gw, gb = conv1d_backward(x, kernel, gy)
        for analytic, arr in [(gx, x), (gw, kernel.weights), (gb, kernel.bias)]:
            fd = finite_diff(loss, arr)
            np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-8)

    def test_linear_layer_closed_form(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 3))
        w = rng.normal(size=(3, 1))
        y = rng.normal(size=(20, 1))
        kernel = ConvKernel(weights=w[None].copy(), bias=np.zeros(1),
                            dilation=1)
        pred = conv1d_dilated(X, kernel)
        gy = 2 * (pred - y) / X.shape[0]
        _, gw, _ = conv1d_backward(X, kernel, gy)
        closed = X.T @ (X @ w - y) * 2 / X.shape[0]
        np.testing.assert_allclose(gw[0], closed, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_softmax_ce_tmse_grads(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)

        def loss():
            p = softmax_rows(logits)
            return (cross_entropy_loss(p, labels)[0]
                    + 0.15 * tmse_loss(p)[0])

        p = softmax_rows(logits)
        gp = cross_entropy_loss(p, labels)[1] + 0.15 * tmse_loss(p)[1]
        gz = softmax_backward(p, gp)
        fd = finite_diff(loss, logits)
        np.testing.assert_allclose(gz, fd, rtol=1e-5, atol=1e-8)

    def test_unused_parameter_zero_grad(self):
        # bias of an output channel the loss never reads
        rng = np.random.default_rng(0)
        kernel = ConvKernel(weights=rng.normal(size=(1, 2, 2)),
                            bias=rng.normal(size=2), dilation=1)
        x = rng.normal(size=(5, 2))
        gy = np.zeros((5, 2))
        gy[:, 0] = 1.0  # loss = sum of channel 0 only
        _, gw, gb = conv1d_backward(x, kernel, gy)
        assert gb[1] == 0.0
        assert np.all(gw[:, :, 1] == 0.0)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = np.array([1.0, -2.0])
        state = AdamState(lr=0.1)
        adam_step([p], [np.zeros(2)], state)
        np.testing.assert_allclose(p, [1.0, -2.0])

    def test_first_step_is_signed_lr(self):
        p = np.array([0.0])
        state = AdamState(lr=0.01)
        adam_step([p], [np.array([123.0])], state)
        assert p[0] == pytest.approx(-0.01, rel=1e-6)

    def test_converges_on_quadratic(self):
        w = np.array([0.0])
        state = AdamState(lr=0.1)
        for _ in range(200):
            adam_step([w], [2 * (w - 3.0)], state)
        assert abs(w[0] - 3.0) < 0.05

    def test_shape_mismatch(self):
        state = AdamState(lr=0.1)
        with pytest.raises(DimensionError):
            adam_step([np.zeros(2)], [np.zeros(3)], state)
