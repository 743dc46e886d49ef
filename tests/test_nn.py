import math
import weakref
from dataclasses import fields
from itertools import accumulate

import numpy as np
import pytest

from wavedetect.autodiff import Tensor, _node
from wavedetect.errors import DataError, ShapeError
from wavedetect.model import ConvLayer, ModelConfig, WaveletAutoencoder, padding_for
from wavedetect.nn import (
    LSTMParams,
    conv1d,
    deconv1d,
    linear,
    _correlate,
    _phases,
    _scan,
    _spread,
    _taps,
    lstm_sequence,
    reconstruction_loss,
    step_dense,
    supervised_loss,
)
from wavedetect.wavelet import mdwd

from conftest import (add, concat, frozen, gate_params, lstm_step, matmul, max_rel_err, mul, numeric_grad,
                      reshape, sigmoid, take, tsum)


def conv1d_naive(x, w, b, stride, padding):
    """Independent triple-loop oracle for the convolution definition."""
    cin, t = x.shape
    cout, _, k = w.shape
    xp = np.zeros((cin, t + 2 * padding))
    xp[:, padding:padding + t] = x
    tout = (t + 2 * padding - k) // stride + 1
    out = np.zeros((cout, tout))
    for co in range(cout):
        for pos in range(tout):
            acc = 0.0
            for ci in range(cin):
                for j in range(k):
                    acc += w[co, ci, j] * xp[ci, pos * stride + j]
            out[co, pos] = acc + b[co]
    return out


def lstm_params(input_size, hidden_size, seed):
    """Random LSTM weights, each uniform in +-1/sqrt(fan in), as the model
    draws them."""
    rng = np.random.default_rng(seed)

    def uniform(fan_in, shape):
        bound = np.sqrt(1.0 / fan_in)
        return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)

    return LSTMParams(w_x=uniform(input_size, (4 * hidden_size, input_size)),
                      w_h=uniform(hidden_size, (4 * hidden_size, hidden_size)),
                      b=uniform(hidden_size, (4 * hidden_size,)))


def lstm_reference(a, h, c, p):
    """Direct evaluation of the six gate equations."""

    def sig(z):
        return 1.0 / (1.0 + np.exp(-z))

    def gate(name, activation):
        w_i, b_i, w_h, b_h = (t.data for t in gate_params(p, name))
        return activation(w_i @ a + b_i + w_h @ h + b_h)

    i, f, g, o = gate("i", sig), gate("f", sig), gate("g", np.tanh), gate("o", sig)
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


class TestConv1d:
    def test_moving_sum(self):
        out = conv1d(Tensor([[[1.0, 2.0, 3.0]]]), Tensor([[[1.0, 1.0]]]), Tensor([0.0]))
        assert np.allclose(out.data, [[[3.0, 5.0]]])

    def test_zero_input_yields_bias(self, rng):
        """Rectified, as every conv layer's output is."""
        w = Tensor(rng.normal(size=(3, 2, 4)))
        out = conv1d(Tensor(np.zeros((1, 2, 16))), w, Tensor([1.0, -2.0, 0.5]), stride=2, padding=1)
        assert np.allclose(out.data[0], np.array([1.0, 0.0, 0.5])[:, None] * np.ones((3, out.data.shape[2])))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 0), (2, 3), (3, 2)])
    def test_matches_naive_oracle(self, rng, stride, padding):
        """The tap gather is the convolution; the layer rectifies it."""
        x = rng.normal(size=(4, 32))
        w = rng.normal(size=(8, 4, 5))
        b = rng.normal(size=8)
        linear_map = _correlate(w, _taps(x[None], 5, stride, padding)) + b[:, None]
        assert np.max(np.abs(linear_map[0] - conv1d_naive(x, w, b, stride, padding))) < 1e-12
        out = conv1d(Tensor(x[None]), Tensor(w), Tensor(b), stride=stride, padding=padding)
        assert out.data.tobytes() == np.maximum(linear_map, 0.0).tobytes()

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(1, 2, 12)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        target = rng.normal(size=(1, 3, 6))
        reconstruction_loss([target], [conv1d(x, w, b, stride=2, padding=1)]).backward()

        def f():
            pred = np.maximum(conv1d_naive(x.data[0], w.data, b.data, 2, 1), 0.0)
            return float(np.mean((pred - target) ** 2))

        for t in (x, w, b):
            assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-4


class TestDeconv1d:
    def test_single_tap_spread(self):
        out = deconv1d(Tensor([[[1.0]]]), Tensor([[[1.0, 2.0, 3.0]]]), Tensor([0.0]))
        assert np.allclose(out.data, [[[1.0, 2.0, 3.0]]])

    def test_restores_conv_input_length(self, rng):
        x = rng.normal(size=(1, 2, 20))
        w = rng.normal(size=(5, 2, 3))
        y = conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(5)))
        back = deconv1d(y, Tensor(np.moveaxis(w, 0, 0)), Tensor(np.zeros(2)))
        # stride 1, padding 0, same kernel width: 20 -> 18 -> 20
        assert y.data.shape == (1, 5, 18)
        assert back.data.shape == (1, 2, 20)

    @pytest.mark.parametrize("cin,cout,t,k,stride,padding", [
        (3, 5, 16, 4, 2, 1),
        (2, 4, 21, 3, 1, 0),
        (4, 2, 10, 6, 2, 2),
        (1, 7, 10, 4, 3, 0),
    ])
    def test_adjoint_identity_with_conv(self, rng, cin, cout, t, k, stride, padding):
        """The linear maps of the two layers, the tap gather and its scatter."""
        # remainder-free shapes: conv consumes the whole padded input
        assert (t + 2 * padding - k) % stride == 0
        x = rng.normal(size=(1, cin, t))
        w = rng.normal(size=(cout, cin, k))
        cx = _correlate(w, _taps(x, k, stride, padding))
        assert cx.shape == (1, cout, (t + 2 * padding - k) // stride + 1)
        y = rng.normal(size=cx.shape)
        dy = _spread(w, y, stride, padding, t)
        assert dy.shape == (1, cin, t)
        assert abs(float(np.vdot(cx, y)) - float(np.vdot(x, dy))) < 1e-10

    @pytest.mark.parametrize("cin,cout,t,k,stride,padding", [
        (3, 5, 16, 4, 2, 1),
        (2, 4, 21, 3, 1, 0),
        (4, 2, 10, 6, 2, 2),
        (1, 7, 10, 4, 3, 0),
    ])
    def test_each_layer_records_the_other_as_its_input_gradient(self, rng, cin, cout, t, k, stride, padding):
        """Bit for bit: the two layers share one tap gather and its scatter.
        The conv's gradient is first masked by its ReLU; the unrectified
        deconv's input gradient is the conv's linear map."""
        w = rng.normal(size=(cout, cin, k))

        def input_grad(layer, x, g, nbias):
            x = Tensor(x, requires_grad=True)
            tsum(mul(layer(x, Tensor(w), Tensor(np.zeros(nbias)), stride, padding), g)).backward()
            return x.grad

        x = rng.normal(size=(1, cin, t))
        y = conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(cout)), stride, padding).data
        g = rng.normal(size=y.shape)
        want = deconv1d(Tensor(g * (y > 0)), Tensor(w), Tensor(np.zeros(cin)), stride, padding).data
        assert input_grad(conv1d, x, g, cout).tobytes() == want.tobytes()
        want = _correlate(w, _taps(x, k, stride, padding))
        assert input_grad(deconv1d, g, x, cin).tobytes() == want.tobytes()

    def test_gradients_match_finite_differences(self, rng):
        x = Tensor(rng.normal(size=(1, 3, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        target = rng.normal(size=(1, 2, 12))  # (6 - 1) * 2 - 2 * 1 + 4
        reconstruction_loss([target], [deconv1d(x, w, b, stride=2, padding=1)]).backward()

        def f():
            pred = deconv1d(Tensor(x.data), Tensor(w.data), Tensor(b.data), 2, 1).data
            return float(np.mean((pred - target) ** 2))

        for t in (x, w, b):
            assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-4


# Each layer as a 1x1 identity map: weight 1 and bias -0.0, which leaves
# every value, -0.0 included, as it is before the layer's ReLU.
_RECTIFIED = [conv1d, lambda x, w, b: deconv1d(x, w, b, relu=True)]


@pytest.mark.parametrize("layer", _RECTIFIED, ids=["conv1d", "deconv1d"])
def test_relu_gradient_masks_negative_side(layer):
    x = Tensor([[[-2.0, -0.5, 0.5, 2.0]]], requires_grad=True)
    tsum(layer(x, Tensor([[[1.0]]]), Tensor([-0.0]))).backward()
    assert np.array_equal(x.grad, [[[0.0, 0.0, 1.0, 1.0]]])


@pytest.mark.parametrize("layer", _RECTIFIED, ids=["conv1d", "deconv1d"])
def test_relu_maps_signed_zeros_and_negatives_to_positive_zero(layer):
    """Over a vector long enough to take numpy's SIMD path, and one element;
    the backward mask is 1 only where the input is strictly positive."""
    for x in ([-0.0, 0.0, -1.0, -5e-324, 5e-324, 3.0] * 7, [-0.0]):
        x = Tensor(np.array(x)[None, None], requires_grad=True)
        y = layer(x, Tensor([[[1.0]]]), Tensor([-0.0]))
        assert y.data.tobytes() == np.where(x.data > 0, x.data, 0.0).tobytes()
        assert not np.signbit(y.data).any()
        tsum(y).backward()
        assert x.grad.tobytes() == (x.data > 0).astype(float).tobytes()


def test_only_the_rectified_deconv_masks_its_output(rng):
    """Without ``relu`` a deconv layer is linear: the last decoder layer."""
    x, w, b = rng.normal(size=(2, 3, 6)), rng.normal(size=(3, 2, 4)), rng.normal(size=2)
    linear_map = deconv1d(Tensor(x), Tensor(w), Tensor(b), 2, 1).data
    assert (linear_map < 0).any()
    assert np.array_equal(linear_map, _spread(w, x, 2, 1, 12) + b[:, None])
    rectified = deconv1d(Tensor(x), Tensor(w), Tensor(b), 2, 1, relu=True).data
    assert rectified.tobytes() == np.maximum(linear_map, 0.0).tobytes()


def _tap_grads_per_tap(a, taps):
    """The reference for ``nn._tap_grads``: one ``tensordot`` per tap of
    (B,X,n) with each (B,Y,n) tap over batch and time, stacked to (X,Y,k)."""
    return np.stack([np.tensordot(a, tap, axes=([0, 2], [0, 2])) for tap in taps], axis=2)


def _conv_layer_shapes(cfg):
    """(cin, cout, t, k, stride, padding) of each conv layer of each scale;
    each deconv layer mirrors one of them."""
    shapes = []
    for scale in range(cfg.levels + 1):
        cin = cfg.channels
        for layer, t in zip(cfg.conv, cfg.conv_lengths(scale)):
            shapes.append((cin, layer.features, t, layer.kernel, layer.stride, padding_for(layer)))
            cin = layer.features
    return shapes


# The default 8-channel model's 8 layer shapes, then the tiny model's 2,
# whose 4 input channels take a different BLAS kernel than 8 or more.
_LAYER_SHAPES = (_conv_layer_shapes(ModelConfig(channels=8))
                 + _conv_layer_shapes(ModelConfig(channels=4, fragment_length=64, levels=1,
                                                  conv=((8, 4, 2),), hidden=4)))


class TestKernelGradients:
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("cin,cout,t,k,stride,padding", _LAYER_SHAPES)
    def test_equal_the_per_tap_products(self, rng, batch, cin, cout, t, k, stride, padding):
        """Bit for bit at any batch: the unrolled product runs, per tap, the
        same (X, B·n) @ (B·n, Y) product as a ``tensordot``."""

        def kernel_grad(layer, x, nbias, **relu):
            # A conv bank is (out,in,k) and its adjoint deconv's (in,out,k).
            kernels = Tensor(rng.normal(size=(cout, cin, k)), requires_grad=True)
            y = layer(Tensor(x), kernels, Tensor(np.zeros(nbias)), stride, padding, **relu)
            g = rng.normal(size=y.shape)
            tsum(mul(y, g)).backward()
            # The gradient that reaches the linear map: a rectified layer masks it.
            return kernels.grad, g * (y.data > 0) if layer is conv1d or relu else g

        x = rng.normal(size=(batch, cin, t))
        dw, g = kernel_grad(conv1d, x, cout)
        assert dw.tobytes() == _tap_grads_per_tap(g, _taps(x, k, stride, padding)).tobytes()
        y = rng.normal(size=g.shape)
        for relu in ({}, {"relu": True}):
            dw, g = kernel_grad(deconv1d, y, cin, **relu)
            assert dw.tobytes() == _tap_grads_per_tap(y, _taps(g, k, stride, padding)).tobytes()

    def test_conv_skips_the_input_gradient_of_a_constant(self, rng):
        """The vjp gives None for an input that needs no grad, and the same
        kernel and bias grads as for one that does."""
        x, w, b = rng.normal(size=(2, 3, 16)), rng.normal(size=(4, 3, 4)), rng.normal(size=4)
        g = rng.normal(size=(2, 4, 8))
        grads = [conv1d(Tensor(x, requires_grad=needs), Tensor(w, requires_grad=True), Tensor(b), 2, 1)._vjp(g)
                 for needs in (False, True)]
        assert grads[0][0] is None and grads[1][0].shape == x.shape
        for constant, variable in zip(grads[0][1:], grads[1][1:]):
            assert constant.tobytes() == variable.tobytes()


class TestLstmCell:
    """The LSTM step, run as a one- or two-step ``lstm_sequence`` encoder on
    a batch of one, which returns the last step's hidden state. Every
    sequence starts from a zero cell state, so the cell-state arithmetic
    shows at step 2, which reads what step 1 wrote."""

    def make_params(self, input_size, hidden_size, seed=3):
        return lstm_params(input_size, hidden_size, seed)

    def zero_params(self, input_size, hidden_size):
        p = self.make_params(input_size, hidden_size)
        for f in fields(p):
            getattr(p, f.name).data[...] = 0.0
        return p

    def test_all_zero_weights_and_state(self):
        p = self.zero_params(2, 3)
        h = lstm_sequence([np.zeros((1, 2, 1))], [np.zeros((1, 3))], [p])
        # i = f = o = 0.5 and g = 0, so the cell and hidden states stay zero
        assert np.allclose(h.data, 0.0)

    def test_forget_gate_arithmetic(self):
        """Step 1 saturates the input gate and the candidate, writing c = 1.
        Step 2 reads a zero input, so every gate is 0.5 and the candidate 0:
        it keeps half the cell state, c = 0.5, and h = 0.5 tanh(0.5)."""
        p = self.zero_params(1, 1)
        p.w_x.data[[0, 3], 0] = 40.0  # input gate and candidate rows
        steps = [lstm_sequence([[[[1.0, 0.0][:n]]]], [np.zeros((1, 1))], [p]).data[0, 0] for n in (1, 2)]
        h1, c1 = lstm_reference(np.ones(1), np.zeros(1), np.zeros(1), p)
        h2, c2 = lstm_reference(np.zeros(1), h1, c1, p)
        assert c1[0] == 1.0 and c2[0] == 0.5
        assert np.allclose(steps, [h1[0], h2[0]], rtol=0, atol=1e-15)
        assert abs(steps[1] - 0.23105857863) < 1e-9

    def test_matches_six_equation_oracle(self, rng):
        p = self.make_params(3, 2, seed=11)
        a, h0 = rng.normal(size=3), rng.normal(size=2)
        h = lstm_sequence([a[None, :, None]], [h0[None]], [p])
        h_ref, _ = lstm_reference(a, h0, np.zeros(2), p)
        assert np.max(np.abs(h.data[0] - h_ref)) < 1e-12

    def test_cell_state_conservation(self):
        """Step 1 opens the input gate and writes tanh(w_g) into the cell
        state. Step 2 saturates the forget gate open and the input gate
        closed, so the cell state carries over, and with the output gate at
        0.5 at both steps so does the hidden state."""
        p = self.zero_params(2, 3)
        p.b.data[3:6] = 40.0  # forget rows: open at both steps
        p.w_x.data[0:3, 0] = 80.0  # input rows: open when channel 0 is 1 ...
        p.b.data[0:3] = -40.0  # ... and closed when it is 0
        w_g = np.array([0.3, -1.2, 2.0])
        p.w_x.data[9:12, 0] = w_g  # candidate rows read channel 0
        x = np.eye(2)  # channel 0 at step 1, channel 1 at step 2
        steps = [lstm_sequence([x[None, :, :n]], [np.zeros((1, 3))], [p]).data[0] for n in (1, 2)]
        h1, c1 = lstm_reference(x[:, 0], np.zeros(3), np.zeros(3), p)
        h2, c2 = lstm_reference(x[:, 1], h1, c1, p)
        assert np.allclose(c1, np.tanh(w_g), atol=1e-12)
        assert np.allclose(c2, c1, atol=1e-12)
        assert np.allclose(steps, [h1, h2], atol=1e-12)
        assert np.allclose(steps[1], steps[0], atol=1e-12)


class TestLinear:
    def test_identity(self):
        x = Tensor([1.0, -2.0, 3.0])
        out = linear(x, Tensor(np.eye(3)), Tensor(np.zeros(3)))
        assert np.allclose(out.data, x.data)

    def test_zero_weight_gives_bias(self):
        out = linear(Tensor(np.ones(4)), Tensor(np.zeros((2, 4))), Tensor([5.0, -1.0]))
        assert np.allclose(out.data, [5.0, -1.0])

    def test_matches_dot_product_oracle(self, rng):
        x, w, b = rng.normal(size=5), rng.normal(size=(3, 5)), rng.normal(size=3)
        out = linear(Tensor(x), Tensor(w), Tensor(b))
        ref = np.array([sum(w[o, i] * x[i] for i in range(5)) + b[o] for o in range(3)])
        assert np.max(np.abs(out.data - ref)) < 1e-12


class TestStepDense:
    """The decoder's step head: one (out,in) weight at every time step of
    columns 2..6 of a (B,in,T) batch, then the bias, as ``decode`` passes a
    scale's columns of the LSTM output."""

    cols = slice(2, 7)

    def operands(self, rng, batch):
        x = Tensor(rng.normal(size=(batch, 3, 9)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        return x, w, b, rng.normal(size=(batch, 4, 5))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_gradients_match_finite_differences(self, rng, batch):
        x, w, b, weights = self.operands(rng, batch)
        tsum(mul(step_dense(x, w, b, self.cols), weights)).backward()

        def f():
            return float((step_dense(x, w, b, self.cols).data * weights).sum())

        assert not x.grad[..., :2].any() and not x.grad[..., 7:].any()
        for t in (x, w, b):
            assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-6

    @pytest.mark.parametrize("batch", [1, 3])
    def test_equals_the_composed_matmul_reshape_add_bit_for_bit(self, rng, batch):
        """The output and every gradient of the add(matmul, reshape) graph
        the model built before the op, on the columns that graph takes."""
        x, w, b, weights = self.operands(rng, batch)
        runs = []
        for head in (lambda: step_dense(x, w, b, self.cols),
                     lambda: add(matmul(w, take(x, (..., self.cols))), reshape(b, (4, 1)))):
            y = head()
            tsum(mul(y, weights)).backward()
            runs.append([y.data.tobytes()] + [t.grad.tobytes() for t in (x, w, b)])
            for t in (x, w, b):
                t.grad = None
        assert runs[0] == runs[1]


def bce(logit, label):
    """The head's cross-entropy alone: the supervised objective at alpha 0,
    whose reconstruction term is then exactly 0."""
    return supervised_loss(Tensor([0.0]), logit, label, 0.0)


class TestLosses:
    """A one-scale ``reconstruction_loss`` is the per-sample mean squared error."""

    def test_mse_zero_when_equal(self, rng):
        x = rng.normal(size=(1, 3, 4))
        assert reconstruction_loss([x.copy()], [Tensor(x)]).item() == 0.0

    def test_mse_value(self):
        assert reconstruction_loss([[[[0.0]]]], [Tensor([[[2.0]]])]).item() == 4.0

    def test_mse_gradient_formula(self, rng):
        pred = Tensor(rng.normal(size=(1, 1, 6)), requires_grad=True)
        target = rng.normal(size=(1, 1, 6))
        reconstruction_loss([target], [pred]).backward()
        assert max_rel_err(pred.grad, 2.0 * (pred.data - target) / 6.0) < 1e-12

        def f():
            return float(np.mean((pred.data - target) ** 2))

        assert max_rel_err(pred.grad, numeric_grad(f, pred)) < 1e-5

    def test_three_scales_match_the_subtract_square_mean_fold_bit_for_bit(self, rng):
        """The loss and every reconstruction gradient are those of the loss
        composed of ops: d = recon - target, the mean of d * d per sample,
        the terms added left to right, and the gradient of d * d doubled as
        t + t."""
        # Seven channels and these weights make g / n and g * (1 / n) differ.
        targets = [rng.normal(size=(2, 7, n)) for n in (16, 8, 4)]
        recons = [Tensor(rng.normal(size=(2, 7, n)), requires_grad=True) for n in (16, 8, 4)]
        weights = np.array([0.3, 1.7])
        loss = reconstruction_loss(targets, recons)
        tsum(mul(loss, Tensor(weights))).backward()

        terms = [((r.data - t) * (r.data - t)).mean(axis=(1, 2)) for r, t in zip(recons, targets)]
        assert np.array_equal(loss.data, (terms[0] + terms[1]) + terms[2])
        for r, t in zip(recons, targets):
            d = r.data - t
            half = (weights[:, None, None] / (7 * t.shape[2])) * d
            assert np.array_equal(r.grad, half + half)

    def test_gradients_match_finite_differences(self, rng):
        targets = [rng.normal(size=(2, 2, n)) for n in (8, 4)]
        recons = [Tensor(rng.normal(size=(2, 2, n)), requires_grad=True) for n in (8, 4)]
        weights = Tensor([0.6, -1.1])
        tsum(mul(reconstruction_loss(targets, recons), weights)).backward()

        def f():
            return tsum(mul(reconstruction_loss(targets, frozen(recons)), weights)).item()

        for r in recons:
            assert max_rel_err(r.grad, numeric_grad(f, r)) < 1e-6

    def test_targets_are_constants(self, rng):
        target = Tensor(rng.normal(size=(1, 2, 4)), requires_grad=True)
        recon = Tensor(rng.normal(size=(1, 2, 4)), requires_grad=True)
        reconstruction_loss([target], [recon]).backward()
        assert target.grad is None and recon.grad is not None

    def test_bce_values(self):
        assert abs(bce(Tensor([0.0]), 0).item() - np.log(2.0)) < 1e-12
        assert abs(bce(Tensor([0.0]), 1).item() - np.log(2.0)) < 1e-12
        assert abs(bce(Tensor([np.log(9.0)]), 0).item() - (-np.log(0.1))) < 1e-12
        assert bce(Tensor([25.0]), 1).item() < 1e-10
        # far in the wrong tail the loss grows linearly instead of sticking
        assert bce(Tensor([-800.0]), 1).item() == 800.0

    def test_bce_gradient(self):
        z = Tensor([np.log(0.3 / 0.7)], requires_grad=True)  # sigmoid(z) = 0.3
        bce(z, 1).backward()
        assert abs(z.grad[0] - (0.3 - 1.0)) < 1e-12

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("z", [-50.0, -3.0, 0.0, 3.0, 50.0])
    def test_bce_with_logits_gradcheck(self, z, label):
        logit = Tensor([z], requires_grad=True)
        bce(logit, label).backward()

        def f():
            return bce(Tensor(logit.data), label).item()

        assert max_rel_err(logit.grad, numeric_grad(f, logit)) < 1e-6

    @pytest.mark.parametrize("label", [0, 1])
    def test_bce_with_logits_matches_clamped_probability_loss(self, label):
        """Where the clamps of the probability form (1e-7 on the sigmoid,
        1e-12 before the log) are inactive, the logit form gives the same
        loss and gradient to within 1e-12. The points stop at |z| = 6: past
        that, 1 - p in the probability form loses more than 1e-12 to
        cancellation by itself."""
        for z in (-6.0, -3.0, -0.5, 0.0, 0.7, 3.0, 6.0):
            loss, grad = _clamped_probability_bce(z, label)
            logit = Tensor([z], requires_grad=True)
            new = bce(logit, label)
            new.backward()
            assert abs(new.item() - loss) < 1e-12, z
            assert abs(logit.grad[0] - grad) < 1e-12, z

    @pytest.mark.parametrize("label,z", [(1, -30.0), (0, 30.0)])
    def test_head_saturated_the_wrong_way_keeps_its_gradient(self, label, z):
        # The probability form clamps sigmoid(z) at 1e-7 from either end, so
        # past |z| ~ 16.1 its loss sticks at 16.1 and its gradient is 0.
        logit = Tensor([z], requires_grad=True)
        loss = bce(logit, label)
        loss.backward()
        assert abs(loss.item() - 30.0) < 1e-12
        assert abs(logit.grad[0] - (1.0 - 2.0 * label)) < 1e-12


def _clamped_probability_bce(z, label):
    """Loss and d(loss)/dz of the probability form the logit form replaced:
    p = clamp(sigmoid(z), 1e-7, 1 - 1e-7), then -log(clamp(p, 1e-12, 1 - 1e-12))
    or -log(1 - clamp(...)), with the gradient chained op by op as the graph
    did."""
    s = 1.0 / (1.0 + np.exp(-z)) if z >= 0 else np.exp(z) / (1.0 + np.exp(z))
    p = min(max(s, 1e-7), 1.0 - 1e-7)
    q = p if label == 1 else 1.0 - p
    loss = -np.log(q)
    dq = -1.0 / q
    dp = dq if label == 1 else -dq
    return loss, dp * s * (1.0 - s)


def _composed_supervised(recon, logit, label, alpha):
    """The supervised objective as the training step composed it before it
    became one node: a cross-entropy node on the logit, mixed in by graph
    products and a sum."""
    z = float(logit.data.reshape(()))
    shape = logit.data.shape

    def vjp(g):
        grad = float(sigmoid(z).data) if label == 0 else -float(sigmoid(-z).data)
        return (np.full(shape, g * grad),)

    cross_entropy = _node(max(z, 0.0) - label * z + math.log1p(math.exp(-abs(z))), (logit,), vjp)
    return add(mul(recon, alpha), mul(cross_entropy, 1.0 - alpha))


class TestSupervisedLoss:
    """``supervised_loss`` is alpha * reconstruction + (1 - alpha) * the
    head's cross-entropy as one node, with the arithmetic of the graph it
    replaced."""

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("label", [0, 1])
    def test_gradcheck(self, label, alpha):
        recon = Tensor([0.8], requires_grad=True)
        logit = Tensor([[-1.3]], requires_grad=True)
        supervised_loss(recon, logit, label, alpha).backward()

        def f():
            return supervised_loss(Tensor(recon.data), Tensor(logit.data), label, alpha).item()

        for t in (recon, logit):
            assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-6

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 0.7, 1.0])
    @pytest.mark.parametrize("label", [0, 1])
    def test_loss_and_gradients_bit_equal_the_composed_graph(self, label, alpha):
        """Under an upstream gradient other than 1, so that reordering the
        logit gradient's products would change its last bits."""
        for r, z in ((0.1234567, -2.5), (3.3, 0.0), (0.01, 17.25), (1e-3, -40.0), (0.7, 0.3)):
            results = []
            for objective in (supervised_loss, _composed_supervised):
                recon, logit = Tensor([r], requires_grad=True), Tensor([[z]], requires_grad=True)
                loss = objective(recon, logit, label, alpha)
                mul(loss, 0.37).backward()
                results.append((loss.data.tobytes(), recon.grad.tobytes(), logit.grad.tobytes()))
            assert results[0] == results[1], (r, z)

    @pytest.mark.parametrize("label", [0, 1])
    def test_every_parameter_gradient_bit_equals_the_composed_graph(self, label):
        cfg = ModelConfig(channels=2, fragment_length=32, levels=1, conv=(ConvLayer(4, 4, 2),), hidden=3,
                          classifier=True, seed=7)
        x = np.random.default_rng(8).normal(size=(1, 2, 32))
        inputs = [x, *mdwd(x, "haar", 1)[0]]
        runs = []
        for objective in (supervised_loss, _composed_supervised):
            model = WaveletAutoencoder(cfg)
            code, teacher = model.encode(inputs)
            loss = objective(reconstruction_loss(inputs, model.decode(code, teacher)), model.logit(code), label, 0.3)
            loss.backward()
            runs.append([loss.data.tobytes()] + [p.grad.tobytes() for p in model.parameters()])
        assert runs[0] == runs[1]

    def test_stable_far_in_either_tail(self):
        recon = Tensor([0.25])
        assert supervised_loss(recon, Tensor([-800.0]), 1, 0.5).item() == 0.125 + 400.0
        assert 0.125 <= supervised_loss(recon, Tensor([25.0]), 1, 0.5).item() < 0.125 + 1e-10
        expected = 0.125 - 0.5 * np.log(0.1)
        assert abs(supervised_loss(recon, Tensor([np.log(9.0)]), 0, 0.5).item() - expected) < 1e-12


def test_composite_chain_gradients_match_finite_differences(rng):
    """conv -> lstm -> linear -> reconstruction loss, checked end to end against FD."""
    x = rng.normal(size=(1, 2, 10))
    conv_w = Tensor(rng.normal(size=(3, 2, 4)) * 0.5, requires_grad=True)
    conv_b = Tensor(rng.normal(size=3) * 0.1, requires_grad=True)
    p = lstm_params(3, 2, 5)
    out_w = Tensor(rng.normal(size=(2, 2)) * 0.5, requires_grad=True)
    out_b = Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
    target = rng.normal(size=(1, 2, 1))

    def forward(conv_w, conv_b, p, out_w, out_b):
        acts = conv1d(Tensor(x), conv_w, conv_b, stride=2, padding=1)
        code = lstm_sequence([acts], [np.zeros((1, 2))], [p])
        return reconstruction_loss([target], [reshape(linear(code, out_w, out_b), (1, 2, 1))])

    weights = (conv_w, conv_b, p, out_w, out_b)
    forward(*weights).backward()
    params = [conv_w, conv_b, out_w, out_b] + [getattr(p, f.name) for f in fields(p)]

    def f():
        return forward(*frozen(weights)).item()

    for t in params:
        assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-4


class TestBatchAxis:
    """A batch of B gives exactly the results of B batches of one."""

    def test_conv1d_and_deconv1d(self, rng):
        x = rng.normal(size=(3, 4, 16))
        w = rng.normal(size=(5, 4, 4))
        b = rng.normal(size=5)
        out = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).data
        back = deconv1d(Tensor(out), Tensor(w), Tensor(b[:4]), stride=2, padding=1).data
        for i in range(3):
            one = conv1d(Tensor(x[i : i + 1]), Tensor(w), Tensor(b), stride=2, padding=1).data
            assert np.array_equal(out[i : i + 1], one)
            assert np.array_equal(back[i : i + 1], deconv1d(Tensor(one), Tensor(w), Tensor(b[:4]), 2, 1).data)

    def test_batched_conv_gradients(self, rng):
        x = Tensor(rng.normal(size=(2, 2, 12)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        dw = Tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        db = Tensor(rng.normal(size=2), requires_grad=True)
        target = rng.normal(size=(2, 2, 12))

        def forward(x, w, dw, b, db):
            mid = conv1d(x, w, b, stride=2, padding=1)
            return tsum(mul(deconv1d(mid, dw, db, stride=2, padding=1), Tensor(target)))

        forward(x, w, dw, b, db).backward()

        def f():
            return forward(*frozen((x, w, dw, b, db))).item()

        for t in (x, w, dw, b, db):
            assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-6

    def test_linear(self, rng):
        x, w, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5)), rng.normal(size=3)
        out = linear(Tensor(x), Tensor(w), Tensor(b)).data
        for i in range(4):
            assert np.max(np.abs(out[i] - linear(Tensor(x[i]), Tensor(w), Tensor(b)).data)) < 1e-15

    def test_mse_loss_per_sample(self, rng):
        pred, target = rng.normal(size=(3, 2, 8)), rng.normal(size=(3, 2, 8))
        per = reconstruction_loss([target], [Tensor(pred)]).data
        assert per.shape == (3,)
        for i in range(3):
            assert per[i] == reconstruction_loss([target[i : i + 1]], [Tensor(pred[i : i + 1])]).item()


def _boundary_model():
    return WaveletAutoencoder(ModelConfig(channels=2, fragment_length=16, levels=1,
                                          conv=(ConvLayer(3, 4, 2),), hidden=2, classifier=True))


def _unbatched_calls():
    """(name, call) pairs that each hand one public model pass a lone sample
    without the batch axis; everything else in the call is valid."""
    model = _boundary_model()
    x = np.zeros((2, 16))
    code, acts = model.encode([x[None], np.zeros((1, 2, 8))])
    return [
        ("encode", lambda: model.encode([x, np.zeros((2, 8))])),
        ("decode", lambda: model.decode(code.data[0], [a.data[0] for a in acts])),
        ("logit", lambda: model.logit(np.zeros(model.config.code_length))),
        ("classify", lambda: model.classify(np.zeros(model.config.code_length))),
    ]


@pytest.mark.parametrize("name", [name for name, _ in _unbatched_calls()])
def test_unbatched_input_is_rejected(name):
    """Every public model pass takes a batch; a lone sample without the
    batch axis raises ``ShapeError`` naming the batched shape. The ``nn``
    layers behind them check nothing."""
    call = dict(_unbatched_calls())[name]
    with pytest.raises(ShapeError, match=r"\(B, ?"):
        call()


@pytest.mark.parametrize("head", ["logit", "classify"])
def test_a_code_of_the_wrong_width_is_rejected(head):
    model = _boundary_model()
    with pytest.raises(ShapeError, match=r"\(B, 4\)"):
        getattr(model, head)(np.zeros((1, model.config.code_length + 1)))


@pytest.mark.parametrize("what", ["scale 1 input", "code", "scale 1 teacher activations"],
                         ids=["encode", "decode-code", "decode-teacher"])
def test_an_input_that_is_not_numbers_is_a_data_error_naming_it(what):
    """A public model pass converts what it is handed with ``as_floats``,
    so a string raises ``DataError`` naming the input, not numpy's error."""
    model = _boundary_model()
    x = [np.zeros((1, 2, 16)), np.zeros((1, 2, 8))]
    code, acts = model.encode(x)
    call = {"scale 1 input": lambda: model.encode([x[0], "abc"]),
            "code": lambda: model.decode("abc", acts),
            "scale 1 teacher activations": lambda: model.decode(code, [acts[0], "abc"])}[what]
    with pytest.raises(DataError, match=f"{what} is not an array of numbers"):
        call()


def _lstm_inputs(rng, batch, nin=3, hid=2, steps=4, seed=17):
    x = Tensor(rng.normal(size=(batch, nin, steps)), requires_grad=True)
    h0 = Tensor(rng.normal(size=(batch, hid)) * 0.5, requires_grad=True)
    return x, h0, lstm_params(nin, hid, seed)


def _decoder_read(x: np.ndarray) -> np.ndarray:
    """What the decoder's steps read, in time order: step t reads column
    t + 1 of ``x``, and the last step a zero column."""
    return np.concatenate([x[..., 1:], np.zeros(x.shape[:-1] + (1,))], axis=-1)


class TestLstmSequence:
    """One sequence: a list of one."""

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("decoder", [False, True])
    def test_matches_step_by_step_oracle(self, rng, batch, decoder):
        """The encoder's last hidden state, or every hidden state of the
        decoder, which walks t = 3..0 reading column t + 1."""
        x, h0, p = _lstm_inputs(rng, batch)
        out = lstm_sequence([x], [h0], [p], decoder=decoder)
        read = _decoder_read(x.data) if decoder else x.data
        for i in range(batch):
            hi, ci = h0.data[i], np.zeros(2)
            for t in (range(3, -1, -1) if decoder else range(4)):
                hi, ci = lstm_reference(read[i, :, t], hi, ci, p)
                if decoder:
                    assert np.max(np.abs(out.data[i, :, t] - hi)) < 1e-14
            if not decoder:
                assert out.data.shape == (batch, 2)
                assert np.max(np.abs(out.data[i] - hi)) < 1e-14

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("decoder", [False, True])
    def test_gradients_match_finite_differences(self, rng, batch, decoder):
        """Every input and all three parameter tensors."""
        x, h0, p = _lstm_inputs(rng, batch)
        weights = Tensor(rng.normal(size=(batch, 2, 4) if decoder else (batch, 2)))

        def forward(x, h0, p):
            out = lstm_sequence([x], [h0], [p], decoder=decoder)
            return tsum(mul(out, weights))

        forward(x, h0, p).backward()

        def f():
            return forward(*frozen((x, h0, p))).item()

        named = [("x", x), ("h0", h0)] + [(f.name, getattr(p, f.name)) for f in fields(p)]
        assert len(named) == 5
        for name, t in named:
            assert max_rel_err(t.grad, numeric_grad(f, t)) < 1e-6, name


# The single-sequence scan and BPTT that ran one call per sequence before
# all sequences shared one time loop, kept as the reference the shared loop
# must reproduce bit for bit. They take the cell state the fused op no
# longer does; the reference passes zero for it.


def _single_scan(zx, h0, c0, wh_t):
    steps, nb, g4 = zx.shape
    hid = g4 // 4
    hs = np.empty((steps + 1, nb, hid))
    hs[0] = h0
    h_rows = hs[:, :, None, :]
    z_rows = np.empty((nb, 1, g4))
    a = z_rows.reshape(nb, g4)
    sig, i, f, o, g = a[:, : 3 * hid], *(a[:, k * hid : (k + 1) * hid] for k in range(4))
    c = np.array(c0, dtype=np.float64)
    ig, tc = np.empty((nb, hid)), np.empty((nb, hid))
    acts, cs, tcs = np.empty((steps, nb, g4)), np.empty((steps + 1, nb, hid)), np.empty((steps, nb, hid))
    cs[0] = c
    for t in range(steps):
        np.matmul(h_rows[t], wh_t, out=z_rows)
        a += zx[t]
        np.tanh(a, out=a)
        sig *= 0.5
        sig += 0.5
        c *= f
        c += np.multiply(i, g, out=ig)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=hs[t + 1])
        acts[t], cs[t + 1], tcs[t] = a, c, tc
    return hs, c, (acts, cs, tcs)


def _single_scan_grad(acts, cs, tcs, wh, dhs, dc):
    steps, nb, g4 = acts.shape
    hid = g4 // 4
    i, f, o, g = (acts[..., k * hid : (k + 1) * hid] for k in range(4))
    coef = np.empty((steps, nb, 4, hid))
    coef[:, :, 0] = g * i * (1.0 - i)
    coef[:, :, 1] = cs[:-1] * f * (1.0 - f)
    coef[:, :, 2] = tcs * o * (1.0 - o)
    coef[:, :, 3] = i * (1.0 - g * g)
    dc_dh = o * (1.0 - tcs * tcs)
    dz = np.empty((steps, nb, 4, hid))
    dz_o, coef_o = dz[:, :, 2], coef[:, :, 2]
    dz_flat = dz.reshape(steps, nb, g4)
    dh = np.zeros((nb, hid))
    for t in range(steps - 1, -1, -1):
        dh = dh + dhs[t]
        dc = dc + dh * dc_dh[t]
        np.multiply(coef[t], dc[:, None, :], out=dz[t])
        np.multiply(dh, coef_o[t], out=dz_o[t])
        dh = dz_flat[t] @ wh
        dc = dc * f[t]
    return dz_flat, dh, dc


def single_sequence_reference(x, h0, p, reverse, d_hs):
    """The (B,H,T) hidden states of one sequence run from a zero cell state,
    and the gradients of x, h0, w_x, w_h and b given the upstream gradient
    ``d_hs`` of the hidden states."""
    nb, nin, steps = x.shape
    hid = p.hidden_size
    wx, wh, b = p.w_x.data, p.w_h.data, p.b.data
    half = np.repeat([0.5, 1.0], [3 * hid, hid])
    zero = np.zeros((nb, hid))
    zx = ((wx * half[:, None]) @ x + (b * half)[:, None]).transpose(2, 0, 1)
    hs, _, saved = _single_scan(zx[::-1] if reverse else zx, h0, zero, (wh * half[:, None]).T)
    hs_time = (hs[:0:-1] if reverse else hs[1:]).transpose(1, 2, 0)
    dhs = d_hs.transpose(2, 0, 1)
    dz, dh0, _ = _single_scan_grad(*saved, wh, dhs[::-1] if reverse else dhs, zero)
    h_in = hs[:-1]
    if reverse:
        dz, h_in = dz[::-1], h_in[::-1]
    dz = dz.transpose(1, 2, 0)
    grads = (np.matmul(wx.T, dz), dh0, np.tensordot(dz, x, axes=([0, 2], [0, 2])),
             np.tensordot(dz, h_in, axes=([0, 2], [1, 0])), dz.sum(axis=(0, 2)))
    return hs_time, grads


# Three sequences of unequal lengths and input sizes, as the model's scales:
# (input size, steps).
_SPECS = ((3, 6), (2, 3), (4, 2))
_ALIGNED = ((3, 24), (2, 16), (4, 8))
# Four aligned sequences shaped like the default model's scales: every phase
# is a multiple of 8 steps wide.
_SCALES = ((5, 64), (3, 32), (4, 16), (2, 8))


def _multi_inputs(rng, batch, specs=_SPECS, hid=2):
    return [_lstm_inputs(rng, batch, nin, hid, steps, seed=17 + s) for s, (nin, steps) in enumerate(specs)]


def _run_multi(seqs, decoder):
    """The decoder's packed hidden states, or the encoder's code."""
    return lstm_sequence(*([s[q] for s in seqs] for q in range(3)), decoder=decoder)


def _reference(x, h0, p, decoder, up):
    """``single_sequence_reference`` for one sequence of a multi-sequence
    run, given the upstream gradient of its output: the decoder's (B,H,T)
    hidden states, or the encoder's (B,H) last one. Returns that output and
    the gradients of x, h0, w_x, w_h and b. The encoder is the reference run
    forward, and the decoder the reference run backward on
    [x[..., 1:] | 0], whose input gradient moves one column later in x."""
    if not decoder:
        d_hs = np.zeros(up.shape + x.shape[2:])
        d_hs[..., -1] = up
        hs, grads = single_sequence_reference(x, h0, p, False, d_hs)
        return hs[..., -1], grads
    hs, (d_read, *grads) = single_sequence_reference(_decoder_read(x), h0, p, True, up)
    dx = np.concatenate([np.zeros(x.shape[:2] + (1,)), d_read[..., :-1]], axis=2)
    return hs, (dx, *grads)


def _outputs(out, seqs, decoder):
    """Each sequence's part of a multi-sequence output, as a ``take`` node:
    its columns of the packed hidden states, which follow those of the
    sequences before it, or its slice of the code."""
    if not decoder:
        hid = seqs[0][1].shape[1]
        return [take(out, (slice(None), slice(s * hid, (s + 1) * hid))) for s in range(len(seqs))]
    ends = accumulate(x.shape[2] for x, _, _ in seqs)
    return [take(out, (..., slice(end - x.shape[2], end))) for (x, _, _), end in zip(seqs, ends)]


class TestMultiSequence:
    """All sequences share one time loop, and a sequence drops out of it once
    its own steps are done."""

    def test_phases(self):
        assert list(_phases([128, 64, 32, 16])) == [(0, 16, 4), (16, 32, 3), (32, 64, 2), (64, 128, 1)]
        assert list(_phases([5, 5, 0])) == [(0, 5, 2)]
        # The default model's LSTMs: 128 loop steps per pass, not 128+64+32+16.
        assert sum(end - start for start, end, _ in _phases([128, 64, 32, 16])) == 128

    @pytest.mark.parametrize("keep", [False, True])
    def test_each_phase_projection_dies_before_the_next_is_built(self, rng, keep):
        """No loop variable of a phase keeps its input projections alive, so
        a pass holds one phase's projections at a time."""
        hid, built = 2, []

        def zx_of(start, end, k):
            assert all(ref() is None for ref in built)
            zx = rng.normal(size=(end - start, 4, k, 1, hid))
            built.append(weakref.ref(zx))
            return zx

        _scan(zx_of, np.zeros((3, 1, hid)), rng.normal(size=(3, 1, hid, 4 * hid)), [6, 4, 2], keep)
        assert len(built) == 3

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("decoder", [False, True])
    @pytest.mark.parametrize("specs", [_ALIGNED, _SPECS], ids=["aligned", "odd"])
    def test_matches_single_sequence_reference(self, rng, specs, batch, decoder):
        """Outputs and every gradient equal the per-sequence loop's.

        Each phase hoists its own input projection, a product over the
        phase's steps only. With phase widths that are multiples of 8, like
        the model's, BLAS gives each column what the whole-sequence product
        gives, and everything is bit-identical. A narrower phase can take
        another kernel (one column is a matrix-vector product), which moves
        results in the last bits: within 1e-12 relative.
        """
        seqs = _multi_inputs(rng, batch, specs)
        outputs = _outputs(_run_multi(seqs, decoder), seqs, decoder)
        ups = [rng.normal(size=out.shape) for out in outputs]
        loss = Tensor(0.0)
        for out, up in zip(outputs, ups):
            loss = add(loss, tsum(mul(out, Tensor(up))))
        loss.backward()

        def check(got, want):
            if specs is _ALIGNED:
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=1e-12, atol=1e-15)

        for (x, h0, p), out, up in zip(seqs, outputs, ups):
            ref_out, ref_grads = _reference(x.data, h0.data, p, decoder, up)
            check(out.data, ref_out)
            for t, want in zip([x, h0, p.w_x, p.w_h, p.b], ref_grads):
                check(t.grad, want)

    @pytest.mark.parametrize("batch", [1, 6])
    @pytest.mark.parametrize("decoder", [False, True])
    def test_scoring_path_matches_single_sequence_reference(self, rng, batch, decoder):
        """On inputs and weights that need no grad, the path scoring runs,
        the scan saves nothing for backward; its outputs still equal the
        reference bit for bit."""
        seqs = _multi_inputs(rng, batch, _SCALES, hid=32)
        out = _run_multi(frozen(seqs), decoder)
        assert not out.requires_grad
        for (x, h0, p), got in zip(seqs, _outputs(out, seqs, decoder)):
            # The upstream gradient feeds only the reference's gradients.
            want, _ = _reference(x.data, h0.data, p, decoder, np.zeros(got.shape))
            assert np.array_equal(got.data, want)

    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("decoder", [False, True])
    def test_gradients_match_finite_differences(self, rng, batch, decoder):
        """Every input and parameter of every sequence, through every output."""
        seqs = _multi_inputs(rng, batch)
        shape = (batch, 2, sum(steps for _, steps in _SPECS)) if decoder else (batch, 2 * len(_SPECS))
        weights = Tensor(rng.normal(size=shape))

        def forward(seqs):
            return tsum(mul(_run_multi(seqs, decoder), weights))

        forward(seqs).backward()

        def f():
            return forward(frozen(seqs)).item()

        def numeric(t):
            # Richardson's extrapolation cancels the h^2 error of two central
            # differences. The steps can then be large enough that the loss's
            # rounding, about 2e-11 in one h=1e-5 difference, stays far below
            # 1e-6 of the decoder's smallest weight gradients, near 2e-5.
            return (4 * numeric_grad(f, t, h=5e-4) - numeric_grad(f, t, h=1e-3)) / 3

        for s, (x, h0, p) in enumerate(seqs):
            named = [("x", x), ("h0", h0)] + [(f.name, getattr(p, f.name)) for f in fields(p)]
            for name, t in named:
                assert max_rel_err(t.grad, numeric(t)) < 1e-6, (s, name)

    @pytest.mark.parametrize("decoder", [False, True])
    def test_batch_equals_per_sample(self, rng, decoder):
        seqs = frozen(_multi_inputs(rng, 3))
        batched = _run_multi(seqs, decoder).data
        for i in range(3):
            one = [[Tensor(t.data[i : i + 1]) for t in s[:2]] + [s[2]] for s in seqs]
            assert np.array_equal(batched[i : i + 1], _run_multi(one, decoder).data)


def _per_gate_reconstructions(model, inputs):
    """The reconstructions of a batch of one; the per-gate LSTM runs on the
    lone sample."""
    cfg = model.config
    finals, taught = [], []
    for branch, values in zip(model.branches, inputs):
        acts = Tensor(values)
        for (kernels, bias), layer in zip(branch.conv, cfg.conv):
            acts = conv1d(acts, kernels, bias, layer.stride, padding_for(layer))
        acts = take(acts, 0)
        h, c = Tensor(np.zeros(cfg.hidden)), Tensor(np.zeros(cfg.hidden))
        for t in range(acts.data.shape[1]):
            h, c = lstm_step(take(acts, (slice(None), t)), h, c, branch.encoder)
        finals.append(h)
        taught.append(acts)
    code = concat(finals)
    recons = []
    for branch, acts in zip(model.branches, taught):
        steps = acts.data.shape[1]
        h = add(matmul(branch.dec_init_w, code), branch.dec_init_b)
        c = Tensor(np.zeros(cfg.hidden))
        step_in = Tensor(np.zeros(cfg.conv_features))
        slots = [None] * steps
        for t in range(steps - 1, -1, -1):
            h, c = lstm_step(step_in, h, c, branch.decoder)
            slots[t] = add(matmul(branch.step_w, h), branch.step_b)
            step_in = take(acts, (slice(None), t))
        out = concat([reshape(slot, (1, cfg.conv_features, 1)) for slot in slots])
        last = len(branch.deconv) - 1
        for i, (kernels, bias) in enumerate(branch.deconv):
            layer = cfg.conv[last - i]
            out = deconv1d(out, kernels, bias, layer.stride, padding_for(layer), relu=i < last)
        recons.append(out)
    return recons


class TestAgainstPerGateComposition:
    """The fused op reproduces the per-gate, per-step graph it replaced."""

    def setup_method(self):
        cfg = ModelConfig(channels=2, fragment_length=32, levels=2,
                          conv=(ConvLayer(4, 4, 2), ConvLayer(5, 2, 2)), hidden=3, seed=11)
        self.model = WaveletAutoencoder(cfg)
        x = np.random.default_rng(5).normal(size=(1, 2, 32))
        self.inputs = [x, *mdwd(x, "haar", 2)[0]]

    def test_teacher_forced_loss_and_every_gradient_agree(self):
        model = self.model
        ref_loss = reconstruction_loss(self.inputs, _per_gate_reconstructions(model, self.inputs))
        ref_loss.backward()
        ref_grads = {name: t.grad.copy() for name, t in model.named_parameters()}
        for t in model.parameters():
            t.grad = None

        code, acts = model.encode(self.inputs)
        loss = reconstruction_loss(self.inputs, model.decode(code, acts))
        loss.backward()
        assert abs(loss.item() - ref_loss.item()) <= 1e-10 * ref_loss.item()
        for name, t in model.named_parameters():
            old = ref_grads[name]
            assert np.max(np.abs(t.grad - old)) <= 1e-10 * max(np.max(np.abs(old)), 1e-300), name
